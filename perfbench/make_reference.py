"""Record the reference outputs of every menu entry in ``reference.json``.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

Each entry is run once through ``cli.run_config`` and its exit code,
verdict and matched rule (classify), sweep CSV (sweep), or convergence,
``residual_u`` and u, v at the check radii (solve) are stored under its
``<slot>.<k>`` identifier.  The run fails if a manufactured case is off
its exact solution, so a wrong reference is never written.
"""

from __future__ import annotations

import json
import os
import sys

import worker
import checks
import workloads


def main() -> int:
    os.environ["RPS_THREADS"] = str(worker.THREADS)
    cli, _model = worker._load_package()
    entries = {}
    with worker.work_dir() as path:
        for name in workloads.MENUS:
            runner = worker.Runner(name, cli, path, reference=None)
            for entry, cfg in workloads.menu(name).items():
                runner.run_op(entry, cfg)
                if entry not in runner.observed:
                    print(f"{name} {entry}: {runner.failures[-1]}", file=sys.stderr)
                    return 1
                observed = runner.observed[entry]
                if entry.split(".")[0] in workloads.EXACT_SLOTS:
                    # checked against itself, only the convergence, residual
                    # and exact-solution checks can fail
                    reason = checks.check("solve", entry, observed, observed)
                    if reason:
                        print(f"{entry}: {reason}", file=sys.stderr)
                        return 1
                print(name, entry, {k: v for k, v in observed.items() if k != "csv"})
            entries[name] = runner.observed
    payload = {
        "recorded_at_commit": worker.commit(),
        "residual_u_bound": checks.RESIDUAL_U_BOUND,
        "solution_rtol": checks.SOLUTION_RTOL,
        "exact_rtol": checks.EXACT_RTOL,
        "check_radii": workloads.CHECK_RADII,
        "entries": entries,
    }
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
