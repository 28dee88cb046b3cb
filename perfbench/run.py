"""End-to-end and per-layer benchmark of the ``rps`` commands.

Usage, from the repository root:

    python3 perfbench/run.py --workload classify_catalog --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``classify_catalog``, ``sweep_analytic`` and ``solve_artifacts``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s`` (fresh process to package imported and
every distinct config assembled, median of several processes),
``ops_per_s``, ``op_p50_s``, ``op_tail_s`` and ``peak_rss_mb``.  With
``--trace 1`` it holds the per-layer metrics of a traced run plus the
tracing overhead.  ``failed_ops_frac`` and the machine description are
printed on the lines before it.  The exit code is 0 only when a result
was printed; an incorrect op makes ``correct`` false and counts in
``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("classify_catalog", "sweep_analytic", "solve_artifacts")
# set-up probes before and after the measuring worker: spread over the run,
# their median depends less on how fast the shared machine is at one moment
SETUP_PROBES = (3, 4)
# the whole run must end within 180 s
DEADLINE_S = 170
THREADS = "2"


def _env() -> dict:
    env = dict(os.environ, RPS_THREADS=THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _worker_args(args) -> list:
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def _run_worker(args, deadline: float) -> dict:
    cmd = _worker_args(args)
    if args.quick:
        cmd += ["--max-ops", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(args, deadline: float) -> float:
    """Fresh process start to 'ready' after import and assembly; the probe
    prints the wall-clock time at which it was ready."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--setup-only"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=deadline - time.monotonic())
    word, _, when = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return float(when) - start


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rps end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one timed op and one set-up probe (self-check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "radialphi", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    before, after = (0, 1) if args.quick else SETUP_PROBES
    if args.trace:
        before = after = 0
    try:
        if not args.trace:
            _setup_seconds(args, deadline)  # untimed: fills the bytecode caches
        setup = [_setup_seconds(args, deadline) for _ in range(before)]
        result = _run_worker(args, deadline)
        setup += [_setup_seconds(args, deadline) for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    lat = result["latency"]
    failed_frac = result["failed"] / result["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} timed_s={result['timed_s']:.2f} "
          f"closed loop, 1 client, RPS_THREADS={THREADS}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"op_tail_s is p{lat['tail_percentile']:.1f} of n={lat['n']} ops "
          f"({lat['tail_beyond']} beyond it)")
    print(f"ops attempted {result['attempted']}, failed {result['failed']}")
    print(f"failed_ops_frac {failed_frac:.6g} frac")
    for failure in result["failures"]:
        print(f"  failed {failure['entry']}: {failure['reason']}")

    if args.trace:
        from worker import LAYER_UNITS
        metrics = {k: _metric(v, LAYER_UNITS[k]) for k, v in result["layers"].items()}
        print(f"spans {result['span_count']} written to {result['spans_file']}")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "ops_per_s": _metric(lat["ops_per_s"], "1/s"),
            "op_p50_s": _metric(lat["op_p50_s"], "s"),
            "op_tail_s": _metric(lat["op_tail_s"], "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
