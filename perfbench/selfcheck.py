"""Quick self-check of the benchmark.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --quick`` (one timed op) untraced and
traced, and asserts that every metric listed in ``BENCHMARK.json`` prints
by name with its unit, that ``failed_ops_frac`` prints and is 0, and that
the result is correct.  It then copies ``BENCHMARK.json`` and the benchmark
directory, without the package source, into a scratch directory and
asserts that the benchmark fails there without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_runs", "selfcheck")

sys.path.insert(0, HERE)


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_output(workload: str, trace: int, expected: dict) -> list:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = (parts[1], parts[2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"incorrect result: {lines}")
    if printed.get("failed_ops_frac", (None, None))[1] != "frac" or \
            float(printed["failed_ops_frac"][0]) != 0.0:
        problems.append(f"failed_ops_frac not printed as 0 frac: {printed.get('failed_ops_frac')}")
    if set(result["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or printed.get(name, (None, None))[1] != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}/{printed.get(name)} != {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r} is not a number")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def _check_without_source() -> list:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SCRATCH, "solve_artifacts", 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without the package source: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    from worker import LAYER_UNITS

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if per_layer != LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from worker.LAYER_UNITS")
    for workload in (w["name"] for w in bench["workloads"]):
        problems += _check_output(workload, 0, end_to_end)
        problems += _check_output(workload, 1, per_layer)
        print(f"{workload}: checked", flush=True)
    problems += _check_without_source()
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
