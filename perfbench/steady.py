"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/BENCH_0.json

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and for every end-to-end metric reports the ten values, their median,
quartiles (``statistics.quantiles(values, n=4)``) and the inter-quartile
distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  With ``--traced-seed`` it adds one ``--trace 1`` run
per workload, whose per-layer metrics and tracing overhead go into the same
file together with the machine description and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

import worker  # noqa: E402


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"commit": worker.commit(), "seconds": args.seconds,
                    "seeds": _seeds(args.seeds), "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            result, lines = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            report.setdefault("machine", json.loads(
                next(l for l in lines if l.startswith("machine "))[len("machine "):]))
            print(workload, seed, {k: round(m["value"], 5)
                                   for k, m in result["metrics"].items()}, flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "failed_ops_frac": (sum(r["failed"] for r in runs)
                                     / sum(r["attempted"] for r in runs)),
                 "metrics": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["metrics"][name] = s
            ok = name == "setup_s" or s["iqr_share"] <= bound / 3
            steady = steady and ok
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']} "
                  f"iqr/median {s['iqr_share']:.4f} (bound {bound}, "
                  f"{'ok' if ok else 'ABOVE a third of the bound'})", flush=True)
        if args.traced_seed is not None:
            result, _ = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "metrics": result["metrics"],
                               "attempted": result["attempted"],
                               "failed": result["failed"]}
        report["workloads"][workload] = entry
    report["steady"] = steady
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
