"""Benchmark worker: drives ``radialphi.cli.run_config`` in process.

One closed-loop client on one process: each command is issued only after
the previous one returned.  ``run.py`` starts this file in a fresh Python
process, either to measure set-up only (``--setup-only``: import the
package, assemble every distinct config of the workload once, print
``ready`` and the wall-clock time) or for a full run, whose result is printed as one JSON line.

A full run assembles the configs (set-up), runs one untimed warm-up op,
then runs rounds until ``--seconds`` have passed at a round boundary; a
round is every menu entry of the workload once, in a seeded order.  Every
op is checked against the reference.  With ``--trace 1`` every op is run
twice, untraced and traced, and the per-layer metrics come from the traced
copies; the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics: name -> unit; counts and times are per traced op
LAYER_UNITS = {
    "operators.h_inverse.calls": "count/op",
    "operators.h_inverse.elements": "count/op",
    "operators.h_inverse.self_s": "s/op",
    "operators.h_inverse.ns_per_element": "ns",
    "operators.h_inverse.failures": "count/op",
    "operators.h_inverse.analytic_share": "frac",
    "operators.h_inverse.unique_share": "frac",
    "operators.derive_envelopes.calls": "count/op",
    "operators.derive_envelopes.self_s": "s/op",
    "operators.check_envelope.self_s": "s/op",
    "operators.make_operator.self_s": "s/op",
    "exprlang.Expr.call.calls": "count/op",
    "exprlang.Expr.call.elements": "count/op",
    "exprlang.Expr.call.self_s": "s/op",
    "model.assemble.calls": "count/op",
    "model.assemble.self_s": "s/op",
    "model.check_hypotheses.self_s": "s/op",
    "model.Weight.sample.elements": "count/op",
    "model.Weight.sample.self_s": "s/op",
    "quadrature.radial_kernel_at.calls": "count/op",
    "quadrature.radial_kernel_at.elements": "count/op",
    "quadrature.radial_kernel_at.self_s": "s/op",
    "quadrature.radial_kernel_at.repeat_grid_share": "frac",
    "quadrature.prefix_trapezoid.elements": "count/op",
    "quadrature.prefix_trapezoid.self_s": "s/op",
    "quadrature.verdict_from_trace.self_s": "s/op",
    "criteria.build_report.calls": "count/op",
    "criteria.build_report.self_s": "s/op",
    "criteria.accumulation_values.self_s": "s/op",
    "criteria.upper_coupling_values.self_s": "s/op",
    "criteria.lower_coupling_values.self_s": "s/op",
    "criteria.upper_coupling_relaxed_values.self_s": "s/op",
    "criteria.GrowthBudget.self_s": "s/op",
    "criteria.probe_nodes": "count",
    "criteria.decided_share": "frac",
    "iteration.solve.calls": "count/op",
    "iteration.step.calls": "count/op",
    "iteration.step.self_s": "s/op",
    "iteration.sweeps_per_solve": "count",
    "iteration.node_sweeps_per_s": "1/s",
    "cli.run_config.self_s": "s/op",
    "cli.artifact_bytes": "B/op",
    "cli.sweep.parallel_efficiency": "frac",
    "classifier.classify.self_s": "s/op",
    "trace.overhead_frac": "frac",
}

THREADS = 2


def _load_package():
    sys.path.insert(0, SRC)
    import radialphi
    from radialphi import cli, model
    if not os.path.abspath(radialphi.__file__).startswith(SRC + os.sep):
        raise ImportError(f"radialphi imported from {radialphi.__file__}, not {SRC}")
    return cli, model


def _setup(workload: str):
    """Import the package and assemble every distinct config once."""
    cli, model = _load_package()
    for cfg in workloads.menu(workload).values():
        model.assemble(cfg["problem"])
    return cli


def commit() -> str | None:
    """The checked-out git commit, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rps_threads": os.environ.get("RPS_THREADS"),
        "platform": platform.platform(),
        "commit": commit(),
    }


class Runner:
    """Runs ops in one work directory and checks each against ``reference``
    (entry id -> recorded observation); with no reference nothing is
    checked and ``observed`` collects what each entry produced."""

    def __init__(self, workload: str, cli, work_dir: str, reference: dict | None):
        self.command = workloads.COMMANDS[workload]
        self.cli = cli
        self.work_dir = work_dir
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.observed: dict = {}

    def _paths(self) -> dict:
        names = {"classify": ("report_json",),
                 "solve": ("report_json", "solution_csv"),
                 "sweep": ("sweep_csv",)}[self.command]
        files = {"report_json": "report.json", "solution_csv": "solution.csv",
                 "sweep_csv": "sweep.csv"}
        return {k: os.path.join(self.work_dir, files[k]) for k in names}

    def run_op(self, entry: str, cfg: dict, tracer=None, op_id: int = 0):
        """Run one command; returns (latency seconds, artifact bytes)."""
        cfg = copy.deepcopy(cfg)
        paths = self._paths()
        for p in paths.values():
            if os.path.exists(p):
                os.remove(p)
        if self.command == "sweep":
            cfg["sweep"]["csv"] = paths["sweep_csv"]
        else:
            cfg["outputs"] = dict(paths)
        sink = io.StringIO()
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.run_config(self.command, cfg)
        except Exception:  # an escaped exception is a failed op, not a crash
            code = None
            sink.write(traceback.format_exc())
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.attempted += 1
        reason = "uncaught exception: " + sink.getvalue()[-300:] if code is None else None
        if reason is None:
            try:
                observed = checks.observe(self.command, code, paths)
                self.observed[entry] = observed
                if self.reference is not None:
                    reason = checks.check(self.command, entry, observed,
                                          self.reference[entry])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"artifacts unreadable: {exc}"
        if reason is not None:
            self.failures.append({"entry": entry, "reason": reason})
        size = sum(os.path.getsize(p) for p in paths.values() if os.path.exists(p))
        return latency, size


def latency_summary(latencies: list) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "n": n,
        "ops_per_s": n / sum(ordered),
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
    }


def layer_metrics(spans, n_ops: int, command: str, artifact_bytes: float,
                  overhead: float) -> dict:
    from tracer import self_times

    selfs = self_times(spans)
    by = defaultdict(list)
    for span in spans:
        by[span[1]].append(span)

    def calls(name):
        return len(by[name]) / n_ops

    def elements(name):
        return sum(s[7] for s in by[name]) / n_ops

    def self_s(name):
        return sum(selfs[s[0]] for s in by[name]) / n_ops

    def busy(name):
        return sum(s[3] - s[2] for s in by[name])

    def share(num, den):
        return num / den if den else 0.0

    hinv = by["operators.h_inverse"]
    hinv_elements = sum(s[7] for s in hinv)
    kernels = by["quadrature.radial_kernel_at"]
    reports = [s[8] for s in by["criteria.build_report"]]
    steps = by["iteration.step"]
    grids = [s[8]["nodes"] for s in by["criteria.probe_grid"]]
    sweep_wall = busy("cli.run_config") if command == "sweep" else 0.0
    m = {
        "operators.h_inverse.calls": calls("operators.h_inverse"),
        "operators.h_inverse.elements": elements("operators.h_inverse"),
        "operators.h_inverse.self_s": self_s("operators.h_inverse"),
        "operators.h_inverse.ns_per_element":
            1e9 * share(busy("operators.h_inverse"), hinv_elements),
        "operators.h_inverse.failures":
            sum(1 for s in hinv if s[8].get("failed")) / n_ops,
        "operators.h_inverse.analytic_share":
            share(sum(s[7] for s in hinv if s[8]["analytic"]), hinv_elements),
        "operators.h_inverse.unique_share":
            share(sum(s[7] for s in hinv if s[8]["unique"]), hinv_elements),
        "operators.derive_envelopes.calls": calls("operators.derive_envelopes"),
        "operators.derive_envelopes.self_s": self_s("operators.derive_envelopes"),
        "operators.check_envelope.self_s": self_s("operators.check_envelope"),
        "operators.make_operator.self_s": self_s("operators.make_operator"),
        "exprlang.Expr.call.calls": calls("exprlang.Expr.call"),
        "exprlang.Expr.call.elements": elements("exprlang.Expr.call"),
        "exprlang.Expr.call.self_s": self_s("exprlang.Expr.call"),
        "model.assemble.calls": calls("model.assemble"),
        "model.assemble.self_s": self_s("model.assemble"),
        "model.check_hypotheses.self_s": self_s("model.check_hypotheses"),
        "model.Weight.sample.elements": elements("model.Weight.sample"),
        "model.Weight.sample.self_s": self_s("model.Weight.sample"),
        "quadrature.radial_kernel_at.calls": calls("quadrature.radial_kernel_at"),
        "quadrature.radial_kernel_at.elements": elements("quadrature.radial_kernel_at"),
        "quadrature.radial_kernel_at.self_s": self_s("quadrature.radial_kernel_at"),
        "quadrature.radial_kernel_at.repeat_grid_share":
            share(sum(1 for s in kernels if s[8]["repeat"]), len(kernels)),
        "quadrature.prefix_trapezoid.elements": elements("quadrature.prefix_trapezoid"),
        "quadrature.prefix_trapezoid.self_s": self_s("quadrature.prefix_trapezoid"),
        "quadrature.verdict_from_trace.self_s": self_s("quadrature.verdict_from_trace"),
        "criteria.build_report.calls": calls("criteria.build_report"),
        "criteria.build_report.self_s": self_s("criteria.build_report"),
        "criteria.accumulation_values.self_s": self_s("criteria.accumulation_values"),
        "criteria.upper_coupling_values.self_s": self_s("criteria.upper_coupling_values"),
        "criteria.lower_coupling_values.self_s": self_s("criteria.lower_coupling_values"),
        "criteria.upper_coupling_relaxed_values.self_s":
            self_s("criteria.upper_coupling_relaxed_values"),
        "criteria.GrowthBudget.self_s": self_s("criteria.GrowthBudget"),
        "criteria.probe_nodes": share(sum(grids), len(grids)),
        "criteria.decided_share": share(sum(r.get("decided", 0) for r in reports),
                                        sum(r.get("available", 0) for r in reports)),
        "iteration.solve.calls": calls("iteration.solve"),
        "iteration.step.calls": calls("iteration.step"),
        "iteration.step.self_s": self_s("iteration.step"),
        "iteration.sweeps_per_solve": share(len(steps), len(by["iteration.solve"])),
        "iteration.node_sweeps_per_s":
            share(sum(s[8]["nodes"] for s in steps), busy("iteration.step")),
        "cli.run_config.self_s": self_s("cli.run_config"),
        "cli.artifact_bytes": artifact_bytes,
        "cli.sweep.parallel_efficiency":
            share(busy("criteria.build_report"), sweep_wall * THREADS),
        "classifier.classify.self_s": self_s("classifier.classify"),
        "trace.overhead_frac": overhead,
    }
    return m


@contextlib.contextmanager
def work_dir():
    """A scratch directory for the op artifacts, removed afterwards."""
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def full_run(args) -> dict:
    cli = _setup(args.workload)
    with work_dir() as path:
        return _measure(args, cli, path)


def _measure(args, cli, work_dir) -> dict:
    reference = checks.load_reference()["entries"][args.workload]
    runner = Runner(args.workload, cli, work_dir, reference)
    rounds = workloads.rounds(args.workload, args.seed)
    first = next(rounds)
    runner.run_op(*first[0])  # warm-up, checked but not timed
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    plain, traced, traced_bytes = [], [], []

    def run_traced(entry, cfg):
        tracer.install()
        try:
            latency, size = runner.run_op(entry, cfg, tracer, len(traced))
        finally:
            tracer.uninstall()
        traced.append(latency)
        traced_bytes.append(size)

    n_rounds = 0
    start = time.perf_counter()
    order = first
    while True:
        if args.max_ops:
            order = order[:args.max_ops]
        for i, (entry, cfg) in enumerate(order):
            # traced and untraced copies run back to back, in alternating
            # order, so drift in machine speed cancels out of the overhead
            if tracer is not None and i % 2:
                run_traced(entry, cfg)
            plain.append(runner.run_op(entry, cfg)[0])
            if tracer is not None and not i % 2:
                run_traced(entry, cfg)
        n_rounds += 1
        if args.max_ops or time.perf_counter() - start >= args.seconds:
            break
        order = next(rounds)
    timed_s = time.perf_counter() - start

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": n_rounds,
        "timed_s": timed_s,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "latency": latency_summary(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tracer is not None:
        overhead = sum(traced) / sum(plain) - 1.0
        result["layers"] = layer_metrics(
            tracer.spans, len(traced), runner.command,
            statistics.fmean(traced_bytes), overhead)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path, {k: result[k] for k in
                                 ("workload", "seed", "rounds", "machine")})
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["span_count"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MENUS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many timed ops (quick mode)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup(args.workload)
        print(f"ready {time.time()!r}", flush=True)
        return 0
    print(json.dumps(full_run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
