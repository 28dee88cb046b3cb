"""Command-line entry point.

Subcommands, all driven by one JSON config (``--config``):

* ``solve``     run the fixed-point solver, write the solution CSV and a
                JSON run report;
* ``classify``  probe the integral criteria, apply the decision table,
                optionally cross-check against a solve;
* ``validate``  hypothesis report, envelope sandwich check, and the
                independent oracle runs;
* ``sweep``     rerun classification over a grid of parameter values and
                write one CSV row per point.

Exit codes: 0 success (an indeterminate verdict is an honest outcome, not
an error), 1 config error, 2 numeric failure.  Outputs are byte-stable for
identical configs: fixed key order, fixed float formats, no timestamps.
Sweeps fan out across threads, capped by the RPS_THREADS environment
variable; per-point work stays sequential so results do not depend on the
thread count.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import classifier, criteria, iteration, model, oracle
from .exprlang import ExprError
from .model import SpecError
from .operators import InversionRangeError, OperatorError, check_envelope
from .quadrature import NumericsError, ProbeSchedule, RadialGrid

__all__ = ["main", "run_config"]

_CSV_FLOAT = "%.12e"


class _ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config is not valid JSON: {exc}") from exc


def _numerics(cfg: dict):
    """Numeric settings with defaults, rejecting degenerate values that
    would otherwise crash or yield a confident verdict from an empty probe
    grid."""
    num = cfg.get("numerics", {})
    grid = RadialGrid(float(num.get("r_max", 2.0)), float(num.get("step", 1e-3)))
    probe_cfg = num.get("probe", {})
    schedule = ProbeSchedule(
        r0=float(probe_cfg.get("r0", 1.0)),
        factor=float(probe_cfg.get("factor", 2.0)),
        count=int(probe_cfg.get("count", 15)),
    )
    out = {
        "grid": grid,
        "conv_tol": float(num.get("conv_tol", iteration.DEFAULT_CONV_TOL)),
        "max_iter": int(num.get("max_iter", iteration.DEFAULT_MAX_ITER)),
        "schedule": schedule,
        "segment_nodes": int(probe_cfg.get("segment_nodes", 4096)),
        "tail_tol": float(num.get("tail_tol", 1e-6)),
        "blowup_threshold": float(num.get("blowup_threshold", 1e8)),
    }
    for ok, rule in (
            (0 < schedule.r0 < np.inf, "probe.r0 must be positive and finite"),
            (1 < schedule.factor < np.inf, "probe.factor must exceed 1 and be finite"),
            (schedule.count >= 1, "probe.count must be at least 1"),
            (out["segment_nodes"] >= 2, "probe.segment_nodes must be at least 2"),
            (out["conv_tol"] > 0, "conv_tol must be positive"),
            (out["tail_tol"] > 0, "tail_tol must be positive"),
            (out["blowup_threshold"] > 0, "blowup_threshold must be positive")):
        if not ok:
            raise _ConfigError(f"numerics: {rule}")
    return out


def _instance_echo(spec) -> dict:
    return {
        "N": spec.N,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "operator1": spec.op1.label,
        "operator2": spec.op2.label,
        "weight1": spec.a1.label,
        "weight2": spec.a2.label,
        "f1": spec.f1.label,
        "f2": spec.f2.label,
        "M1": spec.f1.M_big,
        "M2": spec.f2.M_big,
        "m1": spec.f1.m_small,
        "m2": spec.f2.m_small,
    }


def _write_json(path: str | None, payload: dict):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _central_diff(values: np.ndarray, step: float) -> np.ndarray:
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * step)
    out[0] = (values[1] - values[0]) / step
    out[-1] = (values[-1] - values[-2]) / step
    return out


def _write_solution_csv(path: str | None, sol) -> None:
    if not path:
        return
    nodes = sol.grid.nodes
    up = _central_diff(sol.u, sol.grid.step)
    vp = _central_diff(sol.v, sol.grid.step)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("r,u,v,u_prime,v_prime\n")
        for row in zip(nodes, sol.u, sol.v, up, vp):
            fh.write(",".join(_CSV_FLOAT % x for x in row) + "\n")


def cmd_solve(cfg: dict) -> int:
    spec = model.assemble(cfg["problem"])
    num = _numerics(cfg)
    outputs = cfg.get("outputs", {})
    try:
        sol = iteration.solve(spec, num["grid"], num["conv_tol"], num["max_iter"])
    except (NumericsError, InversionRangeError) as exc:
        _write_json(outputs.get("report_json"), {
            "instance": _instance_echo(spec),
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        })
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    _write_solution_csv(outputs.get("solution_csv"), sol)
    _write_json(outputs.get("report_json"), {
        "instance": _instance_echo(spec),
        "solution": sol.to_dict(),
    })
    print(f"solve: converged={sol.converged} iterations={sol.iterations_used} "
          f"residuals=({sol.residual_u:.3e}, {sol.residual_v:.3e})")
    return 0


def _classification_payload(cfg: dict):
    spec = model.assemble(cfg["problem"])
    num = _numerics(cfg)
    hyp = model.check_hypotheses(spec)
    report = criteria.build_report(
        spec, schedule=num["schedule"], tail_tol=num["tail_tol"],
        blowup_threshold=num["blowup_threshold"],
        segment_nodes=num["segment_nodes"])
    cls = classifier.classify(spec, report, hyp)
    payload = {
        "instance": _instance_echo(spec),
        "hypotheses": hyp.to_dict(),
        "criteria": report.to_dict(),
        "classification": cls.to_dict(),
    }
    return spec, num, report, cls, payload


def cmd_classify(cfg: dict) -> int:
    try:
        spec, num, report, cls, payload = _classification_payload(cfg)
        if cfg.get("classify", {}).get("with_solve", False):
            sol = iteration.solve(spec, num["grid"], num["conv_tol"], num["max_iter"])
            consistency = classifier.cross_check(spec, cls, sol)
            payload["solution"] = sol.to_dict()
            payload["consistency"] = consistency.to_dict()
        advisory = classifier.converse_advisory(spec, report, cls)
        if advisory is not None:
            payload["advisory"] = advisory
    except (NumericsError, InversionRangeError, criteria.CriteriaError) as exc:
        _write_json(cfg.get("outputs", {}).get("report_json"), {
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        })
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    _write_json(cfg.get("outputs", {}).get("report_json"), payload)
    print(f"classify: verdict={cls.verdict} rule={cls.matched_rule}")
    return 0


def cmd_validate(cfg: dict) -> int:
    try:
        spec = model.assemble(cfg["problem"])
    except SpecError as exc:
        # the config parsed but an instance hypothesis failed: that is the
        # finding, not a crash
        payload = {"validation": {"assembly_error": str(exc)}, "all_ok": False}
        _write_json(cfg.get("outputs", {}).get("report_json"), payload)
        print(f"validate: all_ok=False ({exc})")
        return 0
    num = _numerics(cfg)
    hyp = model.check_hypotheses(spec)
    envelopes = {}
    for name, op, env in (("operator1", spec.op1, spec.env1),
                          ("operator2", spec.op2, spec.env2)):
        worst = check_envelope(op, env, n=64, s_min=1e-6, s_max=1e3)
        envelopes[name] = {"operator": op.label, "worst_violation": worst,
                           "ok": worst == 0.0, "description": env.description}

    validation: dict = {"hypotheses": hyp.to_dict(), "envelopes": envelopes}
    single = {}
    for side, (f, a) in (("1", (spec.f1, spec.a1)), ("2", (spec.f2, spec.a2))):
        try:
            rep = oracle.single_equation_check(
                f, a, spec.N, schedule=num["schedule"], tail_tol=num["tail_tol"],
                blowup_threshold=num["blowup_threshold"],
                segment_nodes=num["segment_nodes"])
            single[side] = rep.to_dict()
        except SpecError as exc:
            single[side] = {"error": str(exc)}
    validation["single_equation"] = single

    if (spec.f1.family == "power" and spec.f2.family == "power"
            and spec.op1.family == "laplacian" and spec.op2.family == "laplacian"):
        inst = oracle.PowerLawInstance(
            alpha_exp=_power_exponent(spec.f1), beta_exp=_power_exponent(spec.f2),
            a1=spec.a1, a2=spec.a2, N=spec.N)
        validation["power_law"] = oracle.power_law_criteria(
            inst, schedule=num["schedule"], tail_tol=num["tail_tol"],
            blowup_threshold=num["blowup_threshold"],
            segment_nodes=num["segment_nodes"]).to_dict()

    ok = all(c["ok"] for c in hyp.to_dict().values()
             if not c["note"].startswith("no ")) and \
        all(e["ok"] for e in envelopes.values())
    payload = {"instance": _instance_echo(spec), "validation": validation,
               "all_ok": bool(ok)}
    _write_json(cfg.get("outputs", {}).get("report_json"), payload)
    print(f"validate: all_ok={payload['all_ok']}")
    return 0


def _power_exponent(nl) -> float:
    # label is "t^<gamma>" for the power family
    return float(nl.label.split("^", 1)[1])


def _set_path(cfg: dict, dotted: str, value):
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = value


def _sweep_points(axes):
    if not axes:
        return
    names = [ax["name"] for ax in axes]
    lists = [ax["values"] for ax in axes]
    idx = [0] * len(lists)
    while True:
        yield {n: lst[i] for n, lst, i in zip(names, lists, idx)}
        k = len(idx) - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < len(lists[k]):
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            return


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return _CSV_FLOAT % value
    return str(value)


def cmd_sweep(cfg: dict) -> int:
    sweep = cfg.get("sweep", {})
    axes = sweep.get("axes", [])
    out_path = sweep.get("csv") or cfg.get("outputs", {}).get("sweep_csv")
    points = list(_sweep_points(axes))
    names = [ax["name"] for ax in axes]

    def run_point(point):
        local = copy.deepcopy(cfg)
        for ax in axes:
            for path in ax["paths"]:
                _set_path(local, path, point[ax["name"]])
        try:
            _, _, _, cls, _ = _classification_payload(local)
            return point, cls.verdict, cls.matched_rule
        except (NumericsError, InversionRangeError, criteria.CriteriaError) as exc:
            return point, "numeric_failure", type(exc).__name__

    workers = os.environ.get("RPS_THREADS")
    workers = int(workers) if workers else (os.cpu_count() or 1)
    workers = max(1, min(workers, max(1, len(points))))
    if workers > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_point, points))
    else:
        rows = [run_point(pt) for pt in points]

    lines = [",".join(names + ["verdict", "matched_rule"])]
    for point, verdict, rule in rows:
        lines.append(",".join([_fmt_cell(point[n]) for n in names]
                              + [verdict, rule]))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"sweep: {len(rows)} points")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "classify": cmd_classify,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def run_config(command: str, cfg: dict) -> int:
    """Programmatic entry point used by the CLI and by tests."""
    try:
        return _COMMANDS[command](cfg)
    except (_ConfigError, SpecError, ExprError, OperatorError,
            KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, InversionRangeError, criteria.CriteriaError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rps",
        description="Solve and classify coupled radial phi-Laplacian systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("solve", "run the fixed-point solver and write CSV/JSON outputs"),
            ("classify", "probe the integral criteria and classify the instance"),
            ("validate", "hypothesis, envelope and oracle validation report"),
            ("sweep", "classify over a parameter grid and write a CSV")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON config")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_config(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
