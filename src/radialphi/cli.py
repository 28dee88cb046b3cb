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
an error), 1 config error (an output path that cannot be written among
them), 2 numeric failure.  Outputs are byte-stable for
identical configs: fixed key order, fixed float formats, no timestamps.

Config values are read with ``model``'s checked readers, so every config
mistake, from an unreadable file to a string where a number belongs, is a
``model.ConfigShapeError``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

import numpy as np

from . import classifier, criteria, iteration, model, oracle
from .exprlang import ExprError
from .model import ConfigShapeError, SpecError
from .operators import OperatorError, check_envelope
from .quadrature import NumericsError, ProbeSchedule, RadialGrid

__all__ = ["main", "run_config"]

_CSV_FLOAT = "%.12e"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigShapeError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigShapeError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer longer than Python's
        # limit on digits that int() converts
        raise ConfigShapeError(f"config cannot be read as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigShapeError("config must be a JSON object")
    return cfg


def _section(cfg: dict, dotted: str) -> dict:
    """The object at the dotted key path, empty when absent."""
    node = cfg
    for key in dotted.split("."):
        node = node.get(key, {})
        if not isinstance(node, dict):
            raise ConfigShapeError(f"{dotted} must be an object")
    return node


def _output(cfg: dict, key: str, section: str = "outputs") -> str | None:
    """The file path that ``<section>.<key>`` names, None when not asked
    for; open() would take an integer for a file descriptor."""
    path = _section(cfg, section).get(key)
    return None if path is None else model._text(path, f"{section}.{key}")


def _numerics(cfg: dict):
    """Numeric settings with defaults, rejecting degenerate values that
    would otherwise crash or yield a confident verdict from an empty probe
    grid.  The probe settings are defaulted and checked by ProbeSchedule."""
    num = _section(cfg, "numerics")
    conv_tol = model._num(num.get("conv_tol", iteration.DEFAULT_CONV_TOL), "numerics.conv_tol")
    max_iter = model._whole(num.get("max_iter", iteration.DEFAULT_MAX_ITER), "numerics.max_iter")
    probe_cfg = _section(cfg, "numerics.probe")
    settings = {key: model._num(probe_cfg[key], f"numerics.probe.{key}")
                for key in ("r0", "factor", "count", "segment_nodes") if key in probe_cfg}
    settings.update((key, model._num(num[key], f"numerics.{key}"))
                    for key in ("tail_tol", "blowup_threshold") if key in num)
    r_max = model._num(num.get("r_max", 2.0), "numerics.r_max")
    step = model._num(num.get("step", 1e-3), "numerics.step")
    try:
        grid = RadialGrid(r_max, step)
        schedule = ProbeSchedule(**settings)
    except ValueError as exc:
        raise ConfigShapeError(f"numerics: {exc}") from exc
    # an infinite tolerance would call the first sweep converged
    if not (conv_tol > 0 and np.isfinite(conv_tol)):
        raise ConfigShapeError("numerics: conv_tol must be positive and finite")
    if max_iter < 1:
        raise ConfigShapeError("numerics: max_iter must be an integer of at least 1")
    return {"grid": grid, "conv_tol": conv_tol, "max_iter": max_iter,
            "schedule": schedule}


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


def _open_output(path: str, key: str, mode: str, **kwargs):
    """``open`` of the artifact that config key ``key`` names, as a config error."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigShapeError(f"cannot write {key}: {exc}") from exc


def _write_json(path: str | None, payload: dict):
    if not path:
        return
    # one write: json.dump streams about 1,200 chunks per classify report
    with _open_output(path, "outputs.report_json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _numeric_failure(cfg: dict, exc: NumericsError, payload: dict) -> int:
    """Report a numeric failure: a stderr line, then the error JSON, exit 2."""
    print(f"numeric failure: {exc}", file=sys.stderr)
    payload["error"] = {"kind": type(exc).__name__, "message": str(exc)}
    _write_json(_output(cfg, "report_json"), payload)
    return 2


def _write_solution_csv(path: str | None, sol) -> None:
    """The solution table r, u, v, u', v' as ``_CSV_FLOAT`` text.

    Blocks of ``_CSV_BLOCK`` rows are formatted at once from integer
    digits, byte-identical to formatting every float with ``_CSV_FLOAT``.
    Each |x| becomes a 13-digit mantissa m = round(|x| * 10**(12 - e)) in
    [1e12, 1e13) and a decimal exponent e = floor(log10|x|).  Below 1e13,
    y = fl(|x| * fl(10**(12 - e))) is within 9.8e-4 (half an ulp of y)
    + 1.1e-3 (the scale's relative error of 2**-53) < 2.1e-3 of the exact
    product, so ``rint`` rounds y as ``_CSV_FLOAT`` rounds |x| whenever
    |y - rint(y)| < 0.497.  Values outside that band (about 0.6%), values
    whose e leaves y outside [1e12, 1e13) (an off-by-one log10 next to a
    power of 10, or |x| below 1e-296, subnormals included) and mantissas
    that round up to 1e13 are formatted by ``_CSV_FLOAT`` and parsed back
    into (m, e).  So every digit written is proven, and none rests on the
    accuracy of log10.

    A block with no negative value (-0.0 included) and every |e| < 100 is
    written as 19-byte cells: digit, point, 12 digits as three 4-digit
    words, "e", exponent sign and two digits as one 4-byte word, and the
    separator.  Any other block has 21-byte cells, with a sign in front
    and a third exponent digit, a NUL filling either when unused; the NULs
    are squeezed out.
    """
    if not path:
        return
    cols = (sol.grid.nodes, sol.u, sol.v,
            np.gradient(sol.u, sol.grid.step), np.gradient(sol.v, sol.grid.step))
    with _open_output(path, "outputs.solution_csv", "wb") as fh:
        fh.write(b"r,u,v,u_prime,v_prime\n")
        for start in range(0, cols[0].size, _CSV_BLOCK):
            fh.write(_csv_rows(np.column_stack([c[start:start + _CSV_BLOCK] for c in cols])))


# rows per formatted block: the formatter holds about 1 KB of temporaries
# per row; over the 11 solves of the benchmark menu, blocks of 4096 rows
# raised the peak RSS by 1.2 MB and blocks of 1024 by 0.2 MB, at one speed
_CSV_BLOCK = 1024
# "0000" ... "9999" as one 4-byte word each; built in uint8, since int64
# arithmetic on the table raised peak RSS by 1.2 MB
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_WORDS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
# "e", sign and two digits by e + 99; sign and two digits and a NUL, or
# three digits, by e + 999
_EXP_NARROW = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), np.uint32)
_EXP_WIDE = np.frombuffer(b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(-999, 1000)),
                          np.uint32)
# the written fields of a cell at their byte offsets, and its fixed bytes
_NARROW_CELL = np.dtype({"names": ["lead", "g0", "g1", "g2", "exp"], "itemsize": 19,
                         "formats": ["u1"] + ["u4"] * 4, "offsets": [0, 2, 6, 10, 14]})
_WIDE_CELL = np.dtype({"names": ["sign", "lead", "g0", "g1", "g2", "exp"], "itemsize": 21,
                       "formats": ["u1"] * 2 + ["u4"] * 4, "offsets": [0, 1, 3, 7, 11, 16]})
_NARROW_BYTES, _WIDE_BYTES = b"0.000000000000e+00,", b"\0" b"0.000000000000e+000,"
# 10**(12 - e), correctly rounded, by e + 324 for every e = floor(log10|x|)
# of a finite x; capped at 1e308, which sends every e < -296 to the fallback
_SCALE = np.array([float(f"1e{min(12 - e, 308)}") for e in range(-324, 309)])


def _csv_rows(table: np.ndarray) -> bytes:
    """Rows of ``table`` with every float formatted by ``_CSV_FLOAT``,
    comma-separated, each row ending in a newline.  Rows holding a
    non-finite value are formatted one float at a time."""
    finite = np.isfinite(table).all(axis=1)
    if finite.all():
        return _finite_csv_rows(table)
    parts, start = [], 0
    for i in np.flatnonzero(~finite):
        parts.append(_finite_csv_rows(table[start:i]))
        parts.append((",".join(_CSV_FLOAT % x for x in table[i]) + "\n").encode())
        start = i + 1
    parts.append(_finite_csv_rows(table[start:]))
    return b"".join(parts)


def _finite_csv_rows(table: np.ndarray) -> bytes:
    """``_csv_rows`` of a finite table, from the (m, e) digits described
    in ``_write_solution_csv``, written over a row of fixed cell bytes."""
    a = np.abs(table)
    zero = a == 0
    e = np.floor(np.log10(a + zero)).astype(np.int64)
    y = a * _SCALE[e + 324]
    m = np.rint(y)
    exact = zero | ((y >= 1e12) & (m < 1e13) & (np.abs(y - m) < 0.497))
    slow = np.flatnonzero(~exact)
    m = m.astype(np.int64)
    if slow.size:
        texts = [(_CSV_FLOAT % x).lstrip("-").split("e") for x in table.flat[slow].tolist()]
        m.flat[slow] = [int(mantissa.replace(".", "")) for mantissa, _ in texts]
        e.flat[slow] = [int(exponent) for _, exponent in texts]

    neg = np.signbit(table)
    narrow = not neg.any() and (np.abs(e) < 100).all()
    cell, fixed = (_NARROW_CELL, _NARROW_BYTES) if narrow else (_WIDE_CELL, _WIDE_BYTES)
    # a repeated bytearray fills the rows four times as fast as numpy does
    row = (fixed * table.shape[1])[:-1] + b"\n"
    cells = np.frombuffer(bytearray(row) * table.shape[0], cell).reshape(table.shape)
    hi = m // 10**8  # floor division and a product: np.divmod takes twice as long
    lo = m - hi * 10**8
    lead, g1 = hi // 10**4, lo // 10**4
    cells["lead"] = lead + ord("0")
    cells["g0"] = _WORDS4[hi - lead * 10**4]
    cells["g1"], cells["g2"] = _WORDS4[g1], _WORDS4[lo - g1 * 10**4]
    if narrow:
        cells["exp"] = _EXP_NARROW[e + 99]
        return cells.tobytes()
    cells["exp"] = _EXP_WIDE[e + 999]
    cells["sign"] = np.where(neg, ord("-"), 0)
    return cells.tobytes().replace(b"\0", b"")


def cmd_solve(cfg: dict) -> int:
    spec = model.assemble(model._get(cfg, "problem", "config"))
    num = _numerics(cfg)
    csv_path, report_path = _output(cfg, "solution_csv"), _output(cfg, "report_json")
    try:
        sol = iteration.solve(spec, num["grid"], num["conv_tol"], num["max_iter"])
    except NumericsError as exc:
        return _numeric_failure(cfg, exc, {"instance": _instance_echo(spec)})
    _write_solution_csv(csv_path, sol)
    _write_json(report_path, {
        "instance": _instance_echo(spec),
        "solution": sol.to_dict(),
    })
    print(f"solve: converged={sol.converged} iterations={sol.iterations_used} "
          f"residuals=({sol.residual_u:.3e}, {sol.residual_v:.3e})")
    return 0


def _checked(cfg: dict):
    """Assemble and check one config: (spec, numerics, hypotheses)."""
    spec = model.assemble(model._get(cfg, "problem", "config"))
    return spec, _numerics(cfg), model.check_hypotheses(spec)


def cmd_classify(cfg: dict) -> int:
    with_solve = _section(cfg, "classify").get("with_solve", False)
    if not isinstance(with_solve, bool):
        raise ConfigShapeError(f"classify.with_solve must be true or false, got {with_solve!r}")
    try:
        spec, num, hyp = _checked(cfg)
        report = criteria.build_report(spec, num["schedule"])
        cls = classifier.classify(spec, report, hyp)
        payload = {
            "instance": _instance_echo(spec),
            "hypotheses": hyp.to_dict(),
            "criteria": report.to_dict(),
            "classification": cls.to_dict(),
        }
        if with_solve:
            sol = iteration.solve(spec, num["grid"], num["conv_tol"], num["max_iter"])
            consistency = classifier.cross_check(spec, cls, sol)
            payload["solution"] = sol.to_dict()
            payload["consistency"] = consistency.to_dict()
        advisory = classifier.converse_advisory(spec, report, cls)
        if advisory is not None:
            payload["advisory"] = advisory
    except NumericsError as exc:
        return _numeric_failure(cfg, exc, {})
    _write_json(_output(cfg, "report_json"), payload)
    print(f"classify: verdict={cls.verdict} rule={cls.matched_rule}")
    return 0


def cmd_validate(cfg: dict) -> int:
    try:
        spec = model.assemble(model._get(cfg, "problem", "config"))
    except ConfigShapeError:
        raise
    except SpecError as exc:
        # the config parsed but an instance hypothesis failed: that is the
        # finding, not a crash
        payload = {"validation": {"assembly_error": str(exc)}, "all_ok": False}
        _write_json(_output(cfg, "report_json"), payload)
        print(f"validate: all_ok=False ({exc})")
        return 0
    num = _numerics(cfg)
    try:
        validation = _validation(spec, num["schedule"])
    except NumericsError as exc:
        return _numeric_failure(cfg, exc, {"instance": _instance_echo(spec)})
    ok = all(c["ok"] for c in validation["hypotheses"].values()
             if not c["note"].startswith("no ")) and \
        all(e["ok"] for e in validation["envelopes"].values())
    payload = {"instance": _instance_echo(spec), "validation": validation,
               "all_ok": bool(ok)}
    _write_json(_output(cfg, "report_json"), payload)
    print(f"validate: all_ok={payload['all_ok']}")
    return 0


def _validation(spec, schedule: ProbeSchedule) -> dict:
    """Hypotheses, envelope sandwich checks and the oracle runs of one
    instance."""
    hyp = model.check_hypotheses(spec)
    envelopes = {}
    single = {}
    for side in spec.sides:
        worst = check_envelope(side.op, side.env, n=64, s_min=1e-6)
        envelopes[f"operator{side.index}"] = {
            "operator": side.op.label, "worst_violation": worst,
            "ok": worst == 0.0, "description": side.env.description}
        try:
            rep = oracle.single_equation_check(side.nl, side.weight, spec.N, schedule)
            single[str(side.index)] = rep.to_dict()
        except SpecError as exc:
            single[str(side.index)] = {"error": str(exc)}
    validation: dict = {"hypotheses": hyp.to_dict(), "envelopes": envelopes,
                        "single_equation": single}

    if all(side.nl.family == "power" and side.op.family == "laplacian"
           for side in spec.sides):
        inst = oracle.PowerLawInstance(
            alpha_exp=dict(spec.f1.params)["gamma"], beta_exp=dict(spec.f2.params)["gamma"],
            a1=spec.a1, a2=spec.a2, N=spec.N)
        validation["power_law"] = oracle.power_law_criteria(inst, schedule).to_dict()
    return validation


def _sweep_axes(sweep: dict) -> list:
    """The sweep axes, each with a name, a list of values and a list of
    dotted config paths it sets."""
    axes = sweep.get("axes", [])
    if not isinstance(axes, list):
        raise ConfigShapeError("sweep.axes must be a list")
    for i, ax in enumerate(axes):
        if not (isinstance(ax, dict) and isinstance(ax.get("name"), str)
                and isinstance(ax.get("values"), list) and isinstance(ax.get("paths"), list)
                and all(isinstance(path, str) for path in ax["paths"])):
            raise ConfigShapeError(f"sweep.axes[{i}] needs a name, a list of values "
                                   "and a list of dotted paths")
        for path in ax["paths"]:
            if "" in path.split("."):
                raise ConfigShapeError(f"sweep axis {ax['name']!r}: path {path!r} "
                                       "has an empty segment")
    return axes


def _set_path(cfg: dict, dotted: str, value, axis: str):
    """Set the value at a dotted path of ``cfg``, creating missing objects
    on the way; a path through an existing non-object is a config error.
    Every object below ``cfg`` on the path is replaced by a copy before it
    is written, so the objects ``cfg`` shares with another config stay as
    they are."""
    keys = dotted.split(".")
    node = cfg
    for depth, key in enumerate(keys[:-1]):
        child = node.get(key, {})
        if not isinstance(child, dict):
            raise ConfigShapeError(f"sweep axis {axis!r}: path {dotted!r} runs through "
                                   f"{'.'.join(keys[:depth + 1])}, which is not an object")
        node[key] = dict(child)
        node = node[key]
    node[keys[-1]] = value


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return _CSV_FLOAT % value
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _attempt(fn, *args):
    """``fn(*args)``, or the sweep row cells of the numeric failure it raises."""
    try:
        return fn(*args)
    except NumericsError as exc:
        return ["numeric_failure", type(exc).__name__]


def _classify_batch(configs: list) -> list:
    """Each point's classification, or the row cells of its numeric failure.
    The points differ in their weights alone: each after the first that
    assembles is that one reweighted, and all are probed as one batch."""
    points = []
    for local in configs:
        first = next((point for point in points if isinstance(point, tuple)), None)
        points.append(_attempt(_checked, local) if first is None else
                      (model.reweight(first[0], local["problem"]), *first[1:]))
    ready = [k for k, point in enumerate(points) if isinstance(point, tuple)]
    reports = criteria.build_reports([points[k][0] for k in ready],
                                     points[ready[0]][1]["schedule"]) if ready else []
    for k, report in zip(ready, reports):
        points[k] = _attempt(classifier.classify, points[k][0], report, points[k][2])
    return points


def cmd_sweep(cfg: dict) -> int:
    sweep = _section(cfg, "sweep")
    axes = _sweep_axes(sweep)
    out_key, out_path = "sweep.csv", _output(cfg, "csv", "sweep")
    if not out_path:
        out_key, out_path = "outputs.sweep_csv", _output(cfg, "sweep_csv")
    # every combination, the last axis fastest; no axes means no points,
    # not the one empty combination of an empty product
    combos = list(itertools.product(*(ax["values"] for ax in axes))) if axes else []
    configs = []
    for combo in combos:
        # a copy of the objects on the axis paths; the rest is shared
        local = dict(cfg)
        for ax, value in zip(axes, combo):
            for path in ax["paths"]:
                _set_path(local, path, value, ax["name"])
        configs.append(local)
    # weight-only points share one assembly and one batch; others run alone
    weights_only = all(path.split(".")[:2] in (["problem", "weight1"], ["problem", "weight2"])
                       for ax in axes for path in ax["paths"])
    batches = [configs] if weights_only else [[local] for local in configs]
    outcomes = [cls for batch in batches for cls in _classify_batch(batch)]
    rows = [[_fmt_cell(value) for value in combo]
            + (cls if isinstance(cls, list) else [cls.verdict, cls.matched_rule])
            for combo, cls in zip(combos, outcomes)]

    table = [[ax["name"] for ax in axes] + ["verdict", "matched_rule"]] + rows
    if out_path:
        with _open_output(out_path, out_key, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    # stdout that carries the CSV carries nothing else
    print(f"sweep: {len(rows)} points", file=sys.stdout if out_path else sys.stderr)
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
    except (SpecError, ExprError, OperatorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
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
    except ConfigShapeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_config(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
