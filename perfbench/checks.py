"""Output checks of one op against the recorded reference.

An op fails on: a wrong exit code; for classify, a different verdict or
matched rule; for sweep, a sweep CSV that differs from the reference; for
solve, ``converged`` false, ``residual_u`` above ``RESIDUAL_U_BOUND``, u or
v at ``CHECK_RADII`` off the reference by more than ``SOLUTION_RTOL``, or,
for the manufactured cases, off the exact 1 + r^2 by more than
``EXACT_RTOL``.

``residual_v`` is not checked: it is always exactly 0, because the v-image
in the fixed-point residual is computed from the u that the last sweep just
produced, which is the same computation that produced v.
"""

from __future__ import annotations

import json
import os

from workloads import CHECK_RADII, EXACT_SLOTS, SOLVE_GRID

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

RESIDUAL_U_BOUND = 1e-6
# ten times the solver's relative stopping tolerance (1e-8)
SOLUTION_RTOL = 1e-7
EXACT_RTOL = 1e-6


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def solve_samples(csv_path: str) -> tuple[list, list]:
    """u and v at CHECK_RADII, read from the solution CSV rows."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    us, vs = [], []
    for r in CHECK_RADII:
        row = lines[1 + int(round(r / SOLVE_GRID["step"]))].split(",")
        if abs(float(row[0]) - r) > 1e-9 * (1.0 + r):
            raise ValueError(f"solution CSV row for r={r:g} holds r={row[0]}")
        us.append(float(row[1]))
        vs.append(float(row[2]))
    return us, vs


def observe(command: str, exit_code: int, paths: dict) -> dict:
    """What the reference records, read back from the op's artifacts."""
    out: dict = {"exit_code": exit_code}
    if exit_code != 0:
        return out
    if command == "classify":
        with open(paths["report_json"], "r", encoding="utf-8") as fh:
            cls = json.load(fh)["classification"]
        out.update(verdict=cls["verdict"], matched_rule=cls["matched_rule"])
    elif command == "sweep":
        with open(paths["sweep_csv"], "r", encoding="utf-8") as fh:
            out["csv"] = fh.read()
    elif command == "solve":
        with open(paths["report_json"], "r", encoding="utf-8") as fh:
            sol = json.load(fh)["solution"]
        out.update(converged=sol["converged"], residual_u=sol["residual_u"])
        out["u"], out["v"] = solve_samples(paths["solution_csv"])
    return out


def _close(got, want, rtol) -> bool:
    return all(abs(g - w) <= rtol * max(abs(w), 1.0) for g, w in zip(got, want))


def check(command: str, entry: str, observed: dict, reference: dict) -> str | None:
    """None when the op is correct, otherwise the reason it failed."""
    if observed["exit_code"] != reference["exit_code"]:
        return f"exit code {observed['exit_code']} != {reference['exit_code']}"
    if observed["exit_code"] != 0:
        return None
    if command == "classify":
        for key in ("verdict", "matched_rule"):
            if observed[key] != reference[key]:
                return f"{key} {observed[key]!r} != {reference[key]!r}"
    elif command == "sweep":
        if observed["csv"] != reference["csv"]:
            return "sweep CSV differs from the reference"
    elif command == "solve":
        if observed["converged"] is not True:
            return "solve did not converge"
        if not observed["residual_u"] <= RESIDUAL_U_BOUND:
            return f"residual_u {observed['residual_u']:.3g} > {RESIDUAL_U_BOUND:g}"
        for key in ("u", "v"):
            if not _close(observed[key], reference[key], SOLUTION_RTOL):
                return f"{key} at r={CHECK_RADII} off the reference"
            if entry.split(".")[0] in EXACT_SLOTS:
                exact = [1.0 + r * r for r in CHECK_RADII]
                if not _close(observed[key], exact, EXACT_RTOL):
                    return f"{key} at r={CHECK_RADII} off the exact 1 + r^2"
    return None
