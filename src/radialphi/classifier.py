"""Decision table mapping criteria verdicts to an asymptotic class.

The sufficient conditions form an ordered table; the first fully satisfied
rule wins and sharper conclusions are tried before the bare-existence
fallback.  Indeterminate probe verdicts poison any rule that reads them:
if a rule's remaining predicates do not already fail outright, the
classification is reported as indeterminate rather than guessed, because
first-match semantics cannot soundly skip a rule that might hold.

Relaxation: when the accumulation limit of the opposite weight is finite
and positive, the upper product split of that side is unnecessary; the
growth budget and upper coupling are then replaced by their relaxed
variants before the table is evaluated, and the upper-split hypothesis
counts as satisfied for that side.  A lower-split scaling constant >= 1
likewise auto-satisfies the lower hypothesis (with xi = f itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriteriaReport, GrowthBudget, effective_lower_envelope, solution_bounds
from .iteration import RadialSolution
from .model import PAIRS, HypothesisReport, ProblemSpec
from .operators import h_inverse
from .quadrature import LimitVerdict

__all__ = [
    "BOTH_LARGE",
    "BOTH_BOUNDED",
    "U_BOUNDED_V_LARGE",
    "U_LARGE_V_BOUNDED",
    "EXISTS_UNCLASSIFIED",
    "INDETERMINATE",
    "Classification",
    "ConsistencyReport",
    "classify",
    "cross_check",
]

BOTH_LARGE = "both_large"
BOTH_BOUNDED = "both_bounded"
U_BOUNDED_V_LARGE = "u_bounded_v_large"
U_LARGE_V_BOUNDED = "u_large_v_bounded"
EXISTS_UNCLASSIFIED = "exists_unclassified"
INDETERMINATE = "indeterminate"

# tri-state predicate values
_T, _F, _U = True, False, None


@dataclass(frozen=True)
class Classification:
    verdict: str
    matched_rule: str
    evidence: tuple
    bounds: dict | None = None
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "matched_rule": self.matched_rule,
            "evidence": [[name, state] for name, state in self.evidence],
            "bounds": self.bounds,
            "warnings": list(self.warnings),
        }


def _verdict_state(v: LimitVerdict | None, want: str):
    """Tri-state for 'this verdict is divergent/finite'."""
    if v is None:
        return _F
    if v.indeterminate:
        return _U
    return _T if v.kind == want else _F


def _fmt(state) -> str:
    return {_T: "true", _F: "false", _U: "indeterminate"}[state]


class _Predicates:
    """Named tri-state predicates over (spec, report, hypotheses).

    ``relaxed``, ``budget`` and ``upper`` are keyed by pair; ``budget`` and
    ``upper`` hold the relaxed variant of a pair whose upper split is
    relaxed.
    """

    def __init__(self, spec: ProblemSpec, report: CriteriaReport,
                 hyp: HypothesisReport):
        self.spec = spec
        self.report = report
        self.hyp = hyp
        v = report.verdicts
        self.relaxed = {pair: v[f"growth_budget_{pair}_relaxed"] is not None
                        for pair in PAIRS}
        suffix = {pair: "_relaxed" if self.relaxed[pair] else "" for pair in PAIRS}
        self.budget = {pair: v[f"growth_budget_{pair}{suffix[pair]}"] for pair in PAIRS}
        self.upper = {pair: v[f"upper_coupling_{pair}{suffix[pair]}"] for pair in PAIRS}

    def weights_ok(self):
        return _T if (self.hyp.ok("weight_1") and self.hyp.ok("weight_2")) else _F

    def monotone_ok(self):
        return _T if (self.hyp.ok("monotone_f1") and self.hyp.ok("monotone_f2")) else _F

    def upper_split(self, pair: str):
        """Upper split of the pair's own side."""
        own, other = self.spec.pair(pair)
        if self.relaxed[pair] or self.hyp.ok(f"upper_split_f{own.index}"):
            return _T
        # the relaxation might still apply if the accumulation probe had
        # resolved; an indeterminate accumulation keeps the question open
        acc = self.report.verdicts[f"accumulation_{other.index}"]
        return _U if acc.indeterminate else _F

    def lower_split(self, pair: str):
        """Lower split of the pair's own side."""
        own = self.spec.pair(pair)[0]
        low = effective_lower_envelope(own.nl)
        if low is None:
            return _F
        if low[2]:  # scaling constant >= 1: valid by construction
            return _T
        return _T if self.hyp.ok(f"lower_split_f{own.index}") else _F

    def budget_divergent(self, pair: str):
        return _verdict_state(self.budget[pair], "divergent")

    def upper_finite(self, pair: str):
        return _verdict_state(self.upper[pair], "finite")

    def lower_divergent(self, pair: str):
        return _verdict_state(self.report.verdicts[f"lower_coupling_{pair}"], "divergent")

    def upper_below_budget(self, pair: str):
        """k_bar * P_upper(oo) < H(oo), both finite."""
        upper, budget = self.upper[pair], self.budget[pair]
        uf = _verdict_state(upper, "finite")
        bf = _verdict_state(budget, "finite")
        if _F in (uf, bf):
            return _F
        if _U in (uf, bf):
            return _U
        k_bar = self.spec.pair(pair)[0].env.k_bar
        return _T if k_bar * upper.value < budget.value else _F


def _rules(p: _Predicates):
    base = [("weights", p.weights_ok()), ("monotone", p.monotone_ok())]
    splits = base + [("upper_split_1", p.upper_split("12")),
                     ("upper_split_2", p.upper_split("21"))]
    budgets_diverge = [("budget_12_divergent", p.budget_divergent("12")),
                       ("budget_21_divergent", p.budget_divergent("21"))]
    return [
        ("large_both", BOTH_LARGE, splits + budgets_diverge + [
            ("lower_split_1", p.lower_split("12")),
            ("lower_split_2", p.lower_split("21")),
            ("lower_12_divergent", p.lower_divergent("12")),
            ("lower_21_divergent", p.lower_divergent("21")),
        ]),
        ("bounded_both", BOTH_BOUNDED, splits + budgets_diverge + [
            ("upper_12_finite", p.upper_finite("12")),
            ("upper_21_finite", p.upper_finite("21")),
        ]),
        ("mixed_u_bounded", U_BOUNDED_V_LARGE, splits + budgets_diverge + [
            ("lower_split_2", p.lower_split("21")),
            ("upper_12_finite", p.upper_finite("12")),
            ("lower_21_divergent", p.lower_divergent("21")),
        ]),
        ("mixed_u_large", U_LARGE_V_BOUNDED, splits + budgets_diverge + [
            ("lower_split_1", p.lower_split("12")),
            ("lower_12_divergent", p.lower_divergent("12")),
            ("upper_21_finite", p.upper_finite("21")),
        ]),
        ("bounded_both_sharp", BOTH_BOUNDED, splits + [
            ("upper_12_below_budget", p.upper_below_budget("12")),
            ("upper_21_below_budget", p.upper_below_budget("21")),
        ]),
        ("mixed_u_large_sharp", U_LARGE_V_BOUNDED, splits + [
            ("lower_split_1", p.lower_split("12")),
            ("budget_12_divergent", p.budget_divergent("12")),
            ("lower_12_divergent", p.lower_divergent("12")),
            ("upper_21_below_budget", p.upper_below_budget("21")),
        ]),
        ("mixed_u_bounded_sharp", U_BOUNDED_V_LARGE, splits + [
            ("lower_split_2", p.lower_split("21")),
            ("budget_21_divergent", p.budget_divergent("21")),
            ("lower_21_divergent", p.lower_divergent("21")),
            ("upper_12_below_budget", p.upper_below_budget("12")),
        ]),
        ("exists_only", EXISTS_UNCLASSIFIED, splits + budgets_diverge),
    ]


def classify(spec: ProblemSpec, report: CriteriaReport,
             hyp: HypothesisReport) -> Classification:
    """Walk the decision table; first full match wins.

    A rule with no failing predicate but at least one indeterminate one
    halts the walk with an indeterminate classification naming the blocking
    predicates.  If every rule fails, the instance is outside the table and
    also reported indeterminate.
    """
    p = _Predicates(spec, report, hyp)
    warnings = []
    for pair in PAIRS:
        if p.relaxed[pair]:
            own, other = spec.pair(pair)
            warnings.append(f"upper split of side {own.index} relaxed by finite "
                            f"accumulation of weight {other.index}")

    table = _rules(p)
    for i, (rule, verdict, preds) in enumerate(table):
        states = [s for _, s in preds]
        if any(s is _F for s in states):
            continue
        if any(s is _U for s in states):
            blockers = [n for n, s in preds if s is _U]
            return Classification(
                verdict=INDETERMINATE,
                matched_rule=rule,
                evidence=tuple((n, _fmt(s)) for n, s in preds),
                warnings=tuple(warnings + [
                    f"rule '{rule}' blocked by indeterminate predicates: "
                    + ", ".join(blockers)]),
            )
        # full match
        for later_rule, later_verdict, later_preds in table[i + 1:]:
            if later_verdict != verdict and all(s is _T for _, s in later_preds):
                warnings.append(
                    f"rule '{later_rule}' also matches with verdict "
                    f"'{later_verdict}'; table order kept '{rule}'")
        bounds = _sharp_bounds(spec, p) if rule == "bounded_both_sharp" else None
        return Classification(
            verdict=verdict,
            matched_rule=rule,
            evidence=tuple((n, _fmt(s)) for n, s in preds),
            bounds=bounds,
            warnings=tuple(warnings),
        )
    return Classification(
        verdict=INDETERMINATE,
        matched_rule="none",
        evidence=(),
        warnings=tuple(warnings + ["no rule in the decision table applies"]),
    )


def _sharp_bounds(spec: ProblemSpec, p: _Predicates) -> dict:
    """Limit values of the sandwich attached to the sharp bounded rule."""
    out = {}
    for pair, name in zip(PAIRS, "uv"):
        own, other = spec.pair(pair)
        acc = p.report.verdicts[f"accumulation_{other.index}"]
        gb = GrowthBudget(spec, pair, relaxed=p.relaxed[pair],
                          acc_limit=acc.value if p.relaxed[pair] else None)
        out[f"{name}_upper_limit"] = float(gb.inverse(own.env.k_bar * p.upper[pair].value))
    for pair, name in zip(PAIRS, "uv"):
        low = p.report.verdicts[f"lower_coupling_{pair}"]
        out[f"{name}_lower_limit_growth"] = (low.value if low is not None and low.finite
                                             else None)
    return out


# ---------------------------------------------------------------------------
# Empirical cross-check

_LARGENESS = {
    BOTH_LARGE: (True, True),
    BOTH_BOUNDED: (False, False),
    U_BOUNDED_V_LARGE: (False, True),
    U_LARGE_V_BOUNDED: (True, False),
    EXISTS_UNCLASSIFIED: (None, None),
    INDETERMINATE: (None, None),
}
_GROWTH_MARGIN = 1e-3


@dataclass(frozen=True)
class ConsistencyReport:
    u_consistent: bool | None
    v_consistent: bool | None
    details: tuple

    def to_dict(self) -> dict:
        return {"u_consistent": self.u_consistent,
                "v_consistent": self.v_consistent,
                "details": list(self.details)}


def cross_check(spec: ProblemSpec, classification: Classification,
                solution: RadialSolution) -> ConsistencyReport:
    """Confront the verdict with a computed solution on its finite grid.

    A component called large must have grown by more than 1e-3 over the
    outer half of the grid; a component called bounded must show
    flattening increments and stay below its enveloped ceiling.
    """
    n = len(solution.grid)
    i_half, i_quarter = (n - 1) // 2, (n - 1) // 4
    expect_u, expect_v = _LARGENESS[classification.verdict]
    # on the solve's own layout, whose kernel weights the solve built
    bounds = solution_bounds(spec, solution.grid.panels)

    details = []

    def check(name, values, expect_large, ceiling):
        if expect_large is None:
            details.append(f"{name}: verdict carries no growth expectation")
            return None
        outer = float(values[-1] - values[i_half])
        inner = float(values[i_half] - values[i_quarter])
        if expect_large:
            ok = outer > _GROWTH_MARGIN
            details.append(f"{name}: outer-half growth {outer:.3g} vs margin "
                           f"{_GROWTH_MARGIN:g} -> {'ok' if ok else 'flat'}")
            return ok
        flattening = outer <= inner * 1.05 + 1e-12
        ok = flattening
        details.append(f"{name}: increments {inner:.3g} -> {outer:.3g} "
                       f"{'flattening' if flattening else 'still growing'}")
        if ceiling is not None:
            below = bool(np.all(values <= ceiling + 1e-6))
            ok = ok and below
            details.append(f"{name}: {'below' if below else 'EXCEEDS'} enveloped ceiling")
        return ok

    u_ok = check("u", solution.u, expect_u, bounds["u_upper"])
    v_ok = check("v", solution.v, expect_v, bounds["v_upper"])
    return ConsistencyReport(u_consistent=u_ok, v_consistent=v_ok,
                             details=tuple(details))


# abscissae at which converse_advisory compares the lower and upper data
_ADVISORY_SS = np.logspace(-3, 3, 13)
_ADVISORY_SS.flags.writeable = False


def converse_advisory(spec: ProblemSpec, report: CriteriaReport,
                      classification: Classification) -> str | None:
    """Necessary-condition advisory for large solutions.

    When the lower and upper envelope data coincide (xi_under == xi_bar
    sampled, psi_bar == hinv sampled, k_bar == 1), a large pair forces the
    upper couplings to diverge; report an inconsistency if they did not.
    Advisory only, never a classification input.
    """
    if classification.verdict != BOTH_LARGE:
        return None
    ss = _ADVISORY_SS
    for side in spec.sides:
        nl, env = side.nl, side.env
        if not (nl.has_upper_split and nl.has_lower_split):
            return None
        if env.k_bar != 1.0:
            return None
        if not np.allclose(np.asarray(nl.xi_bar(ss), dtype=float),
                           np.asarray(nl.xi_under(ss), dtype=float),
                           rtol=1e-9, atol=1e-12):
            return None
        if not np.allclose(np.asarray(env.psi_bar(ss), dtype=float),
                           h_inverse(side.op, ss), rtol=1e-9, atol=1e-12):
            return None
    for pair in PAIRS:
        name = f"upper_coupling_{pair}"
        v = report.verdicts[name]
        if v is not None and v.finite:
            return (f"inconsistency: large verdict requires {name} to diverge, "
                    f"but its probe reported a finite limit")
    return "converse check passed: upper couplings diverge as required for a large pair"
