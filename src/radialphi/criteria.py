"""Integral criteria for the asymptotic behaviour of radial solutions.

Three families of nondecreasing functionals of the truncation radius decide
between bounded and unbounded components:

* accumulation  A_i(t): running integral of the enveloped radial kernel of
  weight i alone; its limit is the relaxation constant that can replace the
  upper product split (finite accumulation means the coupling through that
  weight is uniformly absorbed).
* coupling  P_12(r) / P_21(r) in an upper and a lower variant: the nested
  integral that pushes one equation's weight through the other equation's
  accumulated response; upper variants bound iterates from above, lower
  variants force growth from below.
* growth budget  H_12(r) / H_21(r): integral of the reciprocal enveloped
  composite growth from the start value; every iterate u_m satisfies
  H_12(u_m(r)) <= k_bar_1 * P_upper_12(r), so H^-1 of the coupling is a
  pointwise ceiling.

Evaluation is prefix-sum based on one shared node array (uniform for desk
use, piecewise-uniform geometric for improper-limit probes, so the origin
stays finely resolved while probes reach radii in the tens of thousands).

Index conventions: the outer envelope of a coupling integral belongs to the
equation being bounded (psi_bar_1 for P_12, psi_bar_2 for P_21), matching
the inverse flux h1^-1 / h2^-1 appearing in the lower variants; the inner
accumulation always carries the index of the weight inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Nonlinearity, ProblemSpec
from .operators import h_inverse
from .quadrature import (LimitVerdict, ProbeSchedule, prefix_trapezoid,
                         radial_kernel_at, verdict_from_trace)

__all__ = [
    "CriteriaError",
    "CriteriaReport",
    "CriteriaEvaluator",
    "GrowthBudget",
    "accumulation",
    "coupling",
    "growth_budget",
    "growth_budget_inverse",
    "accumulation_limit",
    "effective_lower_envelope",
    "build_report",
    "probe_grid",
    "solution_bounds",
]


class CriteriaError(RuntimeError):
    """A criteria functional could not be evaluated."""


def effective_lower_envelope(nl: Nonlinearity):
    """Lower split (c_under, xi_under, auto) actually used for the lower
    coupling integrals.

    A scaling constant m >= 1 makes f(m*w) >= f(w) trivially true for any
    nondecreasing f, so the lower split then holds with constant 1 and
    xi = f itself, superseding family data.  Returns None when no lower
    split is available at all.
    """
    if nl.m_small is not None and nl.m_small >= 1.0:
        return 1.0, nl.f, True
    if nl.has_lower_split:
        return float(nl.c_under), nl.xi_under, False
    return None


def _finite_positive(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise CriteriaError(f"{what}: non-finite value")
    return arr


class CriteriaEvaluator:
    """Memoized prefix arrays for all criteria functionals on one node set.

    ``xs`` must be increasing and start at 0.  Values at an arbitrary radius
    inside the covered range come from linear interpolation of the prefix
    arrays.
    """

    def __init__(self, spec: ProblemSpec, xs: np.ndarray):
        self.spec = spec
        self.xs = np.asarray(xs, dtype=float)
        if self.xs[0] != 0.0:
            raise ValueError("criteria grid must start at 0")
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- primitive layers ---------------------------------------------------

    def weight(self, side: int) -> np.ndarray:
        w = self.spec.a1 if side == 1 else self.spec.a2
        return self._get(("w", side), lambda: w.sample(self.xs))

    def kernel(self, side: int) -> np.ndarray:
        return self._get(
            ("K", side),
            lambda: radial_kernel_at(self.weight(side), self.spec.N, self.xs))

    def accumulation_values(self, side: int, bound: str) -> np.ndarray:
        """A_i: prefix integral of k * psi(kernel of weight i)."""
        env = self.spec.env1 if side == 1 else self.spec.env2
        k, psi = ((env.k_bar, env.psi_bar) if bound == "bar"
                  else (env.k_under, env.psi_under))

        def build():
            vals = k * np.asarray(psi(self.kernel(side)), dtype=float)
            _finite_positive(vals, f"accumulation integrand (weight {side})")
            return prefix_trapezoid(vals, self.xs)
        # keyed on the envelope factors, not the bound: a derived envelope
        # has psi_under is psi_bar and k_under == k_bar, so both bounds
        # share one inverse and one array
        return self._get(("A", side, k, id(psi)), build)

    # -- coupling integrals -------------------------------------------------

    def _pair(self, pair: str):
        if pair == "12":
            return (self.spec.f1, self.spec.op1, self.spec.env1, 1, 2)
        if pair == "21":
            return (self.spec.f2, self.spec.op2, self.spec.env2, 2, 1)
        raise ValueError(f"pair must be '12' or '21', got {pair!r}")

    def upper_coupling_values(self, pair: str) -> np.ndarray | None:
        """Upper coupling: prefix of psi_bar_own(c_bar * K[a_own * xi_bar(1 + A_other)])."""
        def build():
            nl, _, env, own, other = self._pair(pair)
            if not nl.has_upper_split:
                return None
            inner = self.weight(own) * np.asarray(
                nl.xi_bar(1.0 + self.accumulation_values(other, "bar")), dtype=float)
            _finite_positive(inner, f"upper coupling inner weight ({pair})")
            kern = radial_kernel_at(inner, self.spec.N, self.xs)
            outer = np.asarray(env.psi_bar(nl.c_bar * kern), dtype=float)
            _finite_positive(outer, f"upper coupling integrand ({pair})")
            return prefix_trapezoid(outer, self.xs)
        return self._get(("Pbar", pair), build)

    def upper_coupling_relaxed_values(self, pair: str) -> np.ndarray:
        """Simplified upper coupling used with a finite accumulation limit:
        the inner response factor drops, leaving psi_bar_own(c * K[a_own])."""
        def build():
            nl, _, env, own, _other = self._pair(pair)
            c = float(nl.c_bar) if nl.has_upper_split else 1.0
            outer = np.asarray(env.psi_bar(c * self.kernel(own)), dtype=float)
            _finite_positive(outer, f"relaxed upper coupling integrand ({pair})")
            return prefix_trapezoid(outer, self.xs)
        return self._get(("Pbar_relaxed", pair), build)

    def lower_coupling_values(self, pair: str) -> np.ndarray | None:
        """Lower coupling: prefix of hinv_own(c_under * K[a_own * xi_under(1 + A_under_other)])."""
        def build():
            nl, op, _, own, other = self._pair(pair)
            low = effective_lower_envelope(nl)
            if low is None:
                return None
            c_under, xi_under, _auto = low
            inner = self.weight(own) * np.asarray(
                xi_under(1.0 + self.accumulation_values(other, "under")), dtype=float)
            _finite_positive(inner, f"lower coupling inner weight ({pair})")
            kern = radial_kernel_at(inner, self.spec.N, self.xs)
            outer = h_inverse(op, c_under * kern)
            _finite_positive(outer, f"lower coupling integrand ({pair})")
            return prefix_trapezoid(outer, self.xs)
        return self._get(("Punder", pair), build)

    def value_at(self, values: np.ndarray, r) -> float:
        r = float(r)
        if r > self.xs[-1] * (1 + 1e-12):
            raise CriteriaError(f"radius {r:g} outside the evaluated grid")
        return float(np.interp(r, self.xs, values))


# ---------------------------------------------------------------------------
# Growth budgets

_BUDGET_NODES_PER_DECADE = 1024
_BUDGET_VALUE_CAP = 1e18


class GrowthBudget:
    """H functional of one pair: integral from the start value of the
    reciprocal enveloped composite growth, with its numeric inverse.

    The node set extends on demand, by decades, both to evaluate H at large
    arguments and to invert it at large values.  Inversion beyond the cap
    (or beyond the limit of a convergent budget) returns +inf.
    """

    def __init__(self, spec: ProblemSpec, pair: str, relaxed: bool = False,
                 acc_limit: float | None = None):
        if pair == "12":
            nl_own, nl_other = spec.f1, spec.f2
            env_own, env_other = spec.env1, spec.env2
            anchor, start_other = spec.alpha, spec.beta
        elif pair == "21":
            nl_own, nl_other = spec.f2, spec.f1
            env_own, env_other = spec.env2, spec.env1
            anchor, start_other = spec.beta, spec.alpha
        else:
            raise ValueError(f"pair must be '12' or '21', got {pair!r}")
        self.pair = pair
        self.anchor = float(anchor)

        if relaxed:
            if acc_limit is None or acc_limit <= 0:
                raise ValueError("relaxed growth budget needs a positive accumulation limit")
            coupled = float(np.asarray(env_other.theta_bar(
                np.asarray(nl_other.f(anchor), dtype=float))))
            m_eff = max(1.0, start_other / coupled) * (1.0 + float(acc_limit))
            outer = nl_own.f
        else:
            if not nl_own.has_upper_split:
                raise CriteriaError(
                    f"growth budget {pair}: no upper envelope data and no relaxation")
            m_eff = float(nl_own.M_big)
            outer = nl_own.g

        def integrand(ts: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                inner = m_eff * np.asarray(env_other.theta_bar(
                    np.asarray(nl_other.f(ts), dtype=float)), dtype=float)
                den = np.asarray(env_own.theta_bar(
                    np.asarray(outer(inner), dtype=float)), dtype=float)
            bad = ~(np.isfinite(den) | np.isposinf(den)) | (den <= 0)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise CriteriaError(
                    f"growth budget {pair}: degenerate integrand at t={ts[k]:.6g}")
            with np.errstate(divide="ignore"):
                out = 1.0 / den
            return np.where(np.isposinf(den), 0.0, out)

        self._integrand = integrand
        self.ts = np.array([self.anchor])
        self.hs = np.array([0.0])
        self._extend_block()

    def _extend_block(self):
        t0 = self.ts[-1]
        block = t0 * np.logspace(0.0, 1.0, _BUDGET_NODES_PER_DECADE + 1)[1:]
        ts = np.concatenate(([t0], block))
        vals = self._integrand(ts)
        hs = self.hs[-1] + prefix_trapezoid(vals, ts)[1:]
        self.ts = np.concatenate((self.ts, block))
        self.hs = np.concatenate((self.hs, hs))

    def ensure_radius(self, r: float):
        while self.ts[-1] < r and self.ts[-1] < _BUDGET_VALUE_CAP:
            self._extend_block()

    def ensure_value(self, y: float):
        while self.hs[-1] < y and self.ts[-1] < _BUDGET_VALUE_CAP:
            self._extend_block()

    def value(self, r: float) -> float:
        """H(r); 0 at and below the anchor."""
        r = float(r)
        if r <= self.anchor:
            return 0.0
        self.ensure_radius(r)
        return float(np.interp(r, self.ts, self.hs))

    def inverse(self, y):
        """H^-1(y); +inf where y exceeds the reachable range."""
        arr = np.asarray(y, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        top = float(np.max(arr[np.isfinite(arr)], initial=0.0))
        self.ensure_value(top)
        out = np.interp(arr, self.hs, self.ts)
        out = np.where(arr > self.hs[-1], np.inf, out)
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Desk-level evaluation (uniform grid per call)

def _desk_evaluator(spec: ProblemSpec, r: float, nodes: int) -> CriteriaEvaluator:
    return CriteriaEvaluator(spec, np.linspace(0.0, float(r), nodes))


def accumulation(spec: ProblemSpec, side: int, bound: str, t: float,
                 nodes: int = 4097) -> float:
    """A_i(t) with bound 'bar' or 'under'."""
    ev = _desk_evaluator(spec, t, nodes)
    return float(ev.accumulation_values(side, bound)[-1])


def coupling(spec: ProblemSpec, pair: str, bound: str, r: float,
             nodes: int = 4097) -> float:
    """P_pair(r) with bound 'bar' or 'under'."""
    ev = _desk_evaluator(spec, r, nodes)
    vals = (ev.upper_coupling_values(pair) if bound == "bar"
            else ev.lower_coupling_values(pair))
    if vals is None:
        raise CriteriaError(f"coupling {pair}/{bound}: required envelope data missing")
    return float(vals[-1])


def growth_budget(spec: ProblemSpec, pair: str, r: float) -> float:
    return GrowthBudget(spec, pair).value(r)


def growth_budget_inverse(spec: ProblemSpec, pair: str, y: float) -> float:
    return float(GrowthBudget(spec, pair).inverse(y))


def accumulation_limit(spec: ProblemSpec, side: int,
                       schedule: ProbeSchedule = ProbeSchedule(),
                       tail_tol: float = 1e-6,
                       blowup_threshold: float = 1e8,
                       segment_nodes: int = 4096) -> LimitVerdict:
    """Limit verdict for A_i(t) as t grows (the relaxation constant)."""
    xs, idx = probe_grid(schedule, segment_nodes)
    ev = CriteriaEvaluator(spec, xs)
    vals = ev.accumulation_values(side, "bar")[idx]
    return verdict_from_trace(schedule.radii().tolist(), vals.tolist(),
                              tail_tol, blowup_threshold)


# ---------------------------------------------------------------------------
# Probe grid and report

def probe_grid(schedule: ProbeSchedule, segment_nodes: int = 4096):
    """Piecewise-uniform geometric node array covering [0, R_last] with
    ``segment_nodes`` panels per probe segment, plus the probe indices."""
    radii = schedule.radii()
    xs = [np.linspace(0.0, radii[0], segment_nodes + 1)]
    for k in range(1, len(radii)):
        xs.append(np.linspace(radii[k - 1], radii[k], segment_nodes + 1)[1:])
    nodes = np.concatenate(xs)
    idx = np.array([segment_nodes * (k + 1) for k in range(len(radii))])
    return nodes, idx


@dataclass(frozen=True)
class CriteriaReport:
    """All probe verdicts needed by the decision table.

    ``None`` entries mean the functional was unavailable (missing envelope
    data); failed evaluations surface as indeterminate verdicts with the
    failure message in the note.
    """

    a_anchor: float
    b_anchor: float
    acc_1: LimitVerdict
    acc_2: LimitVerdict
    upper_12: LimitVerdict | None
    upper_21: LimitVerdict | None
    lower_12: LimitVerdict | None
    lower_21: LimitVerdict | None
    budget_12: LimitVerdict | None
    budget_21: LimitVerdict | None
    upper_12_relaxed: LimitVerdict | None
    upper_21_relaxed: LimitVerdict | None
    budget_12_relaxed: LimitVerdict | None
    budget_21_relaxed: LimitVerdict | None
    lower_12_auto: bool = False
    lower_21_auto: bool = False

    _FIELDS = (
        "acc_1", "acc_2",
        "upper_12", "upper_21", "lower_12", "lower_21",
        "budget_12", "budget_21",
        "upper_12_relaxed", "upper_21_relaxed",
        "budget_12_relaxed", "budget_21_relaxed",
    )

    def to_dict(self) -> dict:
        out: dict = {"anchors": {"a": self.a_anchor, "b": self.b_anchor}}
        names = {
            "acc_1": "accumulation_1",
            "acc_2": "accumulation_2",
            "upper_12": "upper_coupling_12",
            "upper_21": "upper_coupling_21",
            "lower_12": "lower_coupling_12",
            "lower_21": "lower_coupling_21",
            "budget_12": "growth_budget_12",
            "budget_21": "growth_budget_21",
            "upper_12_relaxed": "upper_coupling_12_relaxed",
            "upper_21_relaxed": "upper_coupling_21_relaxed",
            "budget_12_relaxed": "growth_budget_12_relaxed",
            "budget_21_relaxed": "growth_budget_21_relaxed",
        }
        for attr in self._FIELDS:
            v = getattr(self, attr)
            out[names[attr]] = "unavailable" if v is None else v.to_dict()
        out["lower_12_auto"] = self.lower_12_auto
        out["lower_21_auto"] = self.lower_21_auto
        return out


def _guarded(builder, radii, tail_tol, blowup) -> LimitVerdict | None:
    """Run one functional builder; evaluation failures become indeterminate
    verdicts instead of aborting the remaining entries."""
    try:
        vals = builder()
    except (CriteriaError, RuntimeError, ValueError) as exc:
        return LimitVerdict("indeterminate", note=f"evaluation failed: {exc}")
    if vals is None:
        return None
    return verdict_from_trace(radii, [float(v) for v in vals], tail_tol, blowup)


def build_report(spec: ProblemSpec,
                 schedule: ProbeSchedule = ProbeSchedule(),
                 tail_tol: float = 1e-6,
                 blowup_threshold: float = 1e8,
                 segment_nodes: int = 4096) -> CriteriaReport:
    """Probe every criteria functional and assemble the report.

    Relaxed variants are evaluated only when the matching accumulation limit
    is finite and positive, which is when the decision table may use them.
    """
    xs, idx = probe_grid(schedule, segment_nodes)
    ev = CriteriaEvaluator(spec, xs)
    radii = schedule.radii().tolist()

    def probe(arrays_fn):
        def build():
            vals = arrays_fn()
            return None if vals is None else vals[idx]
        return _guarded(build, radii, tail_tol, blowup_threshold)

    acc_1 = probe(lambda: ev.accumulation_values(1, "bar"))
    acc_2 = probe(lambda: ev.accumulation_values(2, "bar"))

    def budget_probe(pair, relaxed=False, acc=None):
        def build():
            gb = GrowthBudget(spec, pair, relaxed=relaxed, acc_limit=acc)
            return np.array([gb.value(r) for r in radii])
        try:
            return _guarded(build, radii, tail_tol, blowup_threshold)
        except CriteriaError:
            return None

    low1 = effective_lower_envelope(spec.f1)
    low2 = effective_lower_envelope(spec.f2)

    relax_1 = acc_2.finite and (acc_2.value or 0.0) > 0.0
    relax_2 = acc_1.finite and (acc_1.value or 0.0) > 0.0

    return CriteriaReport(
        a_anchor=spec.alpha,
        b_anchor=spec.beta,
        acc_1=acc_1,
        acc_2=acc_2,
        upper_12=probe(lambda: ev.upper_coupling_values("12")),
        upper_21=probe(lambda: ev.upper_coupling_values("21")),
        lower_12=probe(lambda: ev.lower_coupling_values("12")),
        lower_21=probe(lambda: ev.lower_coupling_values("21")),
        budget_12=(budget_probe("12") if spec.f1.has_upper_split else None),
        budget_21=(budget_probe("21") if spec.f2.has_upper_split else None),
        upper_12_relaxed=(probe(lambda: ev.upper_coupling_relaxed_values("12"))
                          if relax_1 else None),
        upper_21_relaxed=(probe(lambda: ev.upper_coupling_relaxed_values("21"))
                          if relax_2 else None),
        budget_12_relaxed=(budget_probe("12", relaxed=True, acc=acc_2.value)
                           if relax_1 else None),
        budget_21_relaxed=(budget_probe("21", relaxed=True, acc=acc_1.value)
                           if relax_2 else None),
        lower_12_auto=bool(low1 and low1[2]),
        lower_21_auto=bool(low2 and low2[2]),
    )


# ---------------------------------------------------------------------------
# Pointwise solution bounds

def solution_bounds(spec: ProblemSpec, xs: np.ndarray) -> dict:
    """Pointwise ceilings/floors for solutions on the nodes ``xs``.

    u_upper = H_12^-1(k_bar_1 * P_upper_12(r)) and u_lower = alpha +
    P_lower_12(r); entries are None when the needed envelope data is
    missing.  These are the bounds every iterate (ceiling) and the converged
    solution (floor) must respect.
    """
    ev = CriteriaEvaluator(spec, xs)
    out: dict = {"u_upper": None, "v_upper": None, "u_lower": None, "v_lower": None}
    if spec.f1.has_upper_split:
        pb = ev.upper_coupling_values("12")
        out["u_upper"] = GrowthBudget(spec, "12").inverse(spec.env1.k_bar * pb)
    if spec.f2.has_upper_split:
        pb = ev.upper_coupling_values("21")
        out["v_upper"] = GrowthBudget(spec, "21").inverse(spec.env2.k_bar * pb)
    pl = ev.lower_coupling_values("12")
    if pl is not None:
        out["u_lower"] = spec.alpha + pl
    pl = ev.lower_coupling_values("21")
    if pl is not None:
        out["v_lower"] = spec.beta + pl
    return out
