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
Every probe consumer takes one ``ProbeSchedule`` with all probe settings.
An evaluator computes the grid's half panel widths once and integrates each
prefix inside its output array from them.  The arrays an evaluator keeps
(weights, kernels, accumulations, coupling prefixes) are read-only, because
one may serve several consumers: both sides share one kernel when their
weights are equal.

Index conventions: the outer envelope of a coupling integral belongs to the
equation being bounded (psi_bar_1 for P_12, psi_bar_2 for P_21), matching
the inverse flux h1^-1 / h2^-1 appearing in the lower variants; the inner
accumulation always carries the index of the weight inside it.  Every
pair-indexed functional reads its own and other side from
``ProblemSpec.pair``.

``build_report`` collects the probe verdicts in one ordered mapping keyed
by the report's JSON names (``accumulation_1`` ... ``growth_budget_21_relaxed``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._memo import BoundedCache
from .model import PAIRS, Nonlinearity, ProblemSpec
from .operators import h_inverse
from .quadrature import (LimitVerdict, NumericsError, ProbeSchedule,
                         half_widths, prefix_trapezoid, radial_kernel_at)

__all__ = [
    "CriteriaError",
    "CriteriaReport",
    "CriteriaEvaluator",
    "GrowthBudget",
    "accumulation",
    "coupling",
    "growth_budget",
    "accumulation_limit",
    "effective_lower_envelope",
    "build_report",
    "probe_grid",
    "solution_bounds",
]


class CriteriaError(NumericsError):
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

    ``xs`` must be increasing and start at 0.  Every array it returns is
    read-only.
    """

    def __init__(self, spec: ProblemSpec, xs: np.ndarray):
        self.spec = spec
        self.xs = np.asarray(xs, dtype=float)
        if self.xs[0] != 0.0:
            raise ValueError("criteria grid must start at 0")
        self._half = half_widths(self.xs)
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            arr = builder()
            if arr is not None and arr.flags.writeable:
                # a view, so an array the builder shares stays writable
                arr = arr.view()
                arr.flags.writeable = False
            self._cache[key] = arr
        return self._cache[key]

    def _prefix(self, values: np.ndarray) -> np.ndarray:
        return prefix_trapezoid(values, self.xs, self._half)

    # -- primitive layers ---------------------------------------------------

    def weight(self, side: int) -> np.ndarray:
        """a_i at the nodes; a side whose weight function equals the other
        side's takes the other side's array once that one is sampled."""
        w = self.spec.sides[side - 1].weight

        def build():
            other = self.spec.sides[2 - side].weight
            if other.fn == w.fn and ("w", 3 - side) in self._cache:
                return self._cache[("w", 3 - side)]
            return w.sample(self.xs)
        return self._get(("w", side), build)

    def kernel(self, side: int) -> np.ndarray:
        """K[a_i] at the nodes; side 2 returns side 1's array when side 1's
        weight is already sampled and equal to side 2's on the nodes."""
        def build():
            w = self.weight(side)
            held = self._cache.get(("w", 1))
            if side == 2 and held is not None and np.array_equal(held, w):
                return self.kernel(1)
            return radial_kernel_at(w, self.spec.N, self.xs)
        return self._get(("K", side), build)

    def accumulation_values(self, side: int, bound: str) -> np.ndarray:
        """A_i: prefix integral of k * psi(kernel of weight i)."""
        env = self.spec.sides[side - 1].env
        k, psi = ((env.k_bar, env.psi_bar) if bound == "bar"
                  else (env.k_under, env.psi_under))

        def build():
            vals = k * np.asarray(psi(self.kernel(side)), dtype=float)
            _finite_positive(vals, f"accumulation integrand (weight {side})")
            return self._prefix(vals)
        # keyed on the envelope factors, not the bound: a derived envelope
        # has psi_under is psi_bar and k_under == k_bar, so both bounds
        # share one inverse and one array
        return self._get(("A", side, k, id(psi)), build)

    # -- coupling integrals -------------------------------------------------

    def upper_coupling_values(self, pair: str) -> np.ndarray | None:
        """Upper coupling: prefix of psi_bar_own(c_bar * K[a_own * xi_bar(1 + A_other)])."""
        own, other = self.spec.pair(pair)

        def build():
            nl = own.nl
            if not nl.has_upper_split:
                return None
            inner = self.weight(own.index) * np.asarray(
                nl.xi_bar(1.0 + self.accumulation_values(other.index, "bar")), dtype=float)
            _finite_positive(inner, f"upper coupling inner weight ({pair})")
            kern = radial_kernel_at(inner, self.spec.N, self.xs)
            outer = np.asarray(own.env.psi_bar(nl.c_bar * kern), dtype=float)
            _finite_positive(outer, f"upper coupling integrand ({pair})")
            return self._prefix(outer)
        return self._get(("Pbar", pair), build)

    def upper_coupling_relaxed_values(self, pair: str) -> np.ndarray:
        """Simplified upper coupling used with a finite accumulation limit:
        the inner response factor drops, leaving psi_bar_own(c * K[a_own])."""
        own = self.spec.pair(pair)[0]

        def build():
            nl = own.nl
            c = float(nl.c_bar) if nl.has_upper_split else 1.0
            outer = np.asarray(own.env.psi_bar(c * self.kernel(own.index)), dtype=float)
            _finite_positive(outer, f"relaxed upper coupling integrand ({pair})")
            return self._prefix(outer)
        return self._get(("Pbar_relaxed", pair), build)

    def lower_coupling_values(self, pair: str) -> np.ndarray | None:
        """Lower coupling: prefix of hinv_own(c_under * K[a_own * xi_under(1 + A_under_other)])."""
        own, other = self.spec.pair(pair)

        def build():
            low = effective_lower_envelope(own.nl)
            if low is None:
                return None
            c_under, xi_under, _auto = low
            inner = self.weight(own.index) * np.asarray(
                xi_under(1.0 + self.accumulation_values(other.index, "under")), dtype=float)
            _finite_positive(inner, f"lower coupling inner weight ({pair})")
            kern = radial_kernel_at(inner, self.spec.N, self.xs)
            outer = h_inverse(own.op, c_under * kern)
            _finite_positive(outer, f"lower coupling integrand ({pair})")
            return self._prefix(outer)
        return self._get(("Punder", pair), build)


# ---------------------------------------------------------------------------
# Growth budgets

_BUDGET_NODES_PER_DECADE = 1024
_BUDGET_VALUE_CAP = 1e18


def _budget_inputs(spec: ProblemSpec, pair: str, relaxed: bool,
                   acc_limit: float | None) -> tuple:
    """Every input of a growth budget: (pair, anchor, scaling m_eff, outer
    growth, other f, other theta_bar, own theta_bar).  Budgets with equal
    inputs are equal; functions compare by identity, expressions by value."""
    own, other = spec.pair(pair)
    if relaxed:
        if acc_limit is None or acc_limit <= 0:
            raise ValueError("relaxed growth budget needs a positive accumulation limit")
        coupled = float(np.asarray(other.env.theta_bar(
            np.asarray(other.nl.f(own.start), dtype=float))))
        m_eff = max(1.0, other.start / coupled) * (1.0 + float(acc_limit))
        outer = own.nl.f
    else:
        if not own.nl.has_upper_split:
            raise CriteriaError(
                f"growth budget {pair}: no upper envelope data and no relaxation")
        m_eff = float(own.nl.M_big)
        outer = own.nl.g
    return (pair, float(own.start), m_eff, outer, other.nl.f,
            other.env.theta_bar, own.env.theta_bar)


class GrowthBudget:
    """H functional of one pair: integral from the start value of the
    reciprocal enveloped composite growth, with its numeric inverse.

    The node set extends on demand, by decades, both to evaluate H at large
    arguments and to invert it at large values.  Inversion beyond the cap
    (or beyond the limit of a convergent budget) returns +inf.
    """

    def __init__(self, spec: ProblemSpec, pair: str, relaxed: bool = False,
                 acc_limit: float | None = None):
        (pair, self.anchor, m_eff, outer, f_other, theta_other,
         theta_own) = _budget_inputs(spec, pair, relaxed, acc_limit)
        self.pair = pair

        def integrand(ts: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                inner = m_eff * np.asarray(theta_other(
                    np.asarray(f_other(ts), dtype=float)), dtype=float)
                den = np.asarray(theta_own(
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


# a report probes up to four budgets: two plain, two relaxed
_BUDGETS = BoundedCache(8)


def _budget_probes(spec: ProblemSpec, pair: str, radii: list, relaxed: bool = False,
                   acc_limit: float | None = None) -> np.ndarray:
    """Growth-budget values at probe radii, read-only and kept by the
    budget's inputs and the radii.  A weight sweep leaves every input of
    the plain budgets as it is: config assembly hands each point the same
    operator envelopes and nonlinearities, so the points share these values."""
    def build():
        gb = GrowthBudget(spec, pair, relaxed=relaxed, acc_limit=acc_limit)
        values = np.array([gb.value(r) for r in radii])
        values.flags.writeable = False
        return values

    key = (_budget_inputs(spec, pair, relaxed, acc_limit), tuple(radii))
    return _BUDGETS.get(key, build)


# ---------------------------------------------------------------------------
# Desk-level evaluation (uniform grid per call)

def _desk_evaluator(spec: ProblemSpec, r: float) -> CriteriaEvaluator:
    # owned and read-only, so its kernel plan holds it weakly and is
    # released with the evaluator instead of crowding out the probe plans
    xs = np.linspace(0.0, float(r), 4097).copy()
    xs.flags.writeable = False
    return CriteriaEvaluator(spec, xs)


def accumulation(spec: ProblemSpec, side: int, bound: str, t: float) -> float:
    """A_i(t) with bound 'bar' or 'under'."""
    ev = _desk_evaluator(spec, t)
    return float(ev.accumulation_values(side, bound)[-1])


def coupling(spec: ProblemSpec, pair: str, bound: str, r: float) -> float:
    """P_pair(r) with bound 'bar' or 'under'."""
    ev = _desk_evaluator(spec, r)
    vals = (ev.upper_coupling_values(pair) if bound == "bar"
            else ev.lower_coupling_values(pair))
    if vals is None:
        raise CriteriaError(f"coupling {pair}/{bound}: required envelope data missing")
    return float(vals[-1])


def growth_budget(spec: ProblemSpec, pair: str, r: float) -> float:
    return GrowthBudget(spec, pair).value(r)


def accumulation_limit(spec: ProblemSpec, side: int,
                       schedule: ProbeSchedule = ProbeSchedule()) -> LimitVerdict:
    """Limit verdict for A_i(t) as t grows (the relaxation constant)."""
    ev, idx = _probe_evaluator(spec, schedule)
    return schedule.verdict(ev.accumulation_values(side, "bar")[idx])


# ---------------------------------------------------------------------------
# Probe grid and report

def probe_grid(schedule: ProbeSchedule):
    """Piecewise-uniform geometric node array covering [0, R_last] with
    ``segment_nodes`` panels per probe segment, plus the probe indices.

    Both arrays are read-only and shared: one pair per probe geometry."""
    return _probe_grid(tuple(schedule.radii().tolist()), schedule.segment_nodes)


@functools.lru_cache(maxsize=4)
def _probe_grid(radii: tuple, segment_nodes: int):
    """Nodes and probe indices of one probe geometry."""
    xs = [np.linspace(0.0, radii[0], segment_nodes + 1)]
    for k in range(1, len(radii)):
        xs.append(np.linspace(radii[k - 1], radii[k], segment_nodes + 1)[1:])
    nodes = np.concatenate(xs)
    idx = segment_nodes * np.arange(1, len(radii) + 1)
    nodes.flags.writeable = False
    idx.flags.writeable = False
    return nodes, idx


def _probe_evaluator(spec: ProblemSpec, schedule: ProbeSchedule):
    """An evaluator on the probe grid and the probe indices.  The grid
    comes through ``probe_grid``, where the benchmark counts probe nodes."""
    xs, idx = probe_grid(schedule)
    return CriteriaEvaluator(spec, xs), idx


@dataclass(frozen=True)
class CriteriaReport:
    """All probe verdicts needed by the decision table.

    ``verdicts`` maps each functional's JSON name to its verdict, in the
    order of ``_FIELDS``; reading a name as an attribute
    (``report.upper_coupling_12``) returns the same entry.  ``None`` entries
    mean the functional was unavailable (missing envelope data, or a relaxed
    variant whose accumulation limit is not finite and positive); failed
    evaluations surface as indeterminate verdicts with the failure message
    in the note.  ``lower_auto`` maps each pair to whether its lower split
    holds by construction (scaling constant m >= 1).
    """

    a_anchor: float
    b_anchor: float
    verdicts: dict
    lower_auto: dict

    _FIELDS = (
        "accumulation_1", "accumulation_2",
        "upper_coupling_12", "upper_coupling_21",
        "lower_coupling_12", "lower_coupling_21",
        "growth_budget_12", "growth_budget_21",
        "upper_coupling_12_relaxed", "upper_coupling_21_relaxed",
        "growth_budget_12_relaxed", "growth_budget_21_relaxed",
    )

    def __getattr__(self, name):
        try:
            return self.__dict__["verdicts"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self) -> dict:
        out: dict = {"anchors": {"a": self.a_anchor, "b": self.b_anchor}}
        for name, v in self.verdicts.items():
            out[name] = "unavailable" if v is None else v.to_dict()
        for pair, auto in self.lower_auto.items():
            out[f"lower_{pair}_auto"] = auto
        return out


def _guarded(builder, schedule: ProbeSchedule) -> LimitVerdict | None:
    """Run one functional builder; numeric and input failures become
    indeterminate verdicts instead of aborting the remaining entries, while
    any other error (a programming error) surfaces."""
    try:
        vals = builder()
    except (NumericsError, ValueError) as exc:
        return LimitVerdict("indeterminate", note=f"evaluation failed: {exc}")
    if vals is None:
        return None
    return schedule.verdict(vals)


def build_report(spec: ProblemSpec,
                 schedule: ProbeSchedule = ProbeSchedule()) -> CriteriaReport:
    """Probe every criteria functional and assemble the report.

    Relaxed variants are evaluated only when the matching accumulation limit
    is finite and positive, which is when the decision table may use them.
    """
    ev, idx = _probe_evaluator(spec, schedule)
    radii = schedule.radii().tolist()

    def probe(values_fn, *args):
        def build():
            vals = values_fn(*args)
            return None if vals is None else vals[idx]
        return _guarded(build, schedule)

    def budget_probe(pair, relaxed=False, acc_limit=None):
        return _guarded(lambda: _budget_probes(spec, pair, radii, relaxed, acc_limit),
                        schedule)

    verdicts: dict = {}
    for side in spec.sides:
        verdicts[f"accumulation_{side.index}"] = probe(
            ev.accumulation_values, side.index, "bar")
    for pair in PAIRS:
        verdicts[f"upper_coupling_{pair}"] = probe(ev.upper_coupling_values, pair)
    for pair in PAIRS:
        verdicts[f"lower_coupling_{pair}"] = probe(ev.lower_coupling_values, pair)
    for pair in PAIRS:
        verdicts[f"growth_budget_{pair}"] = (
            budget_probe(pair) if spec.pair(pair)[0].nl.has_upper_split else None)

    # the accumulation limit of the other weight relaxes a pair's upper split
    relax_limit = {}
    for pair in PAIRS:
        acc = verdicts[f"accumulation_{spec.pair(pair)[1].index}"]
        relax_limit[pair] = acc.value if acc.finite and acc.value > 0.0 else None
    for pair in PAIRS:
        verdicts[f"upper_coupling_{pair}_relaxed"] = (
            probe(ev.upper_coupling_relaxed_values, pair) if relax_limit[pair] else None)
    for pair in PAIRS:
        verdicts[f"growth_budget_{pair}_relaxed"] = (
            budget_probe(pair, relaxed=True, acc_limit=relax_limit[pair])
            if relax_limit[pair] else None)

    lows = {pair: effective_lower_envelope(spec.pair(pair)[0].nl) for pair in PAIRS}
    return CriteriaReport(
        a_anchor=spec.alpha, b_anchor=spec.beta, verdicts=verdicts,
        lower_auto={pair: bool(low and low[2]) for pair, low in lows.items()})


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
    for pair, name in zip(PAIRS, "uv"):
        own = spec.pair(pair)[0]
        if own.nl.has_upper_split:
            pb = ev.upper_coupling_values(pair)
            out[f"{name}_upper"] = GrowthBudget(spec, pair).inverse(own.env.k_bar * pb)
        pl = ev.lower_coupling_values(pair)
        if pl is not None:
            out[f"{name}_lower"] = own.start + pl
    return out
