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

Evaluation is prefix-sum based on one layout, which the caller holds and
hands to ``CriteriaEvaluator``: whoever owns the nodes decides how they
are integrated.  The probes run on the Chebyshev–Lobatto panels
(``quadrature.PanelLayout``) of ``probe_grid``, over graded segments: 30
halving segments grade the head below the first radius, where the
enveloped kernel behaves like a fractional power of t, and one segment per
later radius reaches radii in the tens of thousands; on smooth integrands
their values are exact to roundoff.  ``solution_bounds`` runs on the
trapezoid rules of a solve grid's ``quadrature.LinearPanels``, so the
bounds reuse the kernel weights the solve built.  Every probe consumer
takes one ``ProbeSchedule`` with all probe settings.
The arrays an evaluator keeps (weights, kernels, accumulations, coupling
prefixes) are read-only, because one may serve several consumers: both
sides share one kernel when their weights are equal.  An evaluator of
problems that differ only in their weights gives each array a leading axis
of one row per problem, so a weight sweep's points run as one batch.

Index conventions: the outer envelope of a coupling integral belongs to the
equation being bounded (psi_bar_1 for P_12, psi_bar_2 for P_21), matching
the inverse flux h1^-1 / h2^-1 appearing in the lower variants; the inner
accumulation always carries the index of the weight inside it.  Every
pair-indexed functional reads its own and other side from
``ProblemSpec.pair``.

``build_reports`` probes such a batch and ``build_report`` a batch of one;
a report holds the verdicts in one ordered mapping keyed by the JSON names
(``accumulation_1`` ... ``growth_budget_21_relaxed``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._memo import BoundedCache
from .model import PAIRS, Nonlinearity, ProblemSpec
from .operators import h_inverse
from .quadrature import (LimitVerdict, LinearPanels, NumericsError, PanelLayout,
                         ProbeSchedule, prefix_trapezoid, radial_kernel_at)

__all__ = [
    "CriteriaError",
    "CriteriaReport",
    "CriteriaEvaluator",
    "GrowthBudget",
    "effective_lower_envelope",
    "build_report",
    "build_reports",
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
    if not np.isfinite(arr).all():
        raise CriteriaError(f"{what}: non-finite value")
    return arr


def _flat(fn, arr: np.ndarray) -> np.ndarray:
    """``fn`` of ``arr``, called once on its values as 1-d samples."""
    return np.asarray(fn(arr.ravel()), dtype=float).reshape(arr.shape)


class CriteriaEvaluator:
    """Memoized prefix arrays for all criteria functionals on one layout.

    ``spec`` is a problem, or problems that differ only in their weights,
    one row each of a leading axis of every array.  Kernels and prefixes
    run on ``panels``, whose nodes ``xs`` must start at 0.  Every array it
    returns is read-only.
    """

    def __init__(self, spec: ProblemSpec | list, panels: LinearPanels | PanelLayout):
        single = isinstance(spec, ProblemSpec)
        self.specs = (spec,) if single else tuple(spec)
        self.spec = self.specs[0]
        self._rows = (lambda rows: rows[0]) if single else np.array
        self.panels = panels
        self.xs = panels.nodes
        if self.xs[0] != 0.0:
            raise ValueError("criteria grid must start at 0")
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
        return prefix_trapezoid(values, self.xs, panels=self.panels)

    def _kernel(self, values: np.ndarray) -> np.ndarray:
        return radial_kernel_at(values, self.spec.N, self.xs, panels=self.panels)

    # -- primitive layers ---------------------------------------------------

    def weight(self, side: int) -> np.ndarray:
        """a_i at the nodes; a side whose weight functions equal the other
        side's takes the other side's array once that one is sampled."""
        def build():
            if (("w", 3 - side) in self._cache
                    and all(s.sides[0].weight.fn == s.sides[1].weight.fn for s in self.specs)):
                return self._cache[("w", 3 - side)]
            return self._rows([s.sides[side - 1].weight.sample(self.xs) for s in self.specs])
        return self._get(("w", side), build)

    def kernel(self, side: int) -> np.ndarray:
        """K[a_i] at the nodes; side 2 returns side 1's array when side 1's
        weight is already sampled and equal to side 2's on the nodes."""
        def build():
            w = self.weight(side)
            held = self._cache.get(("w", 1))
            if side == 2 and held is not None and np.array_equal(held, w):
                return self.kernel(1)
            return self._kernel(w)
        return self._get(("K", side), build)

    def accumulation_values(self, side: int, bound: str) -> np.ndarray:
        """A_i: prefix integral of k * psi(kernel of weight i)."""
        env = self.spec.sides[side - 1].env
        k, psi = ((env.k_bar, env.psi_bar) if bound == "bar"
                  else (env.k_under, env.psi_under))

        def build():
            vals = k * _flat(psi, self.kernel(side))
            _finite_positive(vals, f"accumulation integrand (weight {side})")
            return self._prefix(vals)
        # keyed on the envelope factors, not the bound: a derived envelope
        # has psi_under is psi_bar and k_under == k_bar, so both bounds
        # share one inverse and one array
        return self._get(("A", side, k, id(psi)), build)

    # -- coupling integrals -------------------------------------------------

    def _coupling(self, pair: str, name: str, bound: str, split, outer) -> np.ndarray | None:
        """Prefix of outer(c * K[a_own * xi(1 + A_other)]) from the split
        (c, xi) of the equation being bounded and the ``bound``
        accumulation of the other; None without a split.  Failures name the
        ``name`` coupling."""
        own, other = self.spec.pair(pair)

        def build():
            if split is None:
                return None
            c, xi = split
            inner = self.weight(own.index) * _flat(
                xi, 1.0 + self.accumulation_values(other.index, bound))
            _finite_positive(inner, f"{name} coupling inner weight ({pair})")
            vals = _flat(outer, c * self._kernel(inner))
            _finite_positive(vals, f"{name} coupling integrand ({pair})")
            return self._prefix(vals)
        return self._get((name, pair), build)

    def upper_coupling_values(self, pair: str) -> np.ndarray | None:
        """Upper coupling: prefix of psi_bar_own(c_bar * K[a_own * xi_bar(1 + A_other)])."""
        own = self.spec.pair(pair)[0]
        nl = own.nl
        split = (nl.c_bar, nl.xi_bar) if nl.has_upper_split else None
        return self._coupling(pair, "upper", "bar", split, own.env.psi_bar)

    def upper_coupling_relaxed_values(self, pair: str) -> np.ndarray:
        """Simplified upper coupling used with a finite accumulation limit:
        the inner response factor drops, leaving psi_bar_own(c * K[a_own])."""
        own = self.spec.pair(pair)[0]

        def build():
            nl = own.nl
            c = float(nl.c_bar) if nl.has_upper_split else 1.0
            outer = _flat(own.env.psi_bar, c * self.kernel(own.index))
            _finite_positive(outer, f"relaxed upper coupling integrand ({pair})")
            return self._prefix(outer)
        return self._get(("Pbar_relaxed", pair), build)

    def lower_coupling_values(self, pair: str) -> np.ndarray | None:
        """Lower coupling: prefix of hinv_own(c_under * K[a_own * xi_under(1 + A_under_other)])."""
        own = self.spec.pair(pair)[0]
        low = effective_lower_envelope(own.nl)
        return self._coupling(pair, "lower", "under", None if low is None else low[:2],
                              lambda s: h_inverse(own.op, s))


# ---------------------------------------------------------------------------
# Growth budgets

_BUDGET_NODES_PER_DECADE = 1024
_BUDGET_VALUE_CAP = 1e18
# one block of budget nodes per decade, as multiples of the block's start
_BUDGET_BLOCK = np.logspace(0.0, 1.0, _BUDGET_NODES_PER_DECADE + 1)[1:]
_BUDGET_BLOCK.flags.writeable = False
# the factor from a decade's start to its last node
_BUDGET_DECADE = float(_BUDGET_BLOCK[-1])


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

        def denominator(ts: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                inner = m_eff * np.asarray(theta_other(
                    np.asarray(f_other(ts), dtype=float)), dtype=float)
                return np.asarray(theta_own(
                    np.asarray(outer(inner), dtype=float)), dtype=float)

        self._denominator = denominator
        self.ts = np.array([self.anchor])
        self.hs = np.array([0.0])
        self._extend(1)

    def _extend(self, decades: int):
        """Append ``decades`` decades of trapezoid nodes in one integrand
        call.  Each decade's trapezoids are summed along its own row, then
        the decades' carries are added in order, so every sum, and the
        first failure, is that of one decade at a time."""
        starts = [float(self.ts[-1])]
        for _ in range(decades - 1):
            starts.append(starts[-1] * _BUDGET_DECADE)
        # nodes past the float range are inf, which ``_fail`` reports
        with np.errstate(over="ignore"):
            ts = np.concatenate((self.ts[-1:], np.multiply.outer(starts, _BUDGET_BLOCK).ravel()))
        den = self._denominator(ts)
        bad = ~(np.isfinite(den) | np.isposinf(den)) | (den <= 0)
        with np.errstate(divide="ignore"):
            vals = np.where(np.isposinf(den), 0.0, 1.0 / den)
        if bad.any() or not (np.isfinite(vals).all() and np.isfinite(ts).all()
                             and (ts[1:] > ts[:-1]).all()):
            self._fail(ts, bad, vals)
        half = np.diff(ts)
        half *= 0.5
        sums = np.add(vals[1:], vals[:-1])
        sums *= half
        rows = sums.reshape(decades, _BUDGET_NODES_PER_DECADE)
        rows.cumsum(axis=1, out=rows)
        carry = self.hs[-1]
        for row in rows:
            row += carry
            carry = row[-1]
        self.ts = np.concatenate((self.ts, ts[1:]))
        self.hs = np.concatenate((self.hs, sums))

    def _fail(self, ts: np.ndarray, bad: np.ndarray, vals: np.ndarray):
        """Raise the error of the first decade that fails, as that decade
        alone would: a degenerate integrand, then a non-finite value, then
        nodes that are not finite and strictly increasing."""
        width = _BUDGET_NODES_PER_DECADE
        for top in range(0, ts.size - 1, width):
            decade = slice(top, top + width + 1)
            if bad[decade].any():
                k = top + int(np.argmax(bad[decade]))
                raise CriteriaError(
                    f"growth budget {self.pair}: degenerate integrand at t={ts[k]:.6g}")
            prefix_trapezoid(vals[decade], ts[decade])

    def ensure_radius(self, r: float):
        # every decade that takes the last node to r, or past the cap
        top, decades = float(self.ts[-1]), 0
        while top < r and top < _BUDGET_VALUE_CAP:
            top *= _BUDGET_DECADE
            decades += 1
        if decades:
            self._extend(decades)

    def ensure_value(self, y: float):
        while self.hs[-1] < y and self.ts[-1] < _BUDGET_VALUE_CAP:
            self._extend(1)

    def value(self, r):
        """H(r), 0 at and below the anchor; a float for a scalar ``r``, an
        array for an array of radii."""
        arr = np.asarray(r, dtype=float)
        top = float(np.max(arr, initial=self.anchor, where=arr > self.anchor))
        if top > self.anchor:
            self.ensure_radius(top)
        out = np.where(arr <= self.anchor, 0.0, np.interp(arr, self.ts, self.hs))
        return float(out) if arr.ndim == 0 else out

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
        values = gb.value(radii)
        values.flags.writeable = False
        return values

    key = (_budget_inputs(spec, pair, relaxed, acc_limit), tuple(radii))
    return _BUDGETS.get(key, build)


# ---------------------------------------------------------------------------
# Probe grid and report

# halvings of the first probe radius that grade the head of the probe grid
_HEAD_HALVINGS = 30


def _graded_edges(radii: list) -> list:
    """0, then radii[0] / 2**k for k = _HEAD_HALVINGS .. 1, then the radii."""
    head = radii[0]
    return [0.0, *(head / 2.0 ** k for k in range(_HEAD_HALVINGS, 0, -1)), *radii]


def probe_grid(schedule: ProbeSchedule):
    """Probe node array covering [0, R_last], the probe indices, and the
    Chebyshev–Lobatto panel layout of the nodes.

    Its head is graded: [0, r0 / 2**30] is one segment, then 30 halving
    segments reach r0, where psi of the kernel behaves like a fractional
    power of t.  One segment follows per probe radius after r0.  Every
    segment adds ``segment_nodes`` nodes (one panel of segment_nodes + 1
    Lobatto points), and the nodes at the probe indices are the
    schedule's radii.

    The arrays are read-only and all three are shared: one grid per probe
    geometry, built when it is first asked for."""
    return _probe_grid(tuple(schedule.radii().tolist()), schedule.segment_nodes)


@functools.lru_cache(maxsize=4)
def _probe_grid(radii: tuple, segment_nodes: int):
    """Nodes, probe indices and panel layout of one probe geometry."""
    edges = _graded_edges(list(radii))
    layout = PanelLayout(edges, segment_nodes)
    idx = segment_nodes * np.arange(_HEAD_HALVINGS + 1, len(edges))
    idx.flags.writeable = False
    return layout.nodes, idx, layout


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


def _guarded(schedule: ProbeSchedule, builder, *args) -> LimitVerdict | None:
    """Run one functional builder on ``args``; numeric and input failures
    become indeterminate verdicts instead of aborting the remaining
    entries, while any other error (a programming error) surfaces."""
    try:
        vals = builder(*args)
    except (NumericsError, ValueError) as exc:
        return LimitVerdict("indeterminate", note=f"evaluation failed: {exc}")
    if vals is None:
        return None
    return schedule.verdict(vals)


def build_report(spec: ProblemSpec,
                 schedule: ProbeSchedule = ProbeSchedule()) -> CriteriaReport:
    """The report of one problem: the batch of one of ``build_reports``."""
    return build_reports([spec], schedule)[0]


def build_reports(specs, schedule: ProbeSchedule = ProbeSchedule()) -> list:
    """The report of each of ``specs``, problems that differ only in their
    weights.  Each functional is evaluated for all of them at once, and a
    row equals, bit for bit, its problem alone; when the batch fails, each
    problem runs alone, so a failing one gets its own note.  Relaxed
    variants are evaluated only where the matching accumulation limit is
    finite and positive, which is when the decision table may use them.
    Overflow and invalid operations raise no warning: the non-finite
    values they leave fail the evaluation, with a note."""
    specs = list(specs)
    _, idx, layout = probe_grid(schedule)
    radii = schedule.radii().tolist()
    batch = CriteriaEvaluator(specs, layout)
    verdicts = [dict.fromkeys(CriteriaReport._FIELDS) for _ in specs]

    def alone(p, method, *args):
        """One functional's probe values for problem p evaluated alone."""
        return getattr(CriteriaEvaluator(specs[p:p + 1], layout), method)(*args)[0, idx]

    def probe(name, rows, method, *args):
        """One functional's verdicts for ``rows``; the others stay None."""
        try:
            vals = getattr(batch, method)(*args) if rows else None
        except (NumericsError, ValueError):
            for p in rows:
                verdicts[p][name] = _guarded(schedule, alone, p, method, *args)
            return
        for p in rows if vals is not None else ():
            verdicts[p][name] = schedule.verdict(vals[p, idx])

    def budget(name, rows, pair, limits=None):
        for p in rows:
            verdicts[p][name] = _guarded(schedule, _budget_probes, specs[p], pair, radii,
                                         limits is not None, limits and limits[p])

    every = range(len(specs))
    with np.errstate(over="ignore", invalid="ignore"):
        for side in (1, 2):
            probe(f"accumulation_{side}", every, "accumulation_values", side, "bar")
        for kind in ("upper", "lower"):
            for pair in PAIRS:
                probe(f"{kind}_coupling_{pair}", every, f"{kind}_coupling_values", pair)
        for pair in PAIRS:
            budget(f"growth_budget_{pair}",
                   every if batch.spec.pair(pair)[0].nl.has_upper_split else (), pair)
        # the accumulation limit of the other weight relaxes a pair's upper split
        limits = {}
        for pair in PAIRS:
            accs = [out[f"accumulation_{batch.spec.pair(pair)[1].index}"] for out in verdicts]
            limits[pair] = [acc.value if acc.finite and acc.value > 0.0 else None for acc in accs]
        for pair in PAIRS:
            probe(f"upper_coupling_{pair}_relaxed", [p for p in every if limits[pair][p]],
                  "upper_coupling_relaxed_values", pair)
        for pair in PAIRS:
            budget(f"growth_budget_{pair}_relaxed", [p for p in every if limits[pair][p]],
                   pair, limits[pair])

    lows = {pair: effective_lower_envelope(batch.spec.pair(pair)[0].nl) for pair in PAIRS}
    return [CriteriaReport(a_anchor=spec.alpha, b_anchor=spec.beta, verdicts=out,
                           lower_auto={pair: bool(low and low[2]) for pair, low in lows.items()})
            for spec, out in zip(specs, verdicts)]


# ---------------------------------------------------------------------------
# Pointwise solution bounds

def solution_bounds(spec: ProblemSpec, panels: LinearPanels) -> dict:
    """Pointwise ceilings/floors for solutions on the nodes of ``panels``,
    the layout of the solve grid (``RadialGrid.panels``).

    u_upper = H_12^-1(k_bar_1 * P_upper_12(r)) and u_lower = alpha +
    P_lower_12(r); entries are None when the needed envelope data is
    missing.  These are the bounds every iterate (ceiling) and the converged
    solution (floor) must respect.
    """
    ev = CriteriaEvaluator(spec, panels)
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
