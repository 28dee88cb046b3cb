"""Independent ground truth for validating the solver and classifier.

Three unrelated routes are implemented so that no production code path
checks itself:

* the classical necessary-and-sufficient integral criteria for entire large
  solutions of the power-law Laplacian system (exponents at most 1), plus
  the simpler weight-moment conditions that imply them;
* the classical single-equation criterion: the reciprocal integral of the
  nonlinearity decides applicability and the kernel accumulation of the
  weight decides solvability, with a closed-form moment identity for its
  limit;
* the method of manufactured solutions: pick the exact solution pair,
  reverse-engineer the weights from the radial flux by finite differences,
  and solve the synthesized instance back.

The probe-based oracles take the ``ProbeSchedule`` of the criteria report,
so both read their integrals at the same radii with the same tolerances.
They integrate on a grid of their own, though: piecewise-linear panels,
1024 per segment whatever ``segment_nodes`` says, with the product
trapezoid kernel, where the report uses Chebyshev–Lobatto panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Nonlinearity, ProblemSpec, SpecError, Weight, build_problem
from .operators import PhiOperator, h_eval
from .quadrature import (LimitVerdict, LinearPanels, ProbeSchedule, RadialGrid,
                         prefix_trapezoid, radial_kernel_at)

__all__ = [
    "PowerLawInstance",
    "PowerLawCriteria",
    "power_law_criteria",
    "SingleEquationReport",
    "single_equation_check",
    "manufactured_problem",
]


# ---------------------------------------------------------------------------
# The oracles' probe grid

# trapezoid panels per segment, and halvings of r0 that grade the head
_SEGMENT_PANELS = 1024
_HEAD_HALVINGS = 10


def _oracle_grid(schedule: ProbeSchedule):
    """Read-only nodes on [0, R_last], the indices of the probe radii and
    the nodes' ``LinearPanels``: [0, r0 / 2**10] is one segment, ten halving
    segments reach r0, and one segment follows per later probe radius,
    each of 1024 uniform panels, built afresh for every call."""
    radii = schedule.radii().tolist()
    edges = [0.0, *(radii[0] / 2.0 ** k for k in range(_HEAD_HALVINGS, 0, -1)), *radii]
    layout = LinearPanels(np.concatenate(
        [[0.0]] + [np.linspace(lo, hi, _SEGMENT_PANELS + 1)[1:]
                   for lo, hi in zip(edges, edges[1:])]))
    idx = _SEGMENT_PANELS * np.arange(_HEAD_HALVINGS + 1, len(edges))
    idx.flags.writeable = False
    return layout.nodes, idx, layout


# ---------------------------------------------------------------------------
# Power-law system criteria (Laplacian, exponents alpha_exp, beta_exp)

@dataclass(frozen=True)
class PowerLawInstance:
    alpha_exp: float
    beta_exp: float
    a1: Weight
    a2: Weight
    N: int = 3

    def __post_init__(self):
        if not (self.alpha_exp > 0 and self.beta_exp > 0):
            raise SpecError("power-law exponents must be positive")
        if self.N < 3:
            raise SpecError("dimension must be >= 3")


@dataclass(frozen=True)
class PowerLawCriteria:
    """Probe verdicts for the four classical integrals.

    coupling_i probes the iterated integral of weight i against the other
    weight's double primitive; moment_i probes the plain first moment.
    The named conditions are readings of these probes: the growth conditions
    hold when the couplings diverge, the decay conditions when they are
    finite, and the moment conditions imply them in pairs.
    """

    coupling_1: LimitVerdict
    coupling_2: LimitVerdict
    moment_1: LimitVerdict
    moment_2: LimitVerdict
    product_le_one: bool

    def _tri(self, v: LimitVerdict, want: str):
        if v.indeterminate:
            return None
        return v.kind == want

    @property
    def growth_1(self):  # coupling 1 diverges
        return self._tri(self.coupling_1, "divergent")

    @property
    def growth_2(self):
        return self._tri(self.coupling_2, "divergent")

    @property
    def decay_1(self):  # coupling 1 finite
        return self._tri(self.coupling_1, "finite")

    @property
    def decay_2(self):
        return self._tri(self.coupling_2, "finite")

    @property
    def moments_diverge(self):
        a = self._tri(self.moment_1, "divergent")
        b = self._tri(self.moment_2, "divergent")
        return None if None in (a, b) else (a and b)

    @property
    def moments_finite(self):
        a = self._tri(self.moment_1, "finite")
        b = self._tri(self.moment_2, "finite")
        return None if None in (a, b) else (a and b)

    @property
    def large_solution(self):
        """Existence of an entire large pair; decisive only for exponent
        product at most 1 (necessary and sufficient there)."""
        if not self.product_le_one:
            return None
        g1, g2 = self.growth_1, self.growth_2
        if g1 is True and g2 is True:
            return True
        if g1 is False or g2 is False:
            return False
        return None

    def to_dict(self) -> dict:
        return {
            "coupling_1": self.coupling_1.to_dict(),
            "coupling_2": self.coupling_2.to_dict(),
            "moment_1": self.moment_1.to_dict(),
            "moment_2": self.moment_2.to_dict(),
            "product_le_one": self.product_le_one,
            "growth_conditions": [self.growth_1, self.growth_2],
            "decay_conditions": [self.decay_1, self.decay_2],
            "moments_diverge": self.moments_diverge,
            "moments_finite": self.moments_finite,
            "large_solution": self.large_solution,
        }


def power_law_criteria(inst: PowerLawInstance,
                       schedule: ProbeSchedule = ProbeSchedule()) -> PowerLawCriteria:
    """Probe the four classical integrals of the power-law system.

    coupling_1(R) = integral_0^R t a1(t) (t^(2-N) integral_0^t s^(N-3) Q(s) ds)^alpha dt
    with Q the first moment of a2 (and symmetrically for coupling_2).
    """
    xs, idx, layout = _oracle_grid(schedule)
    a1v = inst.a1.sample(xs)
    a2v = inst.a2.sample(xs)

    def coupling(av_outer, av_inner, exponent):
        moment_inner = prefix_trapezoid(xs * av_inner, xs, panels=layout)
        iterated = radial_kernel_at(moment_inner, inst.N - 2, xs, panels=layout)
        with np.errstate(divide="ignore", invalid="ignore"):
            iterated = np.where(xs > 0, iterated / xs, 0.0)
        integrand = xs * av_outer * iterated ** exponent
        return prefix_trapezoid(integrand, xs, panels=layout)

    c1 = coupling(a1v, a2v, inst.alpha_exp)[idx]
    c2 = coupling(a2v, a1v, inst.beta_exp)[idx]
    m1 = prefix_trapezoid(xs * a1v, xs, panels=layout)[idx]
    m2 = prefix_trapezoid(xs * a2v, xs, panels=layout)[idx]

    return PowerLawCriteria(
        coupling_1=schedule.verdict(c1),
        coupling_2=schedule.verdict(c2),
        moment_1=schedule.verdict(m1),
        moment_2=schedule.verdict(m2),
        product_le_one=inst.alpha_exp * inst.beta_exp <= 1.0,
    )


# ---------------------------------------------------------------------------
# Single-equation criterion

@dataclass(frozen=True)
class SingleEquationReport:
    reciprocal_integral: LimitVerdict
    kernel_accumulation: LimitVerdict
    moment_formula: LimitVerdict
    limit_identity_agrees: bool | None
    solvable: str  # "solvable" | "not_solvable" | "not_applicable" | "indeterminate"

    def to_dict(self) -> dict:
        return {
            "reciprocal_integral": self.reciprocal_integral.to_dict(),
            "kernel_accumulation": self.kernel_accumulation.to_dict(),
            "moment_formula": self.moment_formula.to_dict(),
            "limit_identity_agrees": self.limit_identity_agrees,
            "solvable": self.solvable,
        }


def single_equation_check(f: Nonlinearity, a: Weight, N: int,
                          schedule: ProbeSchedule = ProbeSchedule()) -> SingleEquationReport:
    """Classical single-equation blow-up criterion, probed along ``schedule``.

    The equation with a sublinear-type nonlinearity (divergent reciprocal
    integral from 1) admits an unbounded radial solution exactly when the
    kernel accumulation of the weight diverges; that accumulation's limit
    equals the first weight moment divided by N-2, which is cross-checked
    whenever both probes land finite.
    """
    radii = schedule.radii().tolist()

    # reciprocal integral on a geometric grid anchored at 1
    segs = [np.array([1.0])]
    prev = 1.0
    for r in radii:
        if r > prev:
            segs.append(np.linspace(prev, r, _SEGMENT_PANELS + 1)[1:])
            prev = r
    ts = np.concatenate(segs)
    fv = np.asarray(f.f(ts), dtype=float)
    if np.any(fv <= 0) or not np.all(np.isfinite(fv)):
        raise SpecError(f"nonlinearity {f.label}: not positive on [1, oo) samples")
    recip = prefix_trapezoid(1.0 / fv, ts)
    recip_at = np.interp(np.asarray(radii), ts, recip)
    v_recip = schedule.verdict(recip_at)

    xs, idx, layout = _oracle_grid(schedule)
    av = a.sample(xs)
    kernel = radial_kernel_at(av, N, xs, panels=layout)
    acc = prefix_trapezoid(kernel, xs, panels=layout)[idx]
    v_acc = schedule.verdict(acc)
    moment = prefix_trapezoid(xs * av, xs, panels=layout)[idx] / (N - 2)
    v_moment = schedule.verdict(moment)

    agrees = None
    if v_acc.finite and v_moment.finite:
        scale = max(abs(v_moment.value), 1e-300)
        agrees = bool(abs(v_acc.value - v_moment.value) / scale <= 1e-4)

    if v_recip.divergent:
        if v_acc.divergent:
            solvable = "solvable"
        elif v_acc.finite:
            solvable = "not_solvable"
        else:
            solvable = "indeterminate"
    elif v_recip.finite:
        solvable = "not_applicable"
    else:
        solvable = "indeterminate"

    return SingleEquationReport(
        reciprocal_integral=v_recip,
        kernel_accumulation=v_acc,
        moment_formula=v_moment,
        limit_identity_agrees=agrees,
        solvable=solvable,
    )


# ---------------------------------------------------------------------------
# Manufactured solutions

def manufactured_problem(u_star, v_star, op1: PhiOperator, op2: PhiOperator,
                         f1: Nonlinearity, f2: Nonlinearity,
                         N: int, grid: RadialGrid) -> ProblemSpec:
    """Synthesize a problem whose exact solution is (u_star, v_star).

    The target pair (callables of r, nondecreasing with zero initial slope)
    is pushed through the radial flux r^(N-1) h(u'); differentiating the
    flux by central differences and dividing by r^(N-1) f(counterpart)
    yields the weights.  Tiny negative finite-difference noise (above -1e-8)
    is clamped to zero; larger negativity means the pair is inadmissible.
    """
    nodes = grid.nodes
    step = grid.step
    u = np.asarray(u_star(nodes), dtype=float)
    v = np.asarray(v_star(nodes), dtype=float)
    for name, w in (("u_star", u), ("v_star", v)):
        if np.any(np.diff(w) < -1e-12 * (1.0 + np.abs(w[1:]))):
            raise SpecError(f"{name} is not nondecreasing on the grid")

    def weight_for(target, op, f_other, other_vals, name):
        slope = np.maximum(np.gradient(target, step), 0.0)
        flux = nodes ** (N - 1) * h_eval(op, slope)
        flux_rate = np.gradient(flux, step)
        denom = nodes ** (N - 1) * np.asarray(f_other.f(other_vals), dtype=float)
        if np.any(denom[1:] <= 0):
            raise SpecError(
                f"{name}: counterpart nonlinearity vanishes on (0, r_max]")
        w = np.empty_like(nodes)
        w[1:] = flux_rate[1:] / denom[1:]
        # the 0/0 limit at the origin: linear extrapolation from the first
        # two interior nodes
        w[0] = max(2.0 * w[1] - w[2], 0.0)
        if np.any(w < -1e-8):
            worst = float(np.min(w))
            raise SpecError(
                f"{name}: manufactured weight dips to {worst:.3g}; pair inadmissible")
        w = np.maximum(w, 0.0)

        def fn(r, _nodes=nodes, _w=w):
            return np.interp(np.asarray(r, dtype=float), _nodes, _w)

        return Weight(fn=fn, label=name)

    a1 = weight_for(u, op1, f1, v, "manufactured a1")
    a2 = weight_for(v, op2, f2, u, "manufactured a2")
    return build_problem(N=N, alpha=float(u[0]), beta=float(v[0]),
                         op1=op1, op2=op2, a1=a1, a2=a2, f1=f1, f2=f2)
