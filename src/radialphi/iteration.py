"""Monotone successive-approximation solver for the coupled radial system.

Radial solutions with central values (alpha, beta) are fixed points of

    u(r) = alpha + integral_0^r hinv1( K_N[a1 * f1(v)](t) ) dt
    v(r) = beta  + integral_0^r hinv2( K_N[a2 * f2(u)](t) ) dt

where K_N is the radial averaging kernel and hinv the inverse flux map of
each operator.  Starting from the constant pair (alpha, beta), each sweep
updates u from the previous v and then v from the *fresh* u; monotonicity
of the weights, nonlinearities and inverse flux makes both iterate
sequences nondecreasing in the sweep index and nondecreasing in radius, so
convergence is plain pointwise supremum chasing.

The scheme has no intrinsic stopping rule (the underlying construction
takes the sweep index to infinity); we stop on a relative sup-norm test and
report the fixed-point residual of the final iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ProblemSpec
from .operators import h_inverse
from .quadrature import NumericsError, RadialGrid, prefix_trapezoid, radial_kernel_at

__all__ = [
    "IterationState",
    "RadialSolution",
    "init_state",
    "step",
    "solve",
    "residual",
    "DEFAULT_CONV_TOL",
    "DEFAULT_MAX_ITER",
]

DEFAULT_CONV_TOL = 1e-8
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class IterationState:
    m: int
    u: np.ndarray
    v: np.ndarray
    grid: RadialGrid
    a1_samples: np.ndarray = field(repr=False, default=None)
    a2_samples: np.ndarray = field(repr=False, default=None)
    sup_diff_history: tuple = ()


@dataclass(frozen=True)
class RadialSolution:
    grid: RadialGrid
    u: np.ndarray
    v: np.ndarray
    iterations_used: int
    converged: bool
    residual_u: float
    residual_v: float
    sup_diff_history: tuple = ()

    def to_dict(self) -> dict:
        return {
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "residual_u": self.residual_u,
            "residual_v": self.residual_v,
            "sup_diff_history": [[int(m), float(du), float(dv)]
                                 for m, du, dv in self.sup_diff_history],
        }


def init_state(spec: ProblemSpec, grid: RadialGrid) -> IterationState:
    """Constant start: u == alpha, v == beta, no sweeps taken."""
    nodes = grid.nodes
    return IterationState(
        m=0,
        u=np.full_like(nodes, spec.alpha),
        v=np.full_like(nodes, spec.beta),
        grid=grid,
        a1_samples=spec.a1.sample(nodes),
        a2_samples=spec.a2.sample(nodes),
    )


def _half_sweep(spec: ProblemSpec, grid: RadialGrid, weight_samples, nl, op,
                start: float, other: np.ndarray, eq: str) -> np.ndarray:
    nodes = grid.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = weight_samples * np.asarray(nl.f(other), dtype=float)
    if not np.all(np.isfinite(forcing)):
        k = int(np.argmax(~np.isfinite(forcing)))
        raise NumericsError(
            f"non-finite forcing in equation {eq} at r={nodes[k]:.6g} "
            f"(possible blow-up inside the grid)")
    kernel = radial_kernel_at(forcing, spec.N, nodes)
    slope = h_inverse(op, kernel)
    if not np.all(np.isfinite(slope)):
        k = int(np.argmax(~np.isfinite(slope)))
        raise NumericsError(
            f"non-finite inverse flux in equation {eq} at r={nodes[k]:.6g}")
    return start + prefix_trapezoid(slope, nodes)


def step(state: IterationState, spec: ProblemSpec) -> IterationState:
    """One sweep: u from the previous v, then v from the new u."""
    u_new = _half_sweep(spec, state.grid, state.a1_samples, spec.f1, spec.op1,
                        spec.alpha, state.v, eq="1")
    v_new = _half_sweep(spec, state.grid, state.a2_samples, spec.f2, spec.op2,
                        spec.beta, u_new, eq="2")
    du = float(np.max(np.abs(u_new - state.u)))
    dv = float(np.max(np.abs(v_new - state.v)))
    return IterationState(
        m=state.m + 1,
        u=u_new,
        v=v_new,
        grid=state.grid,
        a1_samples=state.a1_samples,
        a2_samples=state.a2_samples,
        sup_diff_history=state.sup_diff_history + ((state.m + 1, du, dv),),
    )


def solve(spec: ProblemSpec, grid: RadialGrid,
          conv_tol: float = DEFAULT_CONV_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> RadialSolution:
    """Iterate sweeps until the relative sup-norm update stalls below
    ``conv_tol`` or ``max_iter`` is exhausted (converged=False then; a
    genuine blow-up inside the grid surfaces as NumericsError instead)."""
    state = init_state(spec, grid)
    converged = False
    for _ in range(max_iter):
        state = step(state, spec)
        _, du, dv = state.sup_diff_history[-1]
        if (du <= conv_tol * (1.0 + float(np.max(state.u)))
                and dv <= conv_tol * (1.0 + float(np.max(state.v)))):
            converged = True
            break
    res_u = _residual_u(spec, state)
    # the last sweep built v from this very u, so the v-image is v itself and
    # its residual is exactly 0; only a sweepless state needs the half-sweep
    res_v = _residual_v(spec, state) if state.m == 0 else 0.0
    return RadialSolution(
        grid=state.grid,
        u=state.u,
        v=state.v,
        iterations_used=state.m,
        converged=converged,
        residual_u=res_u,
        residual_v=res_v,
        sup_diff_history=state.sup_diff_history,
    )


def _residual_u(spec, state) -> float:
    u_img = _half_sweep(spec, state.grid, state.a1_samples, spec.f1, spec.op1,
                        spec.alpha, state.v, eq="1")
    return float(np.max(np.abs(state.u - u_img)))


def _residual_v(spec, state) -> float:
    v_img = _half_sweep(spec, state.grid, state.a2_samples, spec.f2, spec.op2,
                        spec.beta, state.u, eq="2")
    return float(np.max(np.abs(state.v - v_img)))


def residual(spec: ProblemSpec, solution: RadialSolution) -> tuple[float, float]:
    """Sup-norm defect of (u, v) in the integral fixed-point equations."""
    nodes = solution.grid.nodes
    state = IterationState(
        m=solution.iterations_used,
        u=solution.u,
        v=solution.v,
        grid=solution.grid,
        a1_samples=spec.a1.sample(nodes),
        a2_samples=spec.a2.sample(nodes),
    )
    return _residual_u(spec, state), _residual_v(spec, state)
