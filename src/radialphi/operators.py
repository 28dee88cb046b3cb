"""Quasilinear operator layer: catalog families, the flux map and its
numeric inverse, and multiplicative envelopes for the inverse flux.

Each operator is div(phi(|grad u|) grad u) for a profile phi on (0, oo).
The radial theory only ever touches the flux map h(t) = t*phi(t): radial
solutions solve an integral equation in h^-1, and every growth criterion is
phrased through a sandwich

    k_under * theta_under(s1) * psi_under(s2)
        <= h^-1(s1*s2) <=
    k_bar * theta_bar(s1) * psi_bar(s2)

that splits h^-1 of a product multiplicatively.  ``derive_envelopes`` builds
such a sandwich numerically with psi = h^-1, k = 1 and theta a pair of power
laws whose exponents bracket the logarithmic slope of h: if
a0 <= d ln h / d ln t <= a1 on the range of interest, then for s1 >= 1 the
point h^-1(s1*s2) sits between s1^(1/a1) and s1^(1/a0) times h^-1(s2), and
symmetrically for s1 < 1.  The derived exponents are widened by a small
safety margin and the sandwich is re-verified on a sample grid before the
envelope is accepted.

Families without a closed-form inverse are inverted from a per-operator
table of (ln t, ln h(t)) on a fixed log grid of t, built on first use and
kept read-only on the operator.  Each value is bracketed by one table cell
and solved there by secant steps in log-log space, starting from the
linear interpolant.  Values outside the table, and the rare value whose
secant steps do not settle, go to a bracketed bisection, which also owns
the out-of-range failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exprlang import Expr
from .quadrature import NumericsError

__all__ = [
    "PhiOperator",
    "EnvelopeSet",
    "GrowthExponents",
    "OperatorError",
    "InversionRangeError",
    "FAMILIES",
    "make_operator",
    "h_eval",
    "h_inverse",
    "derive_envelopes",
    "check_envelope",
]


class OperatorError(ValueError):
    """Bad operator parameters or failed profile validation."""


class InversionRangeError(NumericsError):
    """The flux map could not be inverted at the requested value."""


# validation grid pinned by design: covers the vanishing-flux limit and the
# growth regime in one sweep
_VALIDATION_GRID = np.logspace(-8.0, 8.0, 512)
_BRACKET_CAP = 1e300
_EXPONENT_MARGIN = 1e-3
# relative tolerance of every flux inverse
_REL_TOL = 1e-12
# flux table grid: t in [1e-12, 1e12] at 32 nodes per decade
_TABLE_GRID = np.logspace(-12.0, 12.0, 24 * 32 + 1)
# the table inverse works through its input in blocks of this many values,
# which keeps its temporaries small next to the arrays it inverts
_BLOCK = 8192
# secant steps a value may take in its table cell before it is handed to
# bisection; values inside the table settle within four
_SECANT_STEPS = 8


@dataclass(frozen=True)
class PhiOperator:
    family: str
    params: tuple
    label: str
    phi: Callable
    analytic_h_inverse: Callable | None = None

    def __repr__(self):
        return f"PhiOperator({self.label})"

    @cached_property
    def flux_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (ln t, ln h(t)) on the longest finite, strictly
        increasing stretch of the table grid; built on first use."""
        return _flux_table(self)


@dataclass(frozen=True)
class GrowthExponents:
    """Growth metadata: l/m bracket t*Phi'(t)/Phi(t) for the primitive
    Phi(t) = integral_0^t s*phi(s) ds, a0/a1 bracket d ln h / d ln t."""

    l: float
    m: float
    a0: float
    a1: float

    def __post_init__(self):
        if not (self.l <= self.m and self.a0 <= self.a1):
            raise OperatorError("growth exponents out of order")


@dataclass(frozen=True)
class EnvelopeSet:
    k_under: float
    k_bar: float
    theta_under: Callable
    theta_bar: Callable
    psi_under: Callable
    psi_bar: Callable
    description: str = ""


# ---------------------------------------------------------------------------
# Catalog

def _phi_laplacian():
    return lambda t: np.ones_like(np.asarray(t, dtype=float))


def _phi_p_laplacian(p):
    return lambda t: np.asarray(t, dtype=float) ** (p - 2.0)


def _phi_plasma(p, q):
    def phi(t):
        t = np.asarray(t, dtype=float)
        return t ** (p - 2.0) + t ** (q - 2.0)
    return phi


def _phi_elasticity(p):
    def phi(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * p * (1.0 + t * t) ** (p - 1.0)
    return phi


def _phi_plasticity(p, q):
    def phi(t):
        t = np.asarray(t, dtype=float)
        lg = np.log1p(t)
        return lg ** (q - 1.0) / (t + 1.0) * (
            (p * t ** (p - 1.0) + q * t ** (q - 2.0)) * lg + q * t ** (p - 1.0)
        )
    return phi


def _phi_newtonian(p, q):
    def phi(t):
        t = np.asarray(t, dtype=float)
        return t ** (-p) * np.arcsinh(t) ** q
    return phi


FAMILIES = ("laplacian", "p_laplacian", "plasma", "elasticity",
            "plasticity", "newtonian", "custom")


def make_operator(family: str, **params) -> PhiOperator:
    """Build and validate an operator from the catalog.

    Catalog constraints: p_laplacian p > 1; plasma 1 < p < q;
    elasticity p > 1/2; plasticity p > 1, q > 0; newtonian 0 <= p <= 1,
    q > 0; custom takes ``expr`` (an exprlang Expr or source string for the
    profile phi).  The laplacian is phi == 1, so the flux map is the
    identity.
    """
    inverse = None
    if family == "laplacian":
        phi = _phi_laplacian()
        inverse = lambda s: np.asarray(s, dtype=float)
        label = "laplacian"
    elif family == "p_laplacian":
        p = float(params["p"])
        if not p > 1:
            raise OperatorError("p_laplacian requires p > 1")
        phi = _phi_p_laplacian(p)
        inverse = lambda s, _e=1.0 / (p - 1.0): np.asarray(s, dtype=float) ** _e
        label = f"p_laplacian(p={p:g})"
    elif family == "plasma":
        p, q = float(params["p"]), float(params["q"])
        if not (1 < p < q):
            raise OperatorError("plasma requires 1 < p < q")
        phi = _phi_plasma(p, q)
        label = f"plasma(p={p:g}, q={q:g})"
    elif family == "elasticity":
        p = float(params["p"])
        if not p > 0.5:
            raise OperatorError("elasticity requires p > 1/2")
        phi = _phi_elasticity(p)
        if p == 1.0:
            inverse = lambda s: np.asarray(s, dtype=float) / 2.0
        label = f"elasticity(p={p:g})"
    elif family == "plasticity":
        p, q = float(params["p"]), float(params["q"])
        if not (p > 1 and q > 0):
            raise OperatorError("plasticity requires p > 1 and q > 0")
        phi = _phi_plasticity(p, q)
        label = f"plasticity(p={p:g}, q={q:g})"
    elif family == "newtonian":
        p, q = float(params["p"]), float(params["q"])
        if not (0 <= p <= 1 and q > 0):
            raise OperatorError("newtonian requires 0 <= p <= 1 and q > 0")
        phi = _phi_newtonian(p, q)
        label = f"newtonian(p={p:g}, q={q:g})"
    elif family == "custom":
        expr = params["expr"]
        if not isinstance(expr, Expr):
            from .exprlang import parse
            expr = parse(str(expr))
        phi = expr
        label = f"custom({expr.source.strip()})"
    else:
        raise OperatorError(f"unknown operator family {family!r}")

    op = PhiOperator(
        family=family,
        params=tuple(sorted((k, float(v)) for k, v in params.items() if k != "expr")),
        label=label,
        phi=phi,
        analytic_h_inverse=inverse,
    )
    _validate_profile(op)
    return op


def _validate_profile(op: PhiOperator):
    """Sampled checks: phi positive and finite, flux strictly increasing,
    flux vanishing toward 0."""
    tt = _VALIDATION_GRID
    try:
        pv = np.asarray(op.phi(tt), dtype=float)
    except Exception as exc:  # expression domain failures surface here
        raise OperatorError(f"{op.label}: profile evaluation failed: {exc}") from exc
    if not np.all(np.isfinite(pv)):
        raise OperatorError(f"{op.label}: profile non-finite on the validation grid")
    if not np.all(pv > 0):
        raise OperatorError(f"{op.label}: profile not positive on the validation grid")
    hh = tt * pv
    if not np.all(np.diff(hh) > 0):
        k = int(np.argmin(np.diff(hh)))
        raise OperatorError(
            f"{op.label}: flux map not strictly increasing near t={tt[k]:.3g}")
    # vanishing limit: the flux at the bottom of the grid must sit well
    # below its value at 1e-6
    k6 = int(np.argmin(np.abs(tt - 1e-6)))
    if not hh[0] <= 0.9 * hh[k6]:
        raise OperatorError(f"{op.label}: flux map does not vanish as t -> 0")


# ---------------------------------------------------------------------------
# Flux map and inverse

def h_eval(op: PhiOperator, t):
    """Flux map h(t) = t*phi(t), with h(0) = 0 by the vanishing limit."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise ValueError("flux map argument must be nonnegative")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        vals = arr[pos] * np.asarray(op.phi(arr[pos]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise OperatorError(f"{op.label}: non-finite flux value")
        out[pos] = vals
    return float(out[0]) if scalar else out


def h_inverse(op: PhiOperator, s):
    """Unique t >= 0 with h(t) = s, to relative tolerance 1e-12.

    Uses the analytic inverse when the family has one.  Otherwise each value
    inside the operator's flux table is solved in its table cell by secant
    steps on ln h against ln t, clamped to the cell, until a step in ln t is
    at most a quarter of that.  Values outside the table, and values whose
    steps have not settled after a fixed count, fall back to a bracketed
    bisection in log space: the upper bracket doubles from 1 until h catches
    s (capped at 1e300, beyond which the operator is reported unsuitable),
    the lower one halves symmetrically.
    """
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr < 0):
        raise ValueError("flux inverse argument must be nonnegative")
    if op.analytic_h_inverse is not None:
        out = np.asarray(op.analytic_h_inverse(arr), dtype=float)
        return float(out[0]) if scalar else out

    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        vals = arr[pos]
        t = _table_inverse(op, vals)
        miss = np.isnan(t)
        if np.any(miss):
            t[miss] = _bisect_inverse(op, vals[miss])
        out[pos] = t
    return float(out[0]) if scalar else out


def _h_raw(op: PhiOperator, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return t * np.asarray(op.phi(t), dtype=float)


def _h_tolerant(op: PhiOperator, t: np.ndarray) -> np.ndarray:
    """Flux values with NaN wherever the profile refuses to evaluate
    (expression profiles reject a whole array for one overflowing entry,
    so the refusing entries are isolated by halving)."""
    try:
        return _h_raw(op, t)
    except (ValueError, ArithmeticError):
        if t.size == 1:
            return np.full(1, np.nan)
        mid = t.size // 2
        return np.concatenate((_h_tolerant(op, t[:mid]), _h_tolerant(op, t[mid:])))


def _flux_table(op: PhiOperator) -> tuple[np.ndarray, np.ndarray]:
    log_t = np.log(_TABLE_GRID)
    with np.errstate(all="ignore"):
        log_h = np.log(_h_tolerant(op, _TABLE_GRID))
        good = np.isfinite(log_h[:-1]) & np.isfinite(log_h[1:]) & (np.diff(log_h) > 0)
    # longest run of good cells [start, stop)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], good.view(np.int8), [0]))))
    starts, stops = edges[::2], edges[1::2]
    if starts.size == 0:
        keep = slice(0, 0)
    else:
        k = int(np.argmax(stops - starts))
        keep = slice(starts[k], stops[k] + 1)
    table = (log_t[keep].copy(), log_h[keep].copy())
    for arr in table:
        arr.setflags(write=False)
    return table


def _table_inverse(op: PhiOperator, s: np.ndarray) -> np.ndarray:
    """Preimages of the positive values ``s`` from the flux table; NaN
    where the table does not bracket a value or its steps did not settle."""
    log_t, log_h = op.flux_table
    out = np.full_like(s, np.nan)
    if log_t.size < 2:
        return out
    with np.errstate(all="ignore"):
        for start in range(0, s.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            out[block] = _secant_block(op, np.log(s[block]), log_t, log_h, _REL_TOL / 4.0)
    return out


def _secant_block(op, y, log_t, log_h, step_tol):
    """ln t with ln h(t) = y for one block of targets ``y``; NaN where no
    table cell brackets a target or its steps did not settle."""
    res = np.full_like(y, np.nan)
    cell = np.searchsorted(log_h, y, side="right") - 1
    idx = np.flatnonzero((cell >= 0) & (cell < log_h.size - 1))
    if idx.size == 0:
        return res
    y, cell = y[idx], cell[idx]
    a, b = log_t[cell], log_t[cell + 1]
    fa, fb = log_h[cell] - y, log_h[cell + 1] - y
    # the linear interpolant is the secant through the cell ends; the next
    # step pairs it with the end across the root
    x1 = a - fa * (b - a) / (fb - fa)
    f1 = np.log(_h_raw(op, np.exp(x1))) - y
    right = f1 > 0
    x0 = np.where(right, a, b)
    f0 = np.where(right, fa, fb)
    for _ in range(_SECANT_STEPS):
        den = f1 - f0
        # a flat pair away from the root cannot step: NaN sends it to bisection
        step = np.where(den != 0, f1 * (x1 - x0) / den, np.where(f1 == 0, 0.0, np.nan))
        x2 = np.clip(x1 - step, a, b)
        done = np.abs(step) <= step_tol
        res[idx[done]] = np.exp(x2[done])
        live = ~done & np.isfinite(x2)
        if not np.any(live):
            break
        idx, y, a, b = idx[live], y[live], a[live], b[live]
        x0, f0, x1 = x1[live], f1[live], x2[live]
        f1 = np.log(_h_raw(op, np.exp(x1))) - y
    return res


def _bisect_inverse(op: PhiOperator, s: np.ndarray) -> np.ndarray:
    lo = np.ones_like(s)
    hi = np.ones_like(s)
    h1 = _h_raw(op, np.ones_like(s))

    grow = h1 < s
    while np.any(grow):
        hi[grow] *= 2.0
        if np.any(hi > _BRACKET_CAP):
            raise InversionRangeError(
                f"{op.label}: flux map did not reach {np.max(s):.3g} below the "
                f"bracket cap 1e300; operator unsuitable for this problem")
        grow = grow & (_h_raw(op, hi) < s)
    shrink = h1 > s
    while np.any(shrink):
        lo[shrink] /= 2.0
        if np.any(lo < 1e-300):
            # flux stays above s arbitrarily close to 0: contradicts the
            # validated vanishing limit, treat the preimage as 0
            lo[lo < 1e-300] = 1e-300
            break
        shrink = shrink & (_h_raw(op, lo) > s)

    lo = np.where(h1 < s, hi / 2.0, lo)
    hi = np.where(h1 > s, lo * 2.0, hi)
    exact = h1 == s
    lo[exact] = 1.0
    hi[exact] = 1.0

    # log-space bisection: each pass halves ln(hi/lo), so ~50 passes push a
    # factor-2 bracket far below any useful relative tolerance
    n_iter = max(10, int(np.ceil(np.log2(np.log(2.0) / _REL_TOL))) + 4)
    log_lo = np.log(lo)
    log_hi = np.log(hi)
    for _ in range(n_iter):
        mid = np.exp(0.5 * (log_lo + log_hi))
        below = _h_raw(op, mid) < s
        log_lo = np.where(below, np.log(mid), log_lo)
        log_hi = np.where(below, log_hi, np.log(mid))
    return np.exp(0.5 * (log_lo + log_hi))


# ---------------------------------------------------------------------------
# Envelope derivation

def derive_envelopes(op: PhiOperator) -> tuple[EnvelopeSet, GrowthExponents]:
    """Derive a multiplicative sandwich for h^-1 plus growth metadata.

    Estimates l, m (bounds of t*Phi'/Phi with Phi' = h and Phi by cumulative
    quadrature) and a0, a1 (bounds of the logarithmic slope of h).  The
    slope grid, 512 samples per decade, is widened beyond t in [1e-8, 1e8]
    until it covers the preimages of the flux values the sandwich is
    certified for (products up to 1e7 and down to 1e-13): slowly growing
    fluxes push those preimages far past any fixed range, and a slope
    estimated short of them would certify a sandwich that fails at large
    arguments.  Refuses when the Phi-ratio drops to 1 or below, or when the
    slope bounds fail to stay positive, or when the constructed sandwich is
    violated on the sample grid.
    """
    t_lo, t_hi = 1e-8, 1e8
    try:
        t_hi = max(t_hi, float(h_inverse(op, 1e7)))
        t_lo = min(t_lo, max(float(h_inverse(op, 1e-13)), 1e-200))
    except InversionRangeError as exc:
        raise OperatorError(
            f"{op.label}: flux map too slow for the sandwich construction "
            f"({exc}); refused") from exc
    decades = np.log10(t_hi) - np.log10(t_lo)
    samples = max(4097, int(512 * decades) + 1)
    tt = np.logspace(np.log10(t_lo), np.log10(t_hi), samples)
    hh = _h_raw(op, tt)
    if not (np.all(np.isfinite(hh)) and np.all(hh > 0)):
        raise OperatorError(f"{op.label}: flux map invalid on the envelope grid")

    log_t = np.log(tt)
    log_h = np.log(hh)
    secants = np.diff(log_h) / np.diff(log_t)
    a0 = float(np.min(secants)) - _EXPONENT_MARGIN
    a1 = float(np.max(secants)) + _EXPONENT_MARGIN
    if a0 <= 0:
        raise OperatorError(
            f"{op.label}: flux map slope drops to {a0 + _EXPONENT_MARGIN:.3g}; "
            "envelope construction refused")

    # primitive of s*phi(s): head integral below the grid, then prefix sums
    head_t = np.logspace(np.log10(t_lo) - 8.0, np.log10(t_lo), 1025)
    head_h = _h_raw(op, head_t)
    head = head_h[0] * head_t[0] / 2.0 + float(
        np.sum(np.diff(head_t) * (head_h[1:] + head_h[:-1]) * 0.5))
    big_phi = head + np.concatenate(
        ([0.0], np.cumsum(np.diff(tt) * (hh[1:] + hh[:-1]) * 0.5)))
    ratio = tt * hh / big_phi
    l = float(np.min(ratio))
    m = float(np.max(ratio))
    if l <= 1.0:
        raise OperatorError(
            f"{op.label}: primitive growth ratio reaches {l:.4g} <= 1; "
            "envelope construction refused")

    growth = GrowthExponents(l=l, m=m, a0=a0, a1=a1)
    inv_a0 = 1.0 / a0
    inv_a1 = 1.0 / a1

    def theta_under(t, _lo=inv_a1, _hi=inv_a0):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.minimum(t ** _lo, t ** _hi)

    def theta_bar(t, _lo=inv_a1, _hi=inv_a0):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.maximum(t ** _lo, t ** _hi)

    psi = lambda s: h_inverse(op, s)
    env = EnvelopeSet(
        k_under=1.0,
        k_bar=1.0,
        theta_under=theta_under,
        theta_bar=theta_bar,
        psi_under=psi,
        psi_bar=psi,
        description=(f"power sandwich from flux slope in [{a0:.6g}, {a1:.6g}]"),
    )
    worst = check_envelope(op, env, n=24, s_min=1e-4)
    if worst > 1e-9:
        raise OperatorError(
            f"{op.label}: derived sandwich violated by {worst:.3g}; refused")
    return env, growth


def check_envelope(op: PhiOperator, env: EnvelopeSet,
                   n: int = 64, s_min: float = 1e-6) -> float:
    """Worst relative violation of the sandwich on an n-by-n log grid of
    (s1, s2) in [s_min, 1e3]^2.  Zero means the sandwich held everywhere."""
    ss = np.logspace(np.log10(s_min), 3.0, n)
    s1 = np.repeat(ss, n)
    s2 = np.tile(ss, n)
    mid = h_inverse(op, s1 * s2)
    lower = env.k_under * env.theta_under(s1) * env.psi_under(s2)
    upper = env.k_bar * env.theta_bar(s1) * env.psi_bar(s2)
    scale = np.maximum(np.abs(mid), 1e-300)
    viol_low = np.maximum(lower - mid, 0.0) / scale
    viol_up = np.maximum(mid - upper, 0.0) / scale
    return float(max(np.max(viol_low), np.max(viol_up)))
