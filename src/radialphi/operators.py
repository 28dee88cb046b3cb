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

Families without a closed-form inverse are inverted from two read-only
tables built on first use: the flux table (ln t, ln h(t)) on a log grid of
t, and from it a cubic Hermite table of ln t against ln s on uniform cells
in ln s.  Each value starts from the Hermite interpolant, takes one Newton
step in log space and must pass a residual check on the exact flux, which
bounds the slope of the inverse in the value's cell from above; a value
that fails takes one more Newton step with the exact slope.  Values outside
the table, or failing twice, go to a bracketed bisection, which also owns
the out-of-range failure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .exprlang import Expr
from .quadrature import NumericsError, prefix_trapezoid

__all__ = [
    "PhiOperator",
    "EnvelopeSet",
    "GrowthExponents",
    "OperatorError",
    "InversionRangeError",
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
# flux table grid: t in [1e-30, 1e12] at 32 nodes per decade, low enough
# that small flux values rarely need bisection
_TABLE_GRID = np.logspace(-30.0, 12.0, 42 * 32 + 1)
# inverse table: 64 cells per decade of s; up to _POLISH_STEPS Newton steps
# set a node (else bisection), and its slope is a central difference with
# step _SLOPE_EPS in ln t.  It is applied in blocks of _BLOCK values, which
# keeps its temporaries small
_INVERSE_STEP = np.log(10.0) / 64
_POLISH_STEPS = 8
_SLOPE_EPS = 1e-6
_BLOCK = 8192


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

    @cached_property
    def inverse_table(self) -> tuple | None:
        """Read-only (y0, y1, 1/dy, c0, c1, c2, c3, top): cubic Hermite pieces
        of ln t against y = ln s on uniform cells of width dy covering the
        flux table's [y0, y1].  In cell k, with u = (y - y0)/dy - k in
        [0, 1], ln t = c0[k] + u*(c1[k] + u*(c2[k] + u*c3[k])), and top[k]
        bounds the slope d ln t / d ln s in the cell.  None when the flux
        table has no cell."""
        return _inverse_table(self)


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


def make_operator(family: str, **params) -> PhiOperator:
    """Build and validate an operator from the catalog.

    Catalog constraints: p_laplacian p > 1; plasma 1 < p < q;
    elasticity p > 1/2; plasticity p > 1, q > 0; newtonian 0 <= p <= 1,
    q > 0; custom takes ``expr`` (an exprlang Expr or source string for the
    profile phi).  The laplacian is phi == 1, so the flux map is the
    identity.  A missing parameter, or one that is not a real number (a
    bool or a string) or is too large for a float, is an OperatorError.
    """
    num = {}
    for k, v in params.items():
        if k == "expr":
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise OperatorError(f"{family}: parameters must be numbers, got {k}={v!r}")
        try:
            num[k] = float(v)
        except OverflowError:  # an integer beyond the float range
            raise OperatorError(f"{family}: parameter {k} is too large for a float") from None

    def need(*names):
        missing = [name for name in names if name not in num]
        if missing:
            raise OperatorError(f"{family} requires parameter {missing[0]!r}")
        return [num[name] for name in names]

    inverse = None
    if family == "laplacian":
        phi = _phi_laplacian()
        inverse = lambda s: np.array(s, dtype=float)
        label = "laplacian"
    elif family == "p_laplacian":
        p, = need("p")
        if not p > 1:
            raise OperatorError("p_laplacian requires p > 1")
        phi = _phi_p_laplacian(p)
        inverse = lambda s, _e=1.0 / (p - 1.0): np.asarray(s, dtype=float) ** _e
        label = f"p_laplacian(p={p:g})"
    elif family == "plasma":
        p, q = need("p", "q")
        if not (1 < p < q):
            raise OperatorError("plasma requires 1 < p < q")
        phi = _phi_plasma(p, q)
        label = f"plasma(p={p:g}, q={q:g})"
    elif family == "elasticity":
        p, = need("p")
        if not p > 0.5:
            raise OperatorError("elasticity requires p > 1/2")
        phi = _phi_elasticity(p)
        if p == 1.0:
            inverse = lambda s: np.asarray(s, dtype=float) / 2.0
        label = f"elasticity(p={p:g})"
    elif family == "plasticity":
        p, q = need("p", "q")
        if not (p > 1 and q > 0):
            raise OperatorError("plasticity requires p > 1 and q > 0")
        phi = _phi_plasticity(p, q)
        label = f"plasticity(p={p:g}, q={q:g})"
    elif family == "newtonian":
        p, q = need("p", "q")
        if not (0 <= p <= 1 and q > 0):
            raise OperatorError("newtonian requires 0 <= p <= 1 and q > 0")
        phi = _phi_newtonian(p, q)
        label = f"newtonian(p={p:g}, q={q:g})"
    elif family == "custom":
        if "expr" not in params:
            raise OperatorError("custom requires parameter 'expr'")
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
        params=tuple(sorted(num.items())),
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
    """Flux map h(t) = t*phi(t), with h(0) = 0 by the vanishing limit; an
    argument that is negative or NaN raises ValueError."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not (arr >= 0).all():
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
    """Unique t >= 0 with h(t) = s, to relative tolerance 1e-12, as a fresh
    array (a float for a scalar) that never shares memory with ``s``.

    Uses the analytic inverse when the family has one.  Otherwise a value in
    the inverse table takes one Newton step in log space from the Hermite
    start, kept only if |ln(h(t)/s)| * (a bound on d ln t / d ln s in its
    cell) <= 1e-12/4 on the exact flux; a value that fails takes one more
    step with the exact slope and is checked again.  Other values go to a
    bisection in log space: the upper
    bracket doubles from 1 until h catches s (capped at 1e300, beyond which
    the operator is reported unsuitable), the lower one halves.  An
    argument that is negative or NaN raises ValueError.
    """
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not (arr >= 0).all():
        raise ValueError("flux inverse argument must be nonnegative")
    if op.analytic_h_inverse is not None:
        out = np.asarray(op.analytic_h_inverse(arr), dtype=float)
    else:
        pos = arr > 0
        vals = arr if pos.all() else arr[pos]
        out = t = _table_inverse(op, vals)
        miss = np.isnan(t)
        if miss.any():
            t[miss] = _bisect_inverse(op, vals[miss])
        if vals is not arr:
            out = np.zeros_like(arr)
            out[pos] = t
    return float(out[0]) if np.ndim(s) == 0 else out


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


def _log_flux(op: PhiOperator, x: np.ndarray) -> np.ndarray:
    """ln h(e^x), NaN where the profile refuses to evaluate."""
    return np.log(_h_tolerant(op, np.exp(x)))


def _log_ratio(op: PhiOperator, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ln(h(e^x) / s), the residual of ln t = x, exact to the precision of
    h rather than of ln s (which loses digits far from s = 1)."""
    return np.log(_h_tolerant(op, np.exp(x)) / s)


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
    return _frozen(log_t[keep].copy(), log_h[keep].copy())


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _log_slope(op: PhiOperator, x: np.ndarray) -> np.ndarray:
    """d ln t / d ln h at ln t = x, by a central difference."""
    return 2.0 * _SLOPE_EPS / (
        _log_flux(op, x + _SLOPE_EPS) - _log_flux(op, x - _SLOPE_EPS))


def _inverse_table(op: PhiOperator) -> tuple | None:
    """Nodes by Newton steps on the exact flux from the flux table's
    interpolant, slopes by a central difference of ln h.  A cell's slope
    bound is the largest of the exact slopes at its nodes and the flux
    table's secant slopes over the stretch of ln s it covers, so a kink or
    a flat stretch of the flux inside a cell raises it, unless that is
    finer than the flux table's grid."""
    log_t, log_h = op.flux_table
    if log_t.size < 2:
        return None
    cells = int(np.ceil((log_h[-1] - log_h[0]) / _INVERSE_STEP))
    y = np.linspace(log_h[0], log_h[-1], cells + 1)
    x = np.interp(y, log_h, log_t)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            dx = (_log_flux(op, x) - y) * _log_slope(op, x)
            x = x - dx
            if np.all(np.abs(dx) <= _REL_TOL / 4.0):
                break
        loose = ~(np.abs(dx) <= _REL_TOL / 4.0)
        if np.any(loose):
            x[loose] = np.log(_bisect_inverse(op, np.exp(y[loose])))
        m = _log_slope(op, x) * (y[-1] - y[0]) / cells
    d, inv_dy = np.diff(x), cells / (y[-1] - y[0])
    # the flux table's cells that overlap cell k run from near[k] to near[k + 1]
    secant = np.diff(log_t) / np.diff(log_h)
    near = np.clip(np.searchsorted(log_h, y, "right") - 1, 0, secant.size - 1)
    top = np.maximum(np.maximum(m[:-1], m[1:]) * inv_dy, np.maximum(
        np.maximum.reduceat(secant, near[:-1]), secant[near[1:]]))
    return (y[0], y[-1], inv_dy) + _frozen(
        x[:-1], m[:-1], 3.0 * d - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * d, top)


def _table_inverse(op: PhiOperator, s: np.ndarray) -> np.ndarray:
    """Preimages of the positive values ``s`` from the operator's inverse
    table by blocks: Hermite start, one Newton step with the interpolant's
    slope, residual check.  A value that fails the check takes one more
    Newton step with the slope of the exact flux and is checked again.  NaN
    where the table does not cover a value or the checks fail.

    The check bounds the error in ln t by |ln(h(t)/s)| times the largest of
    the slopes d ln t / d ln s at hand: the interpolant's, the cell's bound
    and, for the second step, the exact one at the value.  Near a kink the
    interpolant's slope alone can be far too small, or negative."""
    table = op.inverse_table
    out = np.full_like(s, np.nan)
    if table is None:
        return out
    y0, y1, inv_dy, c0, c1, c2, c3, top = table
    with np.errstate(all="ignore"):
        for start in range(0, s.size, _BLOCK):
            sb = s[start:start + _BLOCK]
            y = np.log(sb)
            yc = np.clip(y, y0, y1)
            u = (yc - y0) * inv_dy
            k = np.minimum(u.astype(np.intp), c0.size - 1)
            u -= k
            a1, a2, a3 = c1[k], c2[k], c3[k]
            x = c0[k] + u * (a1 + u * (a2 + u * a3))
            slope = (a1 + u * (2.0 * a2 + 3.0 * u * a3)) * inv_dy
            bound = np.maximum(slope, top[k])
            x -= _log_ratio(op, x, sb) * slope
            res = _log_ratio(op, x, sb)
            ok = (slope > 0) & (np.abs(res) * bound <= _REL_TOL / 4.0)
            redo = np.flatnonzero(~ok & (yc == y))
            if redo.size:
                m = _log_slope(op, x[redo])
                x[redo] -= res[redo] * m
                ok[redo] = (m > 0) & (np.abs(_log_ratio(op, x[redo], sb[redo]))
                                      * np.maximum(m, bound[redo]) <= _REL_TOL / 4.0)
            out[start:start + _BLOCK] = np.where(ok & (yc == y), np.exp(x), np.nan)
    return out


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
    big_phi = head + prefix_trapezoid(hh, tt)
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
    # each distinct argument is inverted once: the n*n products s1*s2
    # repeat, and s2 runs over the n values of ss
    products, slot = np.unique(s1 * np.tile(ss, n), return_inverse=True)
    mid = h_inverse(op, products)[slot]
    psi_under = np.tile(env.psi_under(ss), n)
    psi_bar = psi_under if env.psi_bar is env.psi_under else np.tile(env.psi_bar(ss), n)
    lower = env.k_under * env.theta_under(s1) * psi_under
    upper = env.k_bar * env.theta_bar(s1) * psi_bar
    scale = np.maximum(np.abs(mid), 1e-300)
    viol_low = np.maximum(lower - mid, 0.0) / scale
    viol_up = np.maximum(mid - upper, 0.0) / scale
    return float(max(np.max(viol_low), np.max(viol_up)))
