"""Radial grids, prefix integration, the radial averaging kernel, and the
improper-limit probe.

Everything downstream (the fixed-point solver, the integral criteria, the
oracles) is built from three primitives:

* prefix integration along a node array,
* the kernel  K[w](t) = t^(1-N) * integral_0^t s^(N-1) w(s) ds,
* a heuristic probe (``verdict_from_trace``) that decides from its values
  at the radii of a ``ProbeSchedule`` whether a nondecreasing functional of
  the truncation radius converges or diverges as the radius grows; the
  schedule holds and validates every setting of the probe.

The first two come in two layers, both reached through ``prefix_trapezoid``
and ``radial_kernel_at``:

* **Panels** (``PanelLayout``, passed as ``panels=``), for the criteria
  probes: n + 1 Chebyshev–Lobatto points per segment and spectral
  integration (Greengard 1991; Trefethen, ATAP ch. 19), exact to roundoff
  on smooth samples; a kink inside a panel costs that panel its spectral
  accuracy.
* **Trapezoid** (``LinearPanels``, built for the call when no layout is
  passed) on any node array, for the solver, the oracles and the
  solution bounds on a solve grid: a running trapezoid sum, and a kernel
  that integrates s^(N-1) times the piecewise-linear interpolant of the
  samples exactly on each panel (closed-form moments of s^(N-1)), so
  constant and linear integrands are reproduced to roundoff.  Plain
  trapezoid applied to the product s^(N-1) w(s) would lose several digits
  near the origin.

The trapezoid moments depend only on the nodes and N, so a
``LinearPanels`` layout builds them once per N on first use and keeps them:

* **Blocks.**  The first panel, which contains 0, is a block of its own;
  from there each block runs to the last node at most twice its bottom
  radius (a single wider panel is a block too).
* **Rescaling.**  Inside a block with top radius T the prefix integral is
  carried in units of T^N: panel weights come from the nodes divided by T,
  the carry into the next block is (bottom/T)^N, and K at a node t is
  t * (T/t)^N times that sum.  No stored power exceeds 2^N, so N = 120 on
  probes reaching 16384 stays finite where the unscaled s^N and t^(1-N)
  overflowed once N * log10(R) passed about 308; the weights still
  overflow when 2^N leaves the float range (N from about 1025).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid",
    "LimitVerdict",
    "ProbeSchedule",
    "NumericsError",
    "LinearPanels",
    "PanelLayout",
    "prefix_trapezoid",
    "radial_kernel_at",
    "verdict_from_trace",
]


class NumericsError(RuntimeError):
    """A computation produced a non-finite value; base of every numeric failure."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid 0 = r_0 < r_1 < ... < r_n = r_max.  ``panels``, the
    ``LinearPanels`` layout of the read-only ``nodes``, is built on first
    use, so a grid that no solve reads costs no node array."""

    r_max: float
    step: float

    def __post_init__(self):
        if not (0 < self.r_max < math.inf and 0 < self.step < math.inf):
            raise ValueError("r_max and step must be positive and finite")
        if not math.isfinite(float(self.r_max) / float(self.step)):
            raise ValueError("r_max / step must be a finite node count")
        n = max(1, int(round(self.r_max / self.step)))
        object.__setattr__(self, "step", self.r_max / n)

    @functools.cached_property
    def panels(self) -> LinearPanels:
        """The grid's own layout, so a solve builds its kernel weights once
        and they are freed with the grid; r_max / step rounds back to the
        panel count."""
        n = int(round(self.r_max / self.step))
        return LinearPanels(np.linspace(0.0, self.r_max, n + 1))

    @property
    def nodes(self) -> np.ndarray:
        return self.panels.nodes

    def __len__(self):
        return len(self.nodes)


def prefix_trapezoid(values: np.ndarray, xs: np.ndarray, *,
                     panels: LinearPanels | PanelLayout | None = None) -> np.ndarray:
    """Running integral of samples ``values`` at nodes ``xs``, each row of
    any leading axes as it would be alone; the first entry is 0.

    ``panels`` is the layout whose nodes ``xs`` are: a ``LinearPanels``
    sums trapezoids, a ``PanelLayout`` integrates on its Chebyshev–Lobatto
    panels, spectrally.  Without one, the trapezoid rule runs on a layout
    built for this call, so ``xs`` must be finite and strictly increasing.
    """
    values, xs = _samples(values, xs)
    return _layout(panels, xs).prefix(values)


# ---------------------------------------------------------------------------
# Radial kernel

def radial_kernel_at(values: np.ndarray, dim: int, xs: np.ndarray, *,
                     panels: LinearPanels | PanelLayout | None = None) -> np.ndarray:
    """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds at nodes ``xs``,
    each row of any leading axes of ``values`` as it would be alone.

    ``xs`` must start at 0, where K is 0 by the integrand limit, and be
    strictly increasing; ``panels`` is the layout whose nodes ``xs`` are,
    and without one the trapezoid kernel runs on a layout built for this
    call.  A dimension that is not a whole number >= 1, a non-finite input
    sample or a length mismatch raises ValueError; a kernel that overflows
    on finite input raises NumericsError.  On Chebyshev–Lobatto panels an
    interpolant can undershoot next to a kink, so there K of a row of
    nonnegative samples is clipped at 0, which it cannot be below.
    """
    if isinstance(dim, (bool, np.bool_)) or not (dim >= 1 and float(dim).is_integer()):
        raise ValueError(f"dimension must be a whole number >= 1, not {dim!r}")
    values, xs = _samples(values, xs)
    panels = _layout(panels, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = panels.kernel(values, int(dim))
    if isinstance(panels, PanelLayout):
        np.maximum(out, 0.0, out=out, where=np.minimum.reduce(values, -1, keepdims=True) >= 0.0)
    if not np.isfinite(out).all():
        raise NumericsError("radial kernel overflowed (dimension too large for this range)")
    return out


def _samples(values, xs) -> tuple:
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if values.shape[-1:] != xs.shape:
        raise ValueError("values and nodes differ in length")
    if not np.isfinite(values).all():
        raise ValueError("non-finite input sample")
    return values, xs


def _layout(panels, xs: np.ndarray):
    """The layout to run on: ``panels``, checked against ``xs``, or a new
    ``LinearPanels`` of ``xs``."""
    if panels is None:
        return LinearPanels(xs)
    if xs is not panels.nodes and not np.array_equal(xs, panels.nodes):
        raise ValueError("nodes are not those of the panel layout")
    return panels


def _block_weights(x: np.ndarray, dim, out: list) -> float:
    """Weights of one block from its nodes ``x`` divided by its top radius T.

    Writes into the three arrays ``out`` the panel moments (c0, c1), with
    integral s^(N-1) w(s) ds / T^N = c0_k w_k + c1_k w_k+1 over panel k,
    and the output factors (T/t)^N at the nodes above the bottom one;
    returns the carry (bottom/T)^N.  Both moments are nonnegative, so
    nonnegative samples integrate to nonnegative prefix sums."""
    # powers are taken per node, not per panel, so the rounding of a node's
    # power cancels between its two panels in the prefix sum
    p = x ** dim
    q = x ** (dim + 1)
    np.power(x[1:], -dim, out=out[2])
    lo, hi = x[:-1], x[1:]
    dx = hi - lo
    pn = (p[1:] - p[:-1]) / dim
    pn1 = (q[1:] - q[:-1]) / (dim + 1)
    np.divide(hi * pn - pn1, dx, out=out[0])
    np.divide(pn1 - lo * pn, dx, out=out[1])
    return float(p[0])


class LinearPanels:
    """Read-only piecewise-linear panels between the nodes of an array.

    ``prefix`` sums trapezoids with the half panel widths the layout
    holds.  ``kernel`` integrates s^(N-1) times the linear interpolant of
    the samples exactly on each panel, in the blocks and units of the
    module docstring; its weights are built on first use for each N and
    kept on the layout, so they live as long as it does.

    Takes its own read-only copy of the nodes.  Rejects, with ValueError,
    nodes that are not a nonempty, finite and strictly increasing array,
    and, for the kernel, nodes that do not start at 0; raises
    NumericsError when an output factor of the kernel overflows.
    """

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes must be a nonempty 1-d array")
        if not (np.all(np.isfinite(nodes)) and np.all(nodes[1:] > nodes[:-1])):
            raise ValueError("nodes must be finite and strictly increasing")
        nodes.flags.writeable = False
        self.nodes = nodes
        self._half = np.diff(nodes) * 0.5
        self._half.flags.writeable = False
        self._weights: dict = {}

    def prefix(self, values: np.ndarray) -> np.ndarray:
        """Running trapezoid integral of the samples ``values`` from the
        first node.  The sum is formed inside the output, the only
        full-length allocation, and equals
        ``np.diff(xs) * (v[1:] + v[:-1]) * 0.5`` bit for bit, since halving
        is exact."""
        out = np.empty_like(values)
        out[..., 0] = 0.0
        body = out[..., 1:]
        np.add(values[..., 1:], values[..., :-1], out=body)
        body *= self._half
        body.cumsum(axis=-1, out=body)
        return out

    def weights(self, dim: int) -> tuple:
        """Read-only kernel weights of dimension ``dim``: the panel moments
        c0 and c1, the output factors, and the blocks as
        ``(begin, end, carry)`` panel ranges."""
        if dim not in self._weights:
            self._weights[dim] = self._kernel_weights(dim)
        return self._weights[dim]

    def _kernel_weights(self, dim: int) -> tuple:
        nodes = self.nodes
        if nodes[0] != 0.0:
            raise ValueError("kernel grid must start at 0")
        weights = tuple(np.empty(nodes.size - 1) for _ in range(3))
        blocks = []
        start = 0
        with np.errstate(over="ignore"):
            while start < nodes.size - 1:
                top_at = int(np.searchsorted(nodes, 2.0 * nodes[start], side="right")) - 1
                stop = max(start + 1, top_at)
                carry = _block_weights(nodes[start:stop + 1] / nodes[stop], dim,
                                       [w[start:stop] for w in weights])
                blocks.append((start, stop, carry))
                start = stop
        for w in weights:
            w.flags.writeable = False
        if not np.all(np.isfinite(weights[2])):
            raise NumericsError(
                f"radial kernel overflowed (dimension {dim}: 2^N leaves the float range)")
        return (*weights, tuple(blocks))

    def kernel(self, values: np.ndarray, dim: int) -> np.ndarray:
        """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds at the nodes.

        Per block: the panel increments, its carry added to the first, a
        running sum, then the output factors and t."""
        c0, c1, scale, blocks = self.weights(dim)
        out = np.empty_like(values)
        out[..., 0] = 0.0
        body = out[..., 1:]
        np.multiply(c0, values[..., :-1], out=body)
        body += c1 * values[..., 1:]
        # nodes first, so on 1-d samples a block's first entry is a number
        carried, nodes = 0.0, body.T
        for begin, end, carry in blocks:
            block = nodes[begin:end]
            block[0] += carry * carried
            block.cumsum(axis=0, out=block)
            carried = block[-1]
        body *= scale
        body *= self.nodes[1:]
        return out


# ---------------------------------------------------------------------------
# Chebyshev–Lobatto panels

# The panel tables take their few sines and cosines from ``math``: numpy's
# vector trigonometry would page in its code only for them, and
# a process's peak RSS counts those pages.

def _lobatto(n: int) -> np.ndarray:
    """The n + 1 Chebyshev–Lobatto points of [0, 1], ascending, ends exact."""
    t = np.array([math.sin(j * (0.5 * math.pi / n)) ** 2 for j in range(n + 1)])
    t[0], t[-1] = 0.0, 1.0
    return t


def _gauss_legendre(q: int) -> tuple:
    """Points and weights of the q-point Gauss–Legendre rule on [-1, 1], by
    Newton's method on the three-term recurrence of P_q; at q = 558 this
    integrates x^1099 about 300 times more accurately than the eigenvalue
    route of ``numpy.polynomial.legendre.leggauss``, and it needs no LAPACK."""
    x = np.array([math.cos(math.pi * (k - 0.25) / (q + 0.5)) for k in range(1, q + 1)])

    def slope(x):
        before, p = np.ones_like(x), x
        for j in range(2, q + 1):
            before, p = p, ((2 * j - 1) * x * p - (j - 1) * before) / j
        return p, q * (x * p - before) / (x * x - 1.0)

    for _ in range(100):
        p, dp = slope(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    dp = slope(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _panel_matrix(dim: int, n: int, rho: float) -> tuple:
    """Kernel matrix of a panel [rho, 1] with n + 1 Lobatto points u_i.

    Returns (W, decay): W[i-1, j] = integral_rho^u_i (s/u_i)^(dim-1) l_j(s) ds
    for i = 1..n, with l_j the Lagrange basis of the points, and
    decay[i-1] = (rho/u_i)^(dim-1).  The integrand is a polynomial of degree
    dim - 1 + n, so Gauss–Legendre on ceil((dim + n) / 2) points is exact;
    l_j is summed from its Chebyshev coefficients, so no point of one set
    needs to avoid the other.  Cost O(n^2 (dim + n))."""
    t = _lobatto(n)
    u = rho + (1.0 - rho) * t[1:]
    g, omega = _gauss_legendre((dim + n + 1) // 2)
    moments = np.empty((n, n + 1))
    # rows in blocks of about 32k Gauss points, which stay in cache
    block = max(1, 32768 // g.size)
    for top in range(0, n, block):
        rows = slice(top, top + block)
        # Gauss points of [rho, u_i], in the panel's Chebyshev variable
        half = t[1:][rows, None] * (1.0 + g)
        s = rho + (1.0 - rho) * 0.5 * half
        wts = omega * (0.5 * (u[rows] - rho))[:, None] * (s / u[rows, None]) ** (dim - 1)
        # moments of T_0 .. T_n by the three-term recurrence
        twice = 2.0 * (half - 1.0)
        prev, cur, spare = np.ones_like(half), half - 1.0, np.empty_like(half)
        moments[rows, 0] = wts.sum(axis=1)
        moments[rows, 1] = np.einsum("iq,iq->i", wts, cur)
        for k in range(2, n + 1):
            np.multiply(twice, cur, out=spare)
            spare -= prev
            prev, cur, spare = cur, spare, prev
            moments[rows, k] = np.einsum("iq,iq->i", wts, cur)
    # Chebyshev coefficients from the values at the points: discrete
    # orthogonality of T_k at -cos(pi j / n), the end terms halved
    cosines = np.array([math.cos(m * math.pi / n) * (2.0 / n) for m in range(2 * n)])
    coef = cosines[np.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)]
    coef[:, [0, n]] *= 0.5
    coef[[0, n], :] *= 0.5
    coef[1::2, :] *= -1.0
    # einsum, not matmul: small products that need no BLAS buffers
    matrix = np.einsum("ik,kj->ij", moments, coef)
    decay = (rho / u) ** (dim - 1)
    matrix.flags.writeable = False
    decay.flags.writeable = False
    return matrix, decay


class PanelLayout:
    """Read-only Chebyshev–Lobatto panels between increasing ``edges``.

    Each segment [lo, hi] holds ``n`` + 1 Lobatto points, so the node array
    has n * (segments) + 1 entries and ``nodes[n * k]`` is ``edges[k]``
    exactly.  ``prefix`` integrates samples with the spectral integration
    matrix of [0, 1], scaled by the panel width, and carries each panel's
    total into the next.  ``kernel`` takes, for every panel,
    K(x_i) = (lo/x_i)^(N-1) K(lo) + hi * sum_j W_ij w_j, with
    W_ij = integral (s/x_i)^(N-1) l_j(s) ds over [lo, x_i] in units of hi;
    W depends only on (N, n, lo/hi), the ratios of a geometric layout
    repeat, so one matrix per ratio serves all its panels, and no stored
    power exceeds 1.  For each N the layout builds one matrix per ratio on
    first use, stacks its panels' matrices and decays and keeps them, so a
    kernel is one batched product; it keeps the integration matrix from its
    first prefix the same way.  Nothing is shared between layouts: a new
    layout builds its matrices again.

    Rejects, with ValueError, edges that do not start at 0 or are not
    finite and strictly increasing, and fewer than 2 points per segment.
    """

    def __init__(self, edges, n: int):
        edges = np.array(edges, dtype=float)
        if n < 2 or edges.size < 2 or edges[0] != 0.0:
            raise ValueError("panel edges must start at 0 and panels need >= 2 points")
        lo, hi = edges[:-1], edges[1:]
        if not (np.isfinite(edges).all() and (hi > lo).all()):
            raise ValueError("panel edges must be finite and strictly increasing")
        nodes = np.empty(lo.size * n + 1)
        nodes[0] = 0.0
        body = nodes[1:].reshape(lo.size, n)
        body[:] = lo[:, None] + (hi - lo)[:, None] * _lobatto(n)[1:]
        body[:, -1] = hi
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("panel nodes must be strictly increasing")
        nodes.flags.writeable = False
        self.nodes = nodes
        self.n = n
        self._widths = (hi - lo)[:, None]
        self._tops = hi[:, None]
        # the node indices of each panel, one row each; neighbours share ends
        self._index = n * np.arange(lo.size)[:, None] + np.arange(n + 1)
        ratios = lo / hi
        self._groups = tuple((rho, np.flatnonzero(ratios == rho))
                             for rho in sorted(set(ratios.tolist())))
        self._weights: dict = {}

    def _panels(self, values: np.ndarray) -> np.ndarray:
        """The samples of each panel as rows, after any leading axes, in C
        order: einsum would sum a row of the strided ``values[:, index]``
        in another order than the row alone."""
        return values.take(self._index, axis=-1)

    def _assemble(self, local: np.ndarray, start: np.ndarray) -> np.ndarray:
        out = np.empty(local.shape[:-2] + (self.nodes.size,))
        out[..., 0] = 0.0
        # splitting the last axis of out[..., 1:] gives a view
        np.add(local, start, out=out[..., 1:].reshape(local.shape))
        return out

    @functools.cached_property
    def _integral(self) -> np.ndarray:
        """The integration matrix of [0, 1], built on first use."""
        return _panel_matrix(1, self.n, 0.0)[0]

    def prefix(self, values: np.ndarray) -> np.ndarray:
        """Running integral of the samples ``values`` from 0."""
        local = np.einsum("...pj,ij->...pi", self._panels(values), self._integral)
        local *= self._widths
        # each panel starts from the totals of the panels before it
        start = np.empty(local.shape[:-1] + (1,))
        start[..., 0, 0] = 0.0
        np.cumsum(local[..., :-1, -1], axis=-1, out=start[..., 1:, 0])
        return self._assemble(local, start)

    def weights(self, dim: int) -> tuple:
        """Read-only kernel matrices and decays of dimension ``dim``, one
        per panel: shapes (panels, n, n + 1) and (panels, n)."""
        if dim not in self._weights:
            matrices = np.empty((self._index.shape[0], self.n, self.n + 1))
            decay = np.empty(matrices.shape[:2])
            for rho, panels in self._groups:
                matrices[panels], decay[panels] = _panel_matrix(dim, self.n, rho)
            matrices.flags.writeable = decay.flags.writeable = False
            self._weights[dim] = matrices, decay
        return self._weights[dim]

    def kernel(self, values: np.ndarray, dim: int) -> np.ndarray:
        """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds at the nodes."""
        matrices, decay = self.weights(dim)
        local = np.einsum("pij,...pj->...pi", matrices, self._panels(values))
        local *= self._tops
        # K at each panel's bottom edge, carried panel by panel in each
        # row, and its share (lo/x_i)^(N-1) K(lo) at the panel's nodes
        fades, starts = decay[:, -1].tolist(), []
        for ends in local[..., -1].reshape(-1, len(fades)).tolist():
            start = [0.0]
            for end, fade in zip(ends[:-1], fades):
                start.append(fade * start[-1] + end)
            starts.append(start)
        return self._assemble(local, decay * np.array(starts).reshape(local.shape[:-1] + (1,)))


# ---------------------------------------------------------------------------
# Improper-limit probe

@dataclass(frozen=True)
class ProbeSchedule:
    """Every setting of the improper-limit probe: the radii r0 * factor**k
    for k < count, ``segment_nodes`` nodes added by each probe segment (a
    panel of segment_nodes + 1 Lobatto points), and the verdict
    tolerances.  A degenerate setting raises ValueError."""

    r0: float = 1.0
    factor: float = 2.0
    count: int = 15
    segment_nodes: int = 16
    tail_tol: float = 1e-6
    blowup_threshold: float = 1e8

    def __post_init__(self):
        for ok, rule in (
                (0 < self.r0 < np.inf, "probe.r0 must be positive and finite"),
                (1 < self.factor < np.inf, "probe.factor must exceed 1 and be finite"),
                (float(self.count).is_integer(), "probe.count must be an integer"),
                (self.count >= 1, "probe.count must be at least 1"),
                (float(self.segment_nodes).is_integer(), "probe.segment_nodes must be an integer"),
                (self.segment_nodes >= 2, "probe.segment_nodes must be at least 2"),
                (0 < self.tail_tol < np.inf, "tail_tol must be positive and finite"),
                (self.blowup_threshold > 0, "blowup_threshold must be positive")):
            if not ok:
                raise ValueError(rule)
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "segment_nodes", int(self.segment_nodes))
        try:
            last = float(self.r0) * float(self.factor) ** (self.count - 1)
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise ValueError("the last probe radius, probe.r0 * probe.factor**(probe.count - 1), "
                             "must be finite")

    def radii(self) -> np.ndarray:
        return self.r0 * self.factor ** np.arange(self.count)

    @functools.cached_property
    def _radii(self) -> tuple:
        return tuple(self.radii().tolist())

    def verdict(self, values) -> LimitVerdict:
        """Limit verdict of a functional from its values at ``radii()``."""
        return verdict_from_trace(self._radii, values, self.tail_tol, self.blowup_threshold)


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of probing F(R) as R grows.

    kind is "finite", "divergent" or "indeterminate".  For a finite verdict
    ``value`` is the last probe value and ``error`` a geometric bound on the
    remaining tail.  The probe trace is retained so a verdict can be audited.
    """

    kind: str
    value: float | None = None
    error: float | None = None
    note: str = ""
    probes: tuple = ()

    @property
    def finite(self) -> bool:
        return self.kind == "finite"

    @property
    def divergent(self) -> bool:
        return self.kind == "divergent"

    @property
    def indeterminate(self) -> bool:
        return self.kind == "indeterminate"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "error": self.error,
            "note": self.note,
            "probes": [[float(r), float(v)] for r, v in self.probes],
        }


# increments whose ratios stay above this are treated as non-decaying
_DECAY_RATIO = 0.9
# number of trailing ratios inspected for sustained non-decay
_DECAY_WINDOW = 4


def _rounded(ratios: list) -> list:
    """``np.round(ratios, 3).tolist()`` of nonnegative or infinite ratios."""
    return [(round(y) if math.isfinite(y) else y) / 1000.0 for y in (r * 1000.0 for r in ratios)]


def verdict_from_trace(radii, values, tail_tol: float,
                       blowup_threshold: float) -> LimitVerdict:
    """Classify the limit of a nondecreasing functional F(R) from its values
    ``values`` at the increasing probe radii ``radii``.

    Divergent when a value is non-finite, when the last value exceeds
    ``blowup_threshold``, or when the last few increments fail to decay.
    Finite when increments decay geometrically and the geometric tail
    estimate is below ``tail_tol``.  Anything else is reported as
    indeterminate rather than guessed; a logarithmically divergent
    functional under a short schedule lands here on purpose.
    """
    values = values if isinstance(values, list) else np.asarray(values, dtype=float).tolist()
    trace = tuple(zip(radii, values))
    for k, v in enumerate(values):
        if not math.isfinite(v):
            return LimitVerdict("divergent", note=f"non-finite value at radius {radii[k]:g}",
                                probes=trace)
    last = values[-1]
    if last > blowup_threshold:
        return LimitVerdict("divergent", note="value exceeded blow-up threshold",
                            probes=trace)

    diffs = [b - a for a, b in zip(values, values[1:])]
    if len(diffs) < _DECAY_WINDOW:
        return LimitVerdict("indeterminate", note="schedule too short", probes=trace)
    # nondecreasing F: clip tiny negative float noise
    floor = -1e-12 * (1.0 + abs(last))
    diffs = [max(0.0, d) if d > floor else d for d in diffs]
    if min(diffs) < 0:
        return LimitVerdict("indeterminate", note="functional decreased between probes",
                            probes=trace)

    # the asymptotic call is made from the trailing window of increments
    window = diffs[-_DECAY_WINDOW:]
    ratios = [b / a if a > 0 else (math.inf if b > 0 else 0.0)
              for a, b in zip(window, window[1:])]

    if window[-1] > 0 and min(ratios) >= _DECAY_RATIO:
        return LimitVerdict("divergent",
                            note=f"increments not decaying (last ratios {_rounded(ratios)})",
                            probes=trace)

    # an increment still growing near the end of the schedule rules out a
    # finite call, no matter how small the values are
    rho = max(ratios)
    if rho > 1.0 + 1e-9:
        return LimitVerdict("indeterminate", note="increments still growing",
                            probes=trace)

    if diffs[-1] == 0.0:
        return LimitVerdict("finite", value=last, error=0.0,
                            note="increments vanished", probes=trace)

    if rho < 1.0:
        tail = diffs[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
        if tail < tail_tol:
            return LimitVerdict("finite", value=last, error=tail,
                                note=f"geometric decay, ratio about {rho:.3g}",
                                probes=trace)
        return LimitVerdict("indeterminate",
                            note=f"tail estimate {tail:.3g} above tolerance {tail_tol:g}",
                            probes=trace)
    return LimitVerdict("indeterminate", note="no usable decay pattern", probes=trace)
