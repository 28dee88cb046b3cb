"""Radial grids, prefix integration, the radial averaging kernel, and the
improper-limit probe.

Everything downstream (the fixed-point solver, the integral criteria, the
oracles) is built from three primitives:

* prefix trapezoid integration along a node array,
* the kernel  K[w](t) = t^(1-N) * integral_0^t s^(N-1) w(s) ds,
* a heuristic probe (``verdict_from_trace``) that decides from its values
  at the radii of a ``ProbeSchedule`` whether a nondecreasing functional of
  the truncation radius converges or diverges as the radius grows; the
  schedule holds and validates every setting of the probe.

The kernel integrates s^(N-1) times the piecewise-linear interpolant of the
samples exactly on each panel (closed-form moments of s^(N-1)), so constant
and linear integrands are reproduced to roundoff.  Plain trapezoid applied
to the product s^(N-1) w(s) would lose several digits near the origin.

The moments depend only on the nodes and N, so they live in a ``KernelPlan``
built once per (node values, N):

* **Blocks.**  The first panel, which contains 0, is a block of its own;
  from there each block runs to the last node at most twice its bottom
  radius (a single wider panel is a block too).  For a factor-2 probe
  schedule every probe-segment edge is such a doubling edge, so each outer
  segment is one block.
* **Rescaling.**  Inside a block with top radius T the prefix integral is
  carried in units of T^N: panel weights come from the nodes divided by T,
  the carry into the next block is (bottom/T)^N, and K at a node t is
  t * (T/t)^N times that sum.  No stored power exceeds 2^N, so N = 120 on
  probes reaching 16384 stays finite where the unscaled s^N and t^(1-N)
  overflowed once N * log10(R) passed about 308; the plan still overflows
  when 2^N leaves the float range (N from about 1025).
* **Row sharing.**  Blocks whose scaled nodes are bitwise equal share one
  row of weights and output factors.  The 14 outer segments of the default
  schedule are power-of-two scalings of one another, so that plan stores
  8192 panels (about 0.2 MB) for 61,440: the first segment's 4096 in 13
  rows and one row that every outer segment shares.
* **Cache.**  Plans live in the package's one ``BoundedCache`` policy,
  which also keeps growth-budget probe values (8), operators (2),
  nonlinearities (2) and derived envelopes (2).  ``radial_kernel_at``
  finds its plan by a signature (size, N, first and last node) and
  confirms it by comparing every node value, so a node array changed in
  place gets a new plan.  Up to eight plans are kept, least recently used
  out first, and the plan of a node array that owns its read-only memory
  (a probe grid, a ``RadialGrid``) holds it weakly and drops its weights
  when the array is freed; such a released plan leaves the cache before
  the next lookup.  Each plan is built once under a lock, so threads
  share it.
* **Applying.**  Per stretch of blocks, two multiplies and an add give the
  panel increments, one cumulative sum per block (one for all the blocks
  that repeat a row) and a carry at each block edge give the prefix, and
  one multiply each by the output factors and by t give K.  The second
  multiply goes, 4096 panels at a time, to a scratch row that each thread
  keeps, so a call allocates only its output.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._memo import BoundedCache

__all__ = [
    "RadialGrid",
    "LimitVerdict",
    "ProbeSchedule",
    "NumericsError",
    "KernelPlan",
    "central_diff",
    "half_widths",
    "prefix_trapezoid",
    "radial_kernel_at",
    "verdict_from_trace",
]


class NumericsError(RuntimeError):
    """A computation produced a non-finite value; base of every numeric failure."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid 0 = r_0 < r_1 < ... < r_n = r_max; the nodes are read-only."""

    r_max: float
    step: float
    nodes: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not (0 < self.r_max < math.inf and 0 < self.step < math.inf):
            raise ValueError("r_max and step must be positive and finite")
        if not math.isfinite(float(self.r_max) / float(self.step)):
            raise ValueError("r_max / step must be a finite node count")
        n = max(1, int(round(self.r_max / self.step)))
        # owned and read-only, so kernel plans hold it instead of a copy
        nodes = np.linspace(0.0, self.r_max, n + 1).copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "step", self.r_max / n)

    def __len__(self):
        return len(self.nodes)


def prefix_trapezoid(values: np.ndarray, xs: np.ndarray,
                     half: np.ndarray | None = None) -> np.ndarray:
    """Running trapezoid integral of samples ``values`` at nodes ``xs``.

    Works for any strictly increasing node array; the first entry is 0.
    ``half`` holds the half-widths ``0.5 * np.diff(xs)`` when the caller
    keeps them (a criteria evaluator computes them once for its grid);
    else they are computed here.  The sum is formed inside the output array, so
    that is the only full-length allocation when ``half`` is given, and the
    result is bit for bit that of ``np.diff(xs) * (v[1:] + v[:-1]) * 0.5``,
    since halving is exact.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if values.shape != xs.shape:
        raise ValueError("values and nodes differ in length")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite input sample")
    if half is None:
        half = half_widths(xs)
    out = np.empty_like(values)
    out[0] = 0.0
    body = out[1:]
    np.add(values[1:], values[:-1], out=body)
    body *= half
    body.cumsum(out=body)
    return out


def half_widths(xs: np.ndarray) -> np.ndarray:
    """Read-only half panel widths ``0.5 * np.diff(xs)`` of a node array."""
    half = np.diff(xs)
    half *= 0.5
    half.flags.writeable = False
    return half


def central_diff(values: np.ndarray, step: float) -> np.ndarray:
    """Derivative of samples on a uniform grid: central differences inside,
    one-sided differences at both ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * step)
    out[0] = (values[1] - values[0]) / step
    out[-1] = (values[-1] - values[-2]) / step
    return out


# ---------------------------------------------------------------------------
# Radial kernel

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


class KernelPlan:
    """Read-only kernel plan of one node array and dimension.

    ``weights`` holds three arrays (c0, c1, output factor), each with the
    rows of every distinct block geometry side by side.  ``runs`` groups
    the blocks for ``apply``: ``(start, shape, c0, c1, scale, cuts)``
    covers the panels from node ``start`` on as a ``shape`` matrix with
    weight views ``c0, c1, scale``.  One row of several blocks, cut at
    ``cuts = ((begin, end, carry), ...)``, is a stretch of blocks whose
    rows lie side by side in the weights; several rows are consecutive
    blocks that share one row of weights, and ``cuts`` is their carry.

    A node array that owns its read-only memory is taken as immutable and
    held by weak reference: when it is freed the plan drops its weights, so
    a grid's plan does not outlive the grid.  Any other node array, such
    as a writable one or a view, is copied.

    Rejects, with ValueError, a dimension below 1 and nodes that are not
    finite, strictly increasing and starting at 0; raises NumericsError
    when an output factor overflows.
    """

    def __init__(self, nodes: np.ndarray, dim):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if nodes.ndim != 1 or nodes.size == 0 or nodes[0] != 0.0:
            raise ValueError("kernel grid must start at 0")
        if not (np.all(np.isfinite(nodes)) and np.all(nodes[1:] > nodes[:-1])):
            raise ValueError("kernel nodes must be finite and strictly increasing")

        rows: dict = {}  # bytes of the scaled nodes -> offset in the weights
        edges = []
        start = width = 0
        while start < nodes.size - 1:
            top_at = int(np.searchsorted(nodes, 2.0 * nodes[start], side="right")) - 1
            stop = max(start + 1, top_at)
            key = (nodes[start:stop + 1] / nodes[stop]).tobytes()
            if key not in rows:
                rows[key] = width
                width += stop - start
            edges.append((start, stop, rows[key]))
            start = stop
        weights = tuple(np.empty(width) for _ in range(3))
        carries = {}
        with np.errstate(over="ignore"):
            for key, offset in rows.items():
                x = np.frombuffer(key)
                cols = slice(offset, offset + x.size - 1)
                carries[offset] = _block_weights(x, dim, [w[cols] for w in weights])
        for w in weights:
            w.flags.writeable = False
        if not np.all(np.isfinite(weights[2])):
            raise NumericsError(
                f"radial kernel overflowed (dimension {dim}: 2^N leaves the float range)")
        runs: list = []  # [start, row count, panels per row, offset, cuts]
        for start, stop, offset in edges:
            n, carry = stop - start, carries[offset]
            last = runs[-1] if runs else None
            if last and last[3] == offset and last[2] == n and len(last[4]) == 1:
                last[1] += 1
            elif last and last[1] == 1 and last[3] + last[2] == offset:
                last[4].append((last[2], last[2] + n, carry))
                last[2] += n
            else:
                runs.append([start, 1, n, offset, [(0, n, carry)]])
        runs = tuple(
            (start, (count, n), *(w[offset:offset + n] for w in weights),
             tuple(cuts) if count == 1 else cuts[0][2])
            for start, count, n, offset, cuts in runs)
        # a list, so that the weak reference's callback can empty it
        self._held = [weights, runs]
        # only an array that owns its read-only memory cannot change under us
        if nodes.flags.writeable or nodes.base is not None:
            nodes = nodes.copy()
            nodes.flags.writeable = False
            self._nodes = lambda: nodes
        else:
            self._nodes = weakref.ref(nodes, lambda _, held=self._held: held.clear())

    @property
    def nodes(self) -> np.ndarray | None:
        """The node array; None once a read-only one has been freed."""
        return self._nodes()

    @property
    def released(self) -> bool:
        """True once the node array has been freed and the weights dropped."""
        return not self._held

    @property
    def weights(self) -> tuple:
        return self._held[0] if self._held else ()

    @property
    def runs(self) -> tuple:
        return self._held[1] if self._held else ()

    def apply(self, values: np.ndarray) -> np.ndarray:
        """K[w] at the nodes from the samples ``values`` of w; the caller
        holds the node array, so the weights stay alive."""
        out = np.empty_like(values)
        out[0] = 0.0
        tmp = _scratch()
        carried = 0.0
        for start, shape, c0, c1, scale, cuts in self.runs:
            stop = start + shape[0] * shape[1]
            seg = out[start + 1:stop + 1].reshape(shape)
            np.multiply(c0, values[start:stop].reshape(shape), out=seg)
            above = values[start + 1:stop + 1].reshape(shape)
            # as many whole rows as fit the scratch, or one row in pieces
            rows = max(1, _SCRATCH_SIZE // shape[1])
            for top in range(0, shape[0], rows):
                for lo in range(0, shape[1], _SCRATCH_SIZE):
                    cols = slice(lo, lo + _SCRATCH_SIZE)
                    part = above[top:top + rows, cols]
                    seg[top:top + rows, cols] += np.multiply(
                        c1[cols], part, out=tmp[:part.size].reshape(part.shape))
            if shape[0] == 1:
                for begin, end, carry in cuts:
                    block = seg[0, begin:end]
                    block[0] += carry * carried
                    block.cumsum(out=block)
                    carried = block[-1]
            else:
                seg.cumsum(axis=1, out=seg)
                lifts = np.empty(shape[0])
                for i, local in enumerate(seg[:, -1].tolist()):
                    lifts[i] = cuts * carried
                    carried = local + lifts[i]
                seg += lifts[:, None]
            seg *= scale
        out[1:] *= self.nodes[1:]
        return out


# the scratch row of each thread: small, because a wider row kept between
# calls fragments the heap (8192 floats raised solve peak RSS by 1 MB)
_SCRATCH_SIZE = 4096
_SCRATCH = threading.local()


def _scratch() -> np.ndarray:
    """This thread's scratch row, kept between calls so that applying a
    plan allocates only its output."""
    row = getattr(_SCRATCH, "row", None)
    if row is None:
        row = _SCRATCH.row = np.empty(_SCRATCH_SIZE)
    return row


# a report probes one grid per dimension, the solver one more, the oracle
# N-2; a plan whose node array was freed is dropped before every lookup
_PLANS = BoundedCache(8, stale=lambda plan: plan.released)


def radial_kernel_at(values: np.ndarray, dim: int, xs: np.ndarray) -> np.ndarray:
    """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds at nodes ``xs``.

    ``xs`` must start at 0, where K is 0 by the integrand limit, and be
    strictly increasing.  A non-finite input sample or a length mismatch
    raises ValueError; a kernel that overflows on finite input raises
    NumericsError.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if values.shape != xs.shape:
        raise ValueError("values and nodes differ in length")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite input sample")
    # the node array a plan was confirmed against keeps its weights alive
    anchor = [xs]

    def fits(plan: KernelPlan) -> bool:
        nodes = plan.nodes
        if nodes is None or not np.array_equal(nodes, xs):
            return False
        anchor[0] = nodes
        return True

    key = (xs.size, dim, float(xs[0]), float(xs[-1])) if xs.size else None
    plan = _PLANS.get(key, lambda: KernelPlan(xs, dim), fits)
    # an overflow is reported once, by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        out = plan.apply(values)
    del anchor  # held through apply: the plan's weights live while its nodes do
    if not np.all(np.isfinite(out)):
        raise NumericsError("radial kernel overflowed (dimension too large for this range)")
    return out


# ---------------------------------------------------------------------------
# Improper-limit probe

@dataclass(frozen=True)
class ProbeSchedule:
    """Every setting of the improper-limit probe: the radii r0 * factor**k
    for k < count, ``segment_nodes`` panels per probe segment, and the
    verdict tolerances.  A degenerate setting raises ValueError."""

    r0: float = 1.0
    factor: float = 2.0
    count: int = 15
    segment_nodes: int = 4096
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

    def verdict(self, values) -> LimitVerdict:
        """Limit verdict of a functional from its values at ``radii()``."""
        return verdict_from_trace(self.radii().tolist(), values,
                                  self.tail_tol, self.blowup_threshold)


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
    values = [float(v) for v in values]
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
                            note=f"increments not decaying (last ratios {np.round(ratios, 3).tolist()})",
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
