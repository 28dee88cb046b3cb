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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RadialGrid",
    "LimitVerdict",
    "ProbeSchedule",
    "NumericsError",
    "central_diff",
    "prefix_trapezoid",
    "radial_kernel_at",
    "verdict_from_trace",
]


class NumericsError(RuntimeError):
    """A computation produced a non-finite value; base of every numeric failure."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid 0 = r_0 < r_1 < ... < r_n = r_max."""

    r_max: float
    step: float
    nodes: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not (self.r_max > 0 and self.step > 0):
            raise ValueError("r_max and step must be positive")
        n = max(1, int(round(self.r_max / self.step)))
        nodes = np.linspace(0.0, self.r_max, n + 1)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "step", self.r_max / n)

    def __len__(self):
        return len(self.nodes)


def prefix_trapezoid(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples ``values`` at nodes ``xs``.

    Works for any strictly increasing node array; the first entry is 0.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if values.shape != xs.shape:
        raise ValueError("values and nodes differ in length")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite input sample")
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(np.diff(xs) * (values[1:] + values[:-1]) * 0.5, out=out[1:])
    return out


def central_diff(values: np.ndarray, step: float) -> np.ndarray:
    """Derivative of samples on a uniform grid: central differences inside,
    one-sided differences at both ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * step)
    out[0] = (values[1] - values[0]) / step
    out[-1] = (values[-1] - values[-2]) / step
    return out


def _panel_moments(xs: np.ndarray, dim: int):
    """Weights (c0, c1) with integral_{x_k}^{x_k+1} s^(dim-1) w(s) ds
    = c0_k w_k + c1_k w_k+1 for piecewise-linear w.  Both are nonnegative,
    so nonnegative samples integrate to nonnegative prefix sums."""
    lo = xs[:-1]
    hi = xs[1:]
    dx = hi - lo
    pn = (hi ** dim - lo ** dim) / dim
    pn1 = (hi ** (dim + 1) - lo ** (dim + 1)) / (dim + 1)
    c0 = (hi * pn - pn1) / dx
    c1 = (pn1 - lo * pn) / dx
    return c0, c1


def radial_kernel_at(values: np.ndarray, dim: int, xs: np.ndarray) -> np.ndarray:
    """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds at nodes ``xs``.

    ``xs`` must start at 0, where K is 0 by the integrand limit.  A
    non-finite input sample raises ValueError; a kernel that overflows on
    finite input raises NumericsError.
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if xs[0] != 0.0:
        raise ValueError("kernel grid must start at 0")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite input sample")
    # an overflow is reported once, by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        c0, c1 = _panel_moments(xs, dim)
        prefix = np.empty_like(values)
        prefix[0] = 0.0
        np.cumsum(c0 * values[:-1] + c1 * values[1:], out=prefix[1:])
        out = np.empty_like(values)
        out[0] = 0.0
        out[1:] = prefix[1:] * xs[1:] ** (1 - dim)
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
                (self.tail_tol > 0, "tail_tol must be positive"),
                (self.blowup_threshold > 0, "blowup_threshold must be positive")):
            if not ok:
                raise ValueError(rule)
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "segment_nodes", int(self.segment_nodes))

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
    if any(not np.isfinite(v) for v in values):
        k = next(i for i, v in enumerate(values) if not np.isfinite(v))
        return LimitVerdict("divergent", note=f"non-finite value at radius {radii[k]:g}",
                            probes=tuple(zip(radii, values)))
    trace = tuple(zip(radii, values))
    last = values[-1]
    if last > blowup_threshold:
        return LimitVerdict("divergent", note="value exceeded blow-up threshold",
                            probes=trace)

    diffs = np.diff(values)
    if len(diffs) < _DECAY_WINDOW:
        return LimitVerdict("indeterminate", note="schedule too short", probes=trace)
    # nondecreasing F: clip tiny negative float noise
    diffs = np.where(diffs > -1e-12 * (1.0 + np.abs(last)), np.maximum(diffs, 0.0), diffs)
    if np.any(diffs < 0):
        return LimitVerdict("indeterminate", note="functional decreased between probes",
                            probes=trace)

    # the asymptotic call is made from the trailing window of increments
    window = diffs[-_DECAY_WINDOW:]
    ratios = np.empty(_DECAY_WINDOW - 1)
    for j in range(1, _DECAY_WINDOW):
        if window[j - 1] > 0:
            ratios[j - 1] = window[j] / window[j - 1]
        else:
            ratios[j - 1] = np.inf if window[j] > 0 else 0.0

    if window[-1] > 0 and np.all(ratios >= _DECAY_RATIO):
        return LimitVerdict("divergent",
                            note=f"increments not decaying (last ratios {np.round(ratios, 3).tolist()})",
                            probes=trace)

    # an increment still growing near the end of the schedule rules out a
    # finite call, no matter how small the values are
    if np.any(ratios > 1.0 + 1e-9):
        return LimitVerdict("indeterminate", note="increments still growing",
                            probes=trace)

    if diffs[-1] == 0.0:
        return LimitVerdict("finite", value=last, error=0.0,
                            note="increments vanished", probes=trace)

    rho = float(np.max(ratios))
    if rho < 1.0:
        tail = float(diffs[-1]) * rho / (1.0 - rho) if rho > 0 else 0.0
        if tail < tail_tol:
            return LimitVerdict("finite", value=last, error=tail,
                                note=f"geometric decay, ratio about {rho:.3g}",
                                probes=trace)
        return LimitVerdict("indeterminate",
                            note=f"tail estimate {tail:.3g} above tolerance {tail_tol:g}",
                            probes=trace)
    return LimitVerdict("indeterminate", note="no usable decay pattern", probes=trace)
