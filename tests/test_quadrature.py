import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialphi import criteria
from radialphi import quadrature as qd
from radialphi._memo import BoundedCache


def probe(func, schedule):
    return schedule.verdict([func(r) for r in schedule.radii().tolist()])


class TestRadialGrid:
    def test_first_node_exactly_zero(self):
        assert qd.RadialGrid(2.0, 1e-3).nodes[0] == 0.0

    def test_uniform_spacing_within_ulp(self):
        # gaps between consecutive floats cannot be tighter than the ulp of
        # the node values themselves
        g = qd.RadialGrid(2.0, 1e-3)
        gaps = np.diff(g.nodes)
        assert np.max(np.abs(gaps - g.step)) <= np.spacing(g.r_max)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qd.RadialGrid(0.0, 1e-3)
        with pytest.raises(ValueError):
            qd.RadialGrid(1.0, -1.0)

    @pytest.mark.parametrize("r_max,step", [
        (np.inf, 1e-3), (np.nan, 1e-3), (2.0, np.inf),
        # finite settings whose node count is not
        (1e300, 1e-300),
    ])
    def test_rejects_non_finite(self, r_max, step):
        # used to raise OverflowError, or to accept a two-node grid
        with pytest.raises(ValueError, match="finite"):
            qd.RadialGrid(r_max, step)


class TestCumulativeIntegral:
    """Prefix trapezoid integration on RadialGrid nodes."""

    def test_constant_exact(self):
        g = qd.RadialGrid(1.0, 0.01)
        out = qd.prefix_trapezoid(np.ones(len(g)), g.nodes)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-14)

    def test_linear_exact(self):
        g = qd.RadialGrid(1.0, 0.01)
        out = qd.prefix_trapezoid(g.nodes, g.nodes)
        assert out[-1] == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_within_step_squared(self):
        g = qd.RadialGrid(1.0, 1e-3)
        out = qd.prefix_trapezoid(g.nodes ** 2, g.nodes)
        assert out[-1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rejects_non_finite(self):
        g = qd.RadialGrid(1.0, 0.1)
        vals = np.ones(len(g))
        vals[3] = np.inf
        with pytest.raises(ValueError):
            qd.prefix_trapezoid(vals, g.nodes)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_linearity(self, a, b):
        g = qd.RadialGrid(2.0, 0.01)
        w1 = np.sin(g.nodes) + 2.0
        w2 = np.exp(-g.nodes)
        lhs = qd.prefix_trapezoid(a * w1 + b * w2, g.nodes)
        rhs = a * qd.prefix_trapezoid(w1, g.nodes) + b * qd.prefix_trapezoid(w2, g.nodes)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def reference_prefix(values, xs):
    """The out-of-place formula the in-place prefix must match bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.diff(xs) * (values[1:] + values[:-1]) * 0.5)))


# far from the subnormal range, where halving would no longer be exact
samples = st.floats(-1e6, 1e6).map(lambda v: v if abs(v) > 1e-100 else 0.0)


class TestInPlacePrefix:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 1e3), samples), min_size=1, max_size=80),
           samples)
    def test_bitwise_on_random_grids(self, panels, first):
        xs = np.concatenate(([0.0], np.cumsum([w for w, _ in panels])))
        values = np.array([first] + [v for _, v in panels])
        assert np.all(np.diff(xs) > 0)
        ref = reference_prefix(values, xs)
        assert np.array_equal(qd.prefix_trapezoid(values, xs), ref)
        assert np.array_equal(qd.prefix_trapezoid(values, xs, qd.half_widths(xs)), ref)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 6.0), st.floats(-10.0, 10.0))
    def test_bitwise_on_probe_grid(self, sigma, shift):
        xs = criteria.probe_grid(qd.ProbeSchedule())[0]
        half = qd.half_widths(xs)
        values = (1.0 + xs) ** -sigma + shift * np.sin(xs)
        ref = reference_prefix(values, xs)
        assert np.array_equal(qd.prefix_trapezoid(values, xs, half), ref)
        assert np.array_equal(qd.prefix_trapezoid(values, xs), ref)

    def test_half_widths_read_only(self):
        half = qd.half_widths(np.linspace(0.0, 1.0, 11))
        assert np.allclose(half, 0.05)
        with pytest.raises(ValueError):
            half[0] = 1.0

    def test_allocates_only_its_output(self):
        # the sum, the product and the running sum all happen inside the
        # output; the rest is the finiteness mask (an eighth of the input)
        xs = np.linspace(0.0, 10.0, 61441)
        half = qd.half_widths(xs)
        values = np.exp(-xs)
        tracemalloc.start()
        try:
            qd.prefix_trapezoid(values, xs, half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * xs.nbytes


class TestRadialKernel:
    def test_constant_weight(self):
        # K[1](t) = t/N: exact for the product-panel rule
        g = qd.RadialGrid(3.0, 1e-3)
        out = qd.radial_kernel_at(np.ones(len(g)), 3, g.nodes)
        assert out[0] == 0.0
        assert np.max(np.abs(out - g.nodes / 3.0)) < 1e-8
        assert out[-1] == pytest.approx(1.0, abs=1e-8)

    def test_zero_weight(self):
        g = qd.RadialGrid(1.0, 0.01)
        assert np.all(qd.radial_kernel_at(np.zeros(len(g)), 3, g.nodes) == 0.0)

    def test_linear_weight(self):
        # w(s)=s, N=3: K(t) = t^2/4
        g = qd.RadialGrid(2.0, 1e-3)
        out = qd.radial_kernel_at(g.nodes, 3, g.nodes)
        assert np.max(np.abs(out - g.nodes ** 2 / 4.0)) < 1e-8
        assert out[-1] == pytest.approx(1.0, abs=1e-8)

    def test_higher_dimension(self):
        # w ~ 1: K(t) = t/N for any N
        g = qd.RadialGrid(1.0, 1e-3)
        out = qd.radial_kernel_at(np.ones(len(g)), 7, g.nodes)
        assert np.max(np.abs(out - g.nodes / 7.0)) < 1e-8

    def test_rejects_non_finite(self):
        g = qd.RadialGrid(1.0, 0.1)
        vals = np.ones(len(g))
        vals[-1] = np.nan
        with pytest.raises(ValueError):
            qd.radial_kernel_at(vals, 3, g.nodes)

    def test_overflow_is_numerics_error(self):
        # 2^N above the float range: even the rescaled kernel overflows
        g = qd.RadialGrid(2.0, 1e-3)
        with np.errstate(all="ignore"), pytest.raises(qd.NumericsError,
                                                      match="overflowed"):
            qd.radial_kernel_at(np.ones(len(g)), 1100, g.nodes)


def longdouble_kernels(weights, dim, xs):
    """The unscaled panel-moment kernel of each weight, in extended precision."""
    x = np.asarray(xs, dtype=np.longdouble)
    lo, hi = x[:-1], x[1:]
    # hi ** dim - lo ** dim, with each node's power taken once
    pn = np.diff(x ** dim) / dim
    pn1 = np.diff(x ** (dim + 1)) / (dim + 1)
    c0 = (hi * pn - pn1) / (hi - lo)
    c1 = (pn1 - lo * pn) / (hi - lo)
    scale = x[1:] ** (1 - dim)
    for values in weights:
        w = np.asarray(values, dtype=np.longdouble)
        out = np.zeros_like(x)
        out[1:] = np.cumsum(c0 * w[:-1] + c1 * w[1:]) * scale
        yield out


# 16384^121 overflows double but not the x87 extended format
needs_extended = pytest.mark.skipif(np.finfo(np.longdouble).maxexp < 16384,
                                    reason="long double has no extended exponent range")


@needs_extended
class TestKernelAccuracy:
    """The rescaled block kernel against the unscaled formula in long double."""

    GRIDS = {"probe": lambda: criteria.probe_grid(qd.ProbeSchedule())[0],
             "uniform": lambda: qd.RadialGrid(20.0, 1e-3).nodes}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("dim, rtol", [(1, 1e-13), (2, 1e-13), (3, 1e-13),
                                           (4, 1e-13), (10, 1e-13), (60, 1e-12),
                                           (80, 1e-12), (120, 1e-12)])
    def test_matches_extended_precision(self, grid, dim, rtol):
        xs = self.GRIDS[grid]()
        weights = [np.ones_like(xs), xs, 6.0 / (1.0 + xs ** 2), (1.0 + xs) ** -3.0]
        for w, want in zip(weights, longdouble_kernels(weights, dim, xs)):
            got = qd.radial_kernel_at(w, dim, xs)
            assert got[0] == 0.0
            assert np.all(np.abs(got[1:] - want[1:]) <= rtol * np.abs(want[1:]))


class TestKernelPlan:
    """Plans built once per node values and dimension, shared and bounded."""

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = BoundedCache(8, stale=lambda plan: plan.released)
        monkeypatch.setattr(qd, "_PLANS", fresh)
        return fresh

    def test_threads_share_one_plan(self, cache, monkeypatch):
        built = []

        class Counting(qd.KernelPlan):
            def __init__(self, nodes, dim):
                built.append(dim)
                super().__init__(nodes, dim)

        monkeypatch.setattr(qd, "KernelPlan", Counting)
        xs = criteria.probe_grid(qd.ProbeSchedule())[0]
        w = (1.0 + xs) ** -3.0
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            results[i] = qd.radial_kernel_at(w, 5, xs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == [5]
        assert all(r is not None and np.array_equal(r, results[0]) for r in results)

    def test_threads_apply_with_their_own_scratch(self, cache):
        # each thread writes its second multiply to its own scratch row; a
        # shared one would mix the rows of concurrent calls
        xs = criteria.probe_grid(qd.ProbeSchedule())[0]
        weights = [(1.0 + xs) ** -(2.0 + i) + np.cos(i * xs) ** 2 for i in range(4)]
        expected = [qd.radial_kernel_at(w, 3, xs) for w in weights]
        barrier = threading.Barrier(4)
        matched = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            matched[i] = all(np.array_equal(qd.radial_kernel_at(weights[i], 3, xs), expected[i])
                             for _ in range(10))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matched == [True] * 4

    def test_keyed_by_value_not_identity(self, cache):
        # same size and end nodes, different interior: a stale plan would
        # return K at the old nodes
        xs = np.linspace(0.0, 2.0, 2001)
        ones = np.ones_like(xs)
        assert np.allclose(qd.radial_kernel_at(ones, 3, xs), xs / 3.0, atol=1e-13)
        xs[:] = xs ** 2 / 2.0
        assert np.allclose(qd.radial_kernel_at(ones, 3, xs), xs / 3.0, atol=1e-13)
        # a read-only view changes with the array it views
        view = xs[:]
        view.flags.writeable = False
        assert np.allclose(qd.radial_kernel_at(ones, 3, view), xs / 3.0, atol=1e-13)
        xs[:] = np.sqrt(2.0 * xs)
        assert np.allclose(qd.radial_kernel_at(ones, 3, view), xs / 3.0, atol=1e-13)

    def test_plan_arrays_read_only(self, cache):
        qd.radial_kernel_at(np.ones(101), 3, np.linspace(0.0, 1.0, 101))
        (plan,) = cache._entries.values()
        arrays = [plan.nodes, *plan.weights] + [a for r in plan.runs for a in r[2:5]]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            plan.runs[0][2][0] = 1.0

    def test_grid_plan_dies_with_grid(self, cache):
        grid = qd.RadialGrid(2.0, 1e-3)
        qd.radial_kernel_at(np.ones(len(grid)), 3, grid.nodes)
        (plan,) = cache._entries.values()
        assert plan.weights and not plan.released
        del grid
        gc.collect()
        assert plan.released and plan.weights == ()
        qd.radial_kernel_at(np.ones(11), 3, np.linspace(0.0, 1.0, 11))
        assert plan not in cache._entries.values() and len(cache._entries) == 1

    def test_apply_allocates_only_its_output(self, cache):
        # the second multiply goes to this thread's scratch row, kept from
        # the first call; the rest is the finiteness mask and check
        xs = criteria.probe_grid(qd.ProbeSchedule())[0]
        w = (1.0 + xs) ** -2.0
        first = qd.radial_kernel_at(w, 3, xs)
        tracemalloc.start()
        try:
            again = qd.radial_kernel_at(w, 3, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, again)
        assert peak <= 1.3 * xs.nbytes

    def test_default_probe_plan_storage(self, cache):
        xs = criteria.probe_grid(qd.ProbeSchedule())[0]
        qd.radial_kernel_at(np.ones_like(xs), 3, xs)
        (plan,) = cache._entries.values()
        # the probe grid's own array, not a copy
        assert plan.nodes is xs
        # 13 rows for the first segment's blocks, one for all 14 outer ones,
        # applied as 14 blocks side by side and 13 that repeat the last row
        assert [w.size for w in plan.weights] == [8192] * 3
        assert [(r[0], r[1]) for r in plan.runs] == [(0, (1, 8192)), (8192, (13, 4096))]
        assert len(plan.runs[0][5]) == 14
        assert sum(w.nbytes for w in plan.weights) <= 0.25e6

    def test_rejects_unsorted_nodes(self):
        # used to return [0, 0.667, 0.333, ...] without complaint
        with pytest.raises(ValueError, match="strictly increasing"):
            qd.radial_kernel_at(np.ones(6), 3, np.array([0.0, 2.0, 1.0, 3.0, 4.0, 5.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            qd.radial_kernel_at(np.ones(5), 3, np.linspace(0.0, 1.0, 6))


class TestImproperLimitProbe:
    """verdict_from_trace on a functional sampled at the schedule radii."""

    def test_saturating_exponential(self):
        v = probe(lambda r: 1 - np.exp(-r), qd.ProbeSchedule())
        assert v.finite
        assert v.value == pytest.approx(1.0, abs=1e-6)

    def test_logarithm_diverges(self):
        v = probe(np.log1p, qd.ProbeSchedule())
        assert v.divergent

    def test_reciprocal_tail(self):
        # needs a longer schedule for the tail to pass the default tolerance
        v = probe(lambda r: 2 - 1 / r, qd.ProbeSchedule(count=25))
        assert v.finite
        assert v.value == pytest.approx(2.0, rel=1e-4)

    def test_default_schedule_reaches_16384(self):
        assert qd.ProbeSchedule().radii()[-1] == 16384.0

    @pytest.mark.parametrize("settings", [
        {"r0": 0.0}, {"r0": -1.0}, {"r0": np.inf},
        {"factor": 1.0}, {"factor": 0.5}, {"factor": np.inf},
        {"count": 0}, {"count": 1.5}, {"count": np.nan},
        {"segment_nodes": 1}, {"segment_nodes": 0}, {"segment_nodes": 2.5},
        {"tail_tol": 0.0}, {"tail_tol": -1e-6}, {"tail_tol": np.inf},
        {"blowup_threshold": 0.0},
        # the last probe radius overflows
        {"factor": 1e30}, {"count": 2000}, {"r0": 1e306},
    ])
    def test_degenerate_schedule_rejected(self, settings):
        # count 0 used to raise IndexError in the probe grid, and
        # segment_nodes 0 to yield a confident verdict from one node
        with pytest.raises(ValueError, match=next(iter(settings))):
            qd.ProbeSchedule(**settings)

    def test_whole_valued_float_counts_stored_as_int(self):
        s = qd.ProbeSchedule(count=15.0, segment_nodes=4096.0)
        assert type(s.count) is int and type(s.segment_nodes) is int
        assert s == qd.ProbeSchedule()

    @pytest.mark.parametrize("values,expected", [
        ([0.0] * 5 + [np.inf] * 10,
         ("divergent", None, None, "non-finite value at radius 32")),
        ([10.0 ** k for k in range(15)],
         ("divergent", None, None, "value exceeded blow-up threshold")),
        ([0.0, 1.0, 2.0, 3.0], ("indeterminate", None, None, "schedule too short")),
        ([0.0] * 7 + [1.0] + [0.5] * 7,
         ("indeterminate", None, None, "functional decreased between probes")),
        ([float(k) for k in range(15)],
         ("divergent", None, None, "increments not decaying (last ratios [1.0, 1.0, 1.0])")),
        ([0.0] * 12 + [1.0, 2.0, 3.0],
         ("divergent", None, None, "increments not decaying (last ratios [inf, 1.0, 1.0])")),
        ([0.0] * 11 + [1.0, 1.5, 2.3, 2.5],
         ("indeterminate", None, None, "increments still growing")),
        ([3.0] * 15, ("finite", 3.0, 0.0, "increments vanished")),
        # a drop within float noise of the last value is clipped to no change
        ([3.0] * 14 + [3.0 - 1e-13], ("finite", 3.0 - 1e-13, 0.0, "increments vanished")),
        ([0.0] + [2.0 ** -9 - 2.0 ** -(10 + k) for k in range(14)],
         ("finite", 2.0 ** -9 - 2.0 ** -23, 2.0 ** -23, "geometric decay, ratio about 0.5")),
        ([0.0] + [2.0 - 2.0 ** -k for k in range(14)],
         ("indeterminate", None, None, "tail estimate 0.000122 above tolerance 1e-06")),
        ([0.0] * 11 + [1.0, 1.5, 2.0, 2.5],
         ("indeterminate", None, None, "no usable decay pattern")),
    ], ids=["non_finite", "blow_up", "too_short", "decreased", "not_decaying",
            "not_decaying_after_flat", "still_growing", "vanished", "noise_clipped",
            "geometric", "tail_above_tol", "no_pattern"])
    def test_every_branch_pinned(self, values, expected):
        # the notes land in the byte-stable report JSON
        radii = qd.ProbeSchedule().radii().tolist()[:len(values)]
        v = qd.verdict_from_trace(radii, values, 1e-6, 1e8)
        assert (v.kind, v.value, v.error, v.note) == expected
        assert v.probes == tuple(zip(radii, values))

    def test_blowup_threshold(self):
        v = probe(lambda r: r ** 2, qd.ProbeSchedule())
        assert v.divergent

    def test_non_finite_is_divergent_with_note(self):
        v = probe(lambda r: np.inf if r > 100 else r, qd.ProbeSchedule())
        assert v.divergent
        assert "non-finite" in v.note

    def test_constant_functional_is_finite_zero_error(self):
        v = probe(lambda r: 3.0, qd.ProbeSchedule())
        assert v.finite
        assert v.value == 3.0
        assert v.error == 0.0

    def test_trace_retained(self):
        v = probe(lambda r: 1 - np.exp(-r), qd.ProbeSchedule())
        assert len(v.probes) == 15
        assert v.probes[0][0] == 1.0

    def test_slow_log_divergence_not_called_finite(self):
        # increments of sqrt(log) shrink but their ratios approach 1
        v = probe(lambda r: np.sqrt(np.log1p(r)),
                                    qd.ProbeSchedule())
        assert not v.finite

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=14,
                    max_size=14))
    def test_finite_requires_decaying_tail_increments(self, increments):
        values = np.concatenate(([0.0], np.cumsum(increments)))
        v = qd.ProbeSchedule(tail_tol=1e-2).verdict(values.tolist())
        if v.finite:
            tail = np.diff(values)[-4:]
            for a, b in zip(tail[:-1], tail[1:]):
                assert b <= a * (1 + 1e-9) + 1e-300
