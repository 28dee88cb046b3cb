import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialphi import criteria, oracle
from radialphi import quadrature as qd
from radialphi._memo import BoundedCache


def probe(func, schedule):
    return schedule.verdict([func(r) for r in schedule.radii().tolist()])


def graded_grid():
    """The graded trapezoid grid of 25,601 nodes that the oracles probe on,
    the largest node array the trapezoid kernel runs on besides the solver's."""
    return oracle._oracle_grid(qd.ProbeSchedule())[0]


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


    def test_equal_grids_compare_and_hash(self):
        # the nodes used to be a compared field: == raised ValueError and
        # hash() raised TypeError
        a, b = qd.RadialGrid(1.0, 0.1), qd.RadialGrid(1.0, 0.1)
        assert a == b and hash(a) == hash(b)
        assert a != qd.RadialGrid(1.0, 0.2)
        assert len({a, b, qd.RadialGrid(2.0, 0.1)}) == 2

    @pytest.mark.parametrize("r_max,step", [
        (2.0, 1e-3), (20.0, 1e-3), (1.0, 0.3), (7.3, 0.013), (1e5, 0.7), (0.5, 2.0)])
    def test_nodes_built_on_first_use(self, r_max, step):
        # the panel count comes back from r_max / step after step is
        # normalised
        g = qd.RadialGrid(r_max, step)
        assert "panels" not in vars(g)
        n = max(1, int(round(r_max / step)))
        assert np.array_equal(g.nodes, np.linspace(0.0, r_max, n + 1))
        assert g.nodes is g.panels.nodes and len(g) == n + 1 and g.step == r_max / n


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
        assert np.array_equal(qd.prefix_trapezoid(values, xs, panels=qd.LinearPanels(xs)), ref)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.5, 6.0), st.floats(-10.0, 10.0))
    def test_bitwise_on_probe_grid(self, sigma, shift):
        xs, _, layout = oracle._oracle_grid(qd.ProbeSchedule())
        values = (1.0 + xs) ** -sigma + shift * np.sin(xs)
        ref = reference_prefix(values, xs)
        assert np.array_equal(qd.prefix_trapezoid(values, xs, panels=layout), ref)
        assert np.array_equal(qd.prefix_trapezoid(values, xs), ref)

    def test_half_widths_read_only(self):
        half = qd.LinearPanels(np.linspace(0.0, 1.0, 11))._half
        assert np.allclose(half, 0.05)
        with pytest.raises(ValueError):
            half[0] = 1.0

    def test_allocates_only_its_output(self):
        # the sum, the product and the running sum all happen inside the
        # output of LinearPanels.prefix; the rest is the finiteness mask
        # (an eighth of the input)
        layout = qd.LinearPanels(np.linspace(0.0, 10.0, 61441))
        xs = layout.nodes
        values = np.exp(-xs)
        tracemalloc.start()
        try:
            qd.prefix_trapezoid(values, xs, panels=layout)
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

    GRIDS = {"probe": graded_grid,
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
    """The trapezoid kernel's weights: built on first use for each dimension
    and kept by the layout whose nodes they belong to."""

    def test_concurrent_kernel_calls_agree(self):
        # four threads apply one layout whose weights none has built yet
        xs = graded_grid()
        weights = [(1.0 + xs) ** -(2.0 + i) + np.cos(i * xs) ** 2 for i in range(4)]
        expected = [qd.radial_kernel_at(w, 3, xs) for w in weights]
        layout = qd.LinearPanels(xs)
        barrier = threading.Barrier(4)
        matched = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            matched[i] = all(np.array_equal(
                qd.radial_kernel_at(weights[i], 3, layout.nodes, panels=layout), expected[i])
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

    def test_keyed_by_value_not_identity(self):
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

    def test_layout_weights_read_only(self):
        xs = np.linspace(0.0, 1.0, 101)
        layout = qd.LinearPanels(xs)
        xs[:] = 0.0  # the layout holds its own copy
        qd.radial_kernel_at(np.ones(101), 3, layout.nodes, panels=layout)
        c0, c1, scale, blocks = layout.weights(3)
        assert not any(a.flags.writeable for a in (layout.nodes, c0, c1, scale))
        assert layout.nodes[-1] == 1.0 and blocks[0][:2] == (0, 1)
        with pytest.raises(ValueError):
            c1[0] = 1.0

    def test_weights_built_once_per_dimension(self, monkeypatch):
        built = []
        build = qd.LinearPanels._kernel_weights
        monkeypatch.setattr(qd.LinearPanels, "_kernel_weights",
                            lambda self, dim: built.append(dim) or build(self, dim))
        layout = qd.LinearPanels(np.linspace(0.0, 2.0, 201))
        ones = np.ones_like(layout.nodes)
        for dim in (3, 5, 3, 3.0, 5):
            qd.radial_kernel_at(ones, dim, layout.nodes, panels=layout)
        assert built == [3, 5]

    def test_grid_layout_matches_a_call_without_one(self):
        grid = qd.RadialGrid(20.0, 1e-3)
        w = 6.0 / (1.0 + grid.nodes ** 2)
        for _ in range(2):  # before and after the weights are kept
            got = qd.radial_kernel_at(w, 3, grid.nodes, panels=grid.panels)
            assert np.array_equal(got, qd.radial_kernel_at(w, 3, grid.nodes))
            got = qd.prefix_trapezoid(w, grid.nodes, panels=grid.panels)
            assert np.array_equal(got, qd.prefix_trapezoid(w, grid.nodes))

    @pytest.mark.parametrize("layout", ["linear", "chebyshev"])
    @pytest.mark.parametrize("dim", [3.5, 0.5, 0, -3, True, np.nan, np.inf])
    def test_rejects_a_dimension_that_is_not_whole(self, layout, dim):
        # the Chebyshev path used to truncate 3.5 to 3 and return t/3,
        # where the trapezoid path returned t/3.5
        panels = (qd.LinearPanels(np.linspace(0.0, 2.0, 21)) if layout == "linear"
                  else qd.PanelLayout(doubling_edges(), 4))
        ones = np.ones_like(panels.nodes)
        with pytest.raises(ValueError, match="dimension"):
            qd.radial_kernel_at(ones, dim, panels.nodes, panels=panels)
        assert np.array_equal(qd.radial_kernel_at(ones, 3.0, panels.nodes, panels=panels),
                              qd.radial_kernel_at(ones, 3, panels.nodes, panels=panels))

    def test_rejects_unsorted_nodes(self):
        # used to return [0, 0.667, 0.333, ...] without complaint
        with pytest.raises(ValueError, match="strictly increasing"):
            qd.radial_kernel_at(np.ones(6), 3, np.array([0.0, 2.0, 1.0, 3.0, 4.0, 5.0]))

    @pytest.mark.parametrize("nodes", [
        [0.0, np.nan, 2.0], [0.0, np.inf, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
        [0.0, 1.0, 1.0], [], [[0.0, 1.0]]])
    def test_layout_rejects_bad_nodes(self, nodes):
        with pytest.raises(ValueError, match="nodes must be"):
            qd.LinearPanels(nodes)
        if np.ndim(nodes) == 1 and len(nodes):
            with pytest.raises(ValueError, match="strictly increasing"):
                qd.prefix_trapezoid(np.ones(len(nodes)), nodes)

    def test_kernel_needs_nodes_from_zero(self):
        # a prefix runs from any first node, as the growth budget's do
        xs = np.linspace(1.0, 2.0, 11)
        assert qd.prefix_trapezoid(np.ones(11), xs)[-1] == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="start at 0"):
            qd.radial_kernel_at(np.ones(11), 3, xs)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            qd.radial_kernel_at(np.ones(5), 3, np.linspace(0.0, 1.0, 6))


def doubling_edges(halvings=30, radii=(1.0, 2.0, 4.0, 8.0)):
    return [0.0, *(radii[0] / 2.0 ** k for k in range(halvings, 0, -1)), *radii]


class TestPanelLayout:
    """Chebyshev–Lobatto panels: exact on polynomials, no stored power above 1."""

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_nodes_hold_the_edges(self, n):
        edges = doubling_edges(radii=(1.0, 1.5, 2.25, 3.375))
        layout = qd.PanelLayout(edges, n)
        assert layout.nodes.size == n * (len(edges) - 1) + 1
        assert layout.nodes[::n].tobytes() == np.array(edges).tobytes()
        assert np.all(np.diff(layout.nodes) > 0) and not layout.nodes.flags.writeable

    @staticmethod
    def at_panel_scale(layout, got, want, rtol):
        """|got - want| within rtol of the largest |want| of each panel."""
        scale = np.abs(want[1:]).reshape(-1, layout.n).max(axis=1).repeat(layout.n)
        return np.all(np.abs(got[1:] - want[1:]) <= rtol * scale) and got[0] == want[0]

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_polynomials_integrate_exactly(self, n):
        layout = qd.PanelLayout(doubling_edges(), n)
        x = layout.nodes
        for m in range(n + 1):
            got = qd.prefix_trapezoid(x ** m, x, panels=layout)
            assert self.at_panel_scale(layout, got, x ** (m + 1) / (m + 1), 1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_kernel_of_monomials_exact(self, dim):
        # K[s^m](t) = t^(m+1) / (dim + m) while m is at most the degree n
        layout = qd.PanelLayout(doubling_edges(), 8)
        x = layout.nodes
        for m in range(9):
            got = qd.radial_kernel_at(x ** m, dim, x, panels=layout)
            assert self.at_panel_scale(layout, got, x ** (m + 1) / (dim + m), 1e-14)

    @pytest.mark.parametrize("dim, rtol", [(80, 1e-12), (120, 1e-12), (1100, 1e-10)])
    def test_high_dimension_stays_finite(self, dim, rtol):
        # the trapezoid weights overflow from N of about 1025; the panels
        # carry (lo/t)^(N-1) <= 1 and store no larger power.  The accuracy
        # of the Gauss–Legendre points bounds the matrices at large N
        layout = criteria.probe_grid(qd.ProbeSchedule())[2]
        x = layout.nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = qd.radial_kernel_at(np.ones_like(x), dim, x, panels=layout)
        assert np.allclose(got, x / dim, rtol=rtol, atol=0.0)

    def test_kernel_clipped_at_zero_next_to_a_kink(self):
        # the interpolant of max(r - 3, 0) dips below 0 on the panel [2, 4];
        # K of nonnegative samples cannot, so that dip is clipped
        layout = criteria.probe_grid(qd.ProbeSchedule())[2]
        w = np.maximum(layout.nodes - 3.0, 0.0)
        assert layout.kernel(w, 3).min() < 0.0
        got = qd.radial_kernel_at(w, 3, layout.nodes, panels=layout)
        assert got.min() == 0.0 and got[-1] > 0.0

    def test_matrices_built_on_first_use_and_shared(self, monkeypatch):
        built = []
        matrix = qd._panel_matrix
        monkeypatch.setattr(qd, "_PANEL_MATRICES", BoundedCache(16))
        monkeypatch.setattr(qd, "_panel_matrix", lambda *key: built.append(key) or matrix(*key))
        first = qd.PanelLayout(doubling_edges(), 6)
        second = qd.PanelLayout(doubling_edges(radii=(3.0, 6.0)), 6)
        assert built == []
        for layout in (first, second):
            ones = np.ones_like(layout.nodes)
            qd.radial_kernel_at(ones, 3, layout.nodes, panels=layout)
            qd.prefix_trapezoid(ones, layout.nodes, panels=layout)
        # the head, the ratio 1/2 and the integration matrix, once each
        assert sorted(built) == [(1, 6, 0.0), (3, 6, 0.0), (3, 6, 0.5)]
        for matrix, decay in qd._PANEL_MATRICES._entries.values():
            assert not matrix.flags.writeable and not decay.flags.writeable
            assert np.all(decay <= 1.0)

    @pytest.mark.parametrize("edges, n", [
        ([1.0, 2.0], 4), ([0.0, 1.0, 1.0], 4), ([0.0, 2.0, 1.0], 4),
        ([0.0, np.inf], 4), ([0.0, np.nan], 4), ([0.0], 4), ([0.0, 1.0], 1)])
    def test_rejects_bad_edges(self, edges, n):
        with pytest.raises(ValueError):
            qd.PanelLayout(edges, n)

    def test_rejects_other_nodes(self):
        layout = qd.PanelLayout(doubling_edges(), 4)
        other = np.linspace(0.0, 8.0, layout.nodes.size)
        ones = np.ones_like(other)
        with pytest.raises(ValueError, match="panel layout"):
            qd.radial_kernel_at(ones, 3, other, panels=layout)
        with pytest.raises(ValueError, match="panel layout"):
            qd.prefix_trapezoid(ones, other, panels=layout)
        with pytest.raises(ValueError, match="differ in length"):
            qd.radial_kernel_at(ones[1:], 3, layout.nodes, panels=layout)


def grouped_kernel(layout, values, dim):
    """The kernel as it was applied before the layout stacked its panel
    matrices: one fancy-indexed product per panel ratio."""
    rows = layout._panels(values)
    local = np.empty((rows.shape[0], layout.n))
    decay = np.empty_like(local)
    for rho, panels in layout._groups:
        matrix, decay[panels] = qd._matrix(dim, layout.n, rho)
        local[panels] = np.einsum("pj,ij->pi", rows[panels], matrix)
    local *= layout._tops
    carried, start = 0.0, []
    for end, fade in zip(local[:, -1].tolist(), decay[:, -1].tolist()):
        start.append(carried)
        carried = fade * carried + end
    decay *= np.array(start)[:, None]
    return layout._assemble(local, decay)


def concatenated_prefix(layout, values):
    """The prefix as it was before its panel starts were written in place."""
    local = np.einsum("pj,ij->pi", layout._panels(values), qd._matrix(1, layout.n, 0.0)[0])
    local *= layout._widths
    start = np.cumsum(local[:, -1])
    return layout._assemble(local, np.concatenate(([0.0], start[:-1]))[:, None])


class TestStackedPanels:
    """The stacked kernel and the in-place prefix, bit for bit against the
    code they replaced."""

    @pytest.fixture(params=["probe", "desk"])
    def layout(self, request):
        if request.param == "probe":
            return criteria.probe_grid(qd.ProbeSchedule())[2]
        return qd.PanelLayout(criteria._graded_edges([2.7]), 16)

    @pytest.mark.parametrize("dim", [3, 10])
    @pytest.mark.parametrize("weight", ["decay", "kink", "noise"])
    def test_bitwise_as_grouped(self, layout, dim, weight):
        x = layout.nodes
        w = {"decay": lambda: (1.0 + x) ** -3.0,
             "kink": lambda: np.maximum(3.0 - x, 0.0),
             "noise": lambda: np.random.default_rng(dim).random(x.size)}[weight]()
        assert np.array_equal(layout.kernel(w, dim), grouped_kernel(layout, w, dim))
        assert np.array_equal(layout.prefix(w), concatenated_prefix(layout, w))

    def test_threads_share_one_layout(self):
        # threads that find a dimension unbuilt may each stack it; every
        # kernel still comes out bit for bit
        layout = qd.PanelLayout(criteria._graded_edges([1.0, 2.0, 4.0]), 16)
        w = (1.0 + layout.nodes) ** -3.0
        want = grouped_kernel(layout, w, 3)
        barrier = threading.Barrier(4)
        got = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            got[i] = layout.kernel(w, 3)

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
        assert all(np.array_equal(g, want) for g in got)

    def test_stack_kept_per_dimension_and_read_only(self):
        layout = qd.PanelLayout(doubling_edges(), 6)
        matrices, decay = layout.weights(3)
        assert layout.weights(3)[0] is matrices and layout.weights(4)[0] is not matrices
        assert matrices.shape == (34, 6, 7) and decay.shape == (34, 6)
        assert not matrices.flags.writeable and not decay.flags.writeable
        for rho, panels in layout._groups:
            matrix, fade = qd._matrix(3, 6, rho)
            assert np.array_equal(matrices[panels], np.broadcast_to(matrix, matrices[panels].shape))
            assert np.array_equal(decay[panels], np.broadcast_to(fade, decay[panels].shape))


class TestRowBatches:
    """Samples with a leading axis of rows: each row comes out bit for bit
    as it does alone, on both layouts."""

    @pytest.fixture(params=["panels", "trapezoid"])
    def layout(self, request):
        if request.param == "panels":
            return criteria.probe_grid(qd.ProbeSchedule())[2]
        return qd.LinearPanels(graded_grid())

    @staticmethod
    def rows(x):
        kink = np.maximum(x - 2.9, 0.0)
        dipped = kink.copy()
        dipped[5] = -1e-3
        return np.stack([kink, dipped, (1.0 + x) ** -3.0,
                         np.random.default_rng(0).random(x.size)])

    @pytest.mark.parametrize("dim", [3, 10])
    def test_rows_as_alone(self, layout, dim):
        x = layout.nodes
        batch = self.rows(x)
        kernels = qd.radial_kernel_at(batch, dim, x, panels=layout)
        prefixes = qd.prefix_trapezoid(batch, x, panels=layout)
        assert kernels.shape == prefixes.shape == batch.shape
        for row, kernel, prefix in zip(batch, kernels, prefixes):
            assert np.array_equal(kernel, qd.radial_kernel_at(row, dim, x, panels=layout))
            assert np.array_equal(prefix, qd.prefix_trapezoid(row, x, panels=layout))

    def test_clip_is_per_row(self):
        # the kink's interpolant undershoots below 0 on the panels; the
        # row of nonnegative samples is clipped, the row with one negative
        # sample beside it is not
        layout = criteria.probe_grid(qd.ProbeSchedule())[2]
        x = layout.nodes
        kink, dipped = self.rows(x)[:2]
        assert layout.kernel(kink, 3).min() < 0.0
        kernels = qd.radial_kernel_at(np.stack([kink, dipped]), 3, x, panels=layout)
        assert kernels[0].min() == 0.0 and kernels[1].min() < 0.0
        assert np.array_equal(kernels[1], layout.kernel(dipped, 3))


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
        s = qd.ProbeSchedule(count=15.0, segment_nodes=16.0)
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
        # a ratio of 1e306 overflows when scaled by 1000, which used to warn
        ([0.0] * 11 + [1e-300, 1e6, 2e6, 3e6],
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
            "not_decaying_after_flat", "not_decaying_overflowing", "still_growing",
            "vanished", "noise_clipped", "geometric", "tail_above_tol", "no_pattern"])
    def test_every_branch_pinned(self, values, expected):
        # the notes land in the byte-stable report JSON
        radii = qd.ProbeSchedule().radii().tolist()[:len(values)]
        v = qd.verdict_from_trace(radii, values, 1e-6, 1e8)
        assert (v.kind, v.value, v.error, v.note) == expected
        assert v.probes == tuple(zip(radii, values))

    def test_note_ratios_rounded_as_numpy_rounds(self):
        # the ratios of a not-decaying note, rounded in plain floats
        rng = np.random.default_rng(27)
        ratios = np.concatenate((
            rng.exponential(2.0, 10**4),
            np.arange(3000) / 1000 + 0.0005,  # halfway cases
            1.8e305 * np.linspace(0.99, 1.01, 101),  # x1000 overflows from 1.8e305 up
            [np.inf, 0.0, np.finfo(float).max])).tolist()
        with np.errstate(over="ignore"):
            want = np.round(ratios, 3).tolist()
        assert qd._rounded(ratios) == want
        assert all(type(x) is float for x in qd._rounded(ratios))

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
