import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialphi import exprlang as ex
from radialphi import operators as ops

CATALOG = [
    ("laplacian", {}),
    ("p_laplacian", {"p": 3.0}),
    ("p_laplacian", {"p": 1.5}),
    ("plasma", {"p": 2.0, "q": 3.0}),
    ("elasticity", {"p": 1.0}),
    ("elasticity", {"p": 2.0}),
    ("plasticity", {"p": 2.0, "q": 1.0}),
    ("newtonian", {"p": 0.5, "q": 1.0}),
]


# operators without a closed-form inverse: these go through the flux table
TABULATED = [
    ("plasma", {"p": 2.0, "q": 3.0}),
    ("plasma", {"p": 1.5, "q": 2.5}),
    ("elasticity", {"p": 0.75}),
    ("elasticity", {"p": 2.0}),
    ("plasticity", {"p": 2.0, "q": 1.0}),
    ("plasticity", {"p": 3.0, "q": 2.0}),
    ("newtonian", {"p": 0.5, "q": 1.0}),
    ("newtonian", {"p": 0.75, "q": 1.5}),
    ("custom", {"expr": "1 + t"}),
    ("custom", {"expr": "sqrt(1 + t^2)"}),
    # overflows inside the table grid: the table keeps the finite stretch
    ("custom", {"expr": "1 + t^30"}),
]


@pytest.fixture(scope="module")
def tabulated():
    return [ops.make_operator(f, **kw) for f, kw in TABULATED]


def bisected(op, s):
    return ops._bisect_inverse(op, np.asarray(s, dtype=float))


@pytest.fixture(scope="module")
def catalog():
    return [ops.make_operator(f, **kw) for f, kw in CATALOG]


class TestCatalog:
    def test_plasma_profile(self):
        # phi(t) = 1 + t, flux t + t^2
        op = ops.make_operator("plasma", p=2, q=3)
        assert ops.h_eval(op, 2.0) == pytest.approx(6.0)

    def test_laplacian_flux_is_identity(self):
        op = ops.make_operator("laplacian")
        assert ops.h_eval(op, 2.5) == 2.5
        assert ops.h_inverse(op, 3.7) == 3.7

    def test_p_laplacian_flux(self):
        op = ops.make_operator("p_laplacian", p=3)
        assert ops.h_eval(op, 3.0) == pytest.approx(9.0)
        assert ops.h_inverse(op, 9.0) == pytest.approx(3.0)

    def test_elasticity_parameter_range(self):
        with pytest.raises(ops.OperatorError):
            ops.make_operator("elasticity", p=0.4)

    @pytest.mark.parametrize("family,params", [
        ("p_laplacian", {"p": 1.0}),
        ("plasma", {"p": 3.0, "q": 2.0}),
        ("plasticity", {"p": 1.0, "q": 1.0}),
        ("newtonian", {"p": 1.5, "q": 1.0}),
        # float() used to read these two, so "3" ran as p = 3 and True as q = 1
        ("p_laplacian", {"p": "3"}),
        ("plasticity", {"p": 2.0, "q": True}),
    ])
    def test_parameter_constraints(self, family, params):
        with pytest.raises(ops.OperatorError):
            ops.make_operator(family, **params)

    def test_unknown_family(self):
        with pytest.raises(ops.OperatorError):
            ops.make_operator("tricubic")

    def test_integer_beyond_float_range(self):
        # float() used to raise OverflowError, which no caller reads as a
        # config mistake
        with pytest.raises(ops.OperatorError, match="parameter p is too large for a float"):
            ops.make_operator("p_laplacian", p=10 ** 400)

    @pytest.mark.parametrize("p", [np.float32(3.0), np.int64(3)])
    def test_numpy_scalar_parameters_accepted(self, p):
        assert ops.h_eval(ops.make_operator("p_laplacian", p=p), 3.0) == pytest.approx(9.0)

    def test_custom_profile(self):
        op = ops.make_operator("custom", expr="1 + t")
        assert ops.h_eval(op, 2.0) == pytest.approx(6.0)

    def test_custom_profile_failing_vanishing_limit(self):
        # t*phi = t + 1 does not vanish at 0
        with pytest.raises(ops.OperatorError):
            ops.make_operator("custom", expr="1 + 1/t")

    def test_custom_profile_failing_monotonicity(self):
        # t*phi = exp(-t) is decreasing
        with pytest.raises(ops.OperatorError):
            ops.make_operator("custom", expr="exp(-t)/t")


class TestFluxMap:
    def test_zero_maps_to_zero(self, catalog):
        for op in catalog:
            assert ops.h_eval(op, 0.0) == 0.0
            assert ops.h_inverse(op, 0.0) == 0.0

    def test_round_trip(self, catalog):
        ts = np.logspace(-8, 8, 1000)
        for op in catalog:
            back = ops.h_inverse(op, ops.h_eval(op, ts))
            assert np.max(np.abs(back - ts) / ts) <= 1e-10, op.label

    def test_inverse_monotone(self, catalog):
        ss = np.logspace(-6, 6, 200)
        for op in catalog:
            out = ops.h_inverse(op, ss)
            assert np.all(np.diff(out) >= 0), op.label

    def test_plasma_inverse_value(self):
        op = ops.make_operator("plasma", p=2, q=3)
        assert ops.h_inverse(op, 6.0) == pytest.approx(2.0, rel=1e-10)

    def test_bounded_flux_reports_unsuitable(self):
        # t*phi = t/(1+t) is bounded by 1: inverting 2 must fail loudly
        op = ops.PhiOperator(family="custom", params=(), label="bounded",
                             phi=lambda t: 1.0 / (1.0 + np.asarray(t)))
        with pytest.raises(ops.InversionRangeError):
            ops.h_inverse(op, 2.0)


class TestEnvelopes:
    def test_p_laplacian_growth_ratio(self):
        # t Phi'/Phi is identically p
        _, gr = ops.derive_envelopes(ops.make_operator("p_laplacian", p=3))
        assert gr.l == pytest.approx(3.0, abs=5e-3)
        assert gr.m == pytest.approx(3.0, abs=5e-3)

    def test_plasma_growth_ratio_brackets(self):
        _, gr = ops.derive_envelopes(ops.make_operator("plasma", p=2, q=3))
        assert gr.l == pytest.approx(2.0, abs=5e-3)
        assert gr.m == pytest.approx(3.0, abs=5e-3)

    def test_laplacian_growth_ratio(self):
        _, gr = ops.derive_envelopes(ops.make_operator("laplacian"))
        assert gr.l == pytest.approx(2.0, abs=5e-3)
        assert gr.m == pytest.approx(2.0, abs=5e-3)
        assert gr.a0 == pytest.approx(1.0, abs=5e-3)

    def test_laplacian_sandwich_is_identity_like(self):
        env, _ = ops.derive_envelopes(ops.make_operator("laplacian"))
        # psi = flux inverse = identity for the laplacian
        assert float(np.asarray(env.psi_bar(3.7))) == 3.7
        assert float(np.asarray(env.theta_bar(1.0))) == 1.0

    @pytest.mark.parametrize("family,params", CATALOG)
    def test_sandwich_holds_on_sample_grid(self, family, params):
        op = ops.make_operator(family, **params)
        env, _ = ops.derive_envelopes(op)
        assert ops.check_envelope(op, env, n=32, s_min=1e-6) == 0.0

    def test_sublinear_growth_refused(self):
        # t*phi = sqrt(t): Phi ~ t^1.5, ratio 1.5 > 1 is fine; use a profile
        # with ratio dropping to 1: phi = 1/ln-like profiles are awkward to
        # sample, so check the refusal path through a custom flux with
        # primitive ratio below 1: h = 1/(1+1/t) has ratio -> 1
        op = ops.PhiOperator(family="custom", params=(), label="slow",
                             phi=lambda t: 1.0 / (1.0 + np.asarray(t)))
        with pytest.raises(ops.OperatorError):
            ops.derive_envelopes(op)

    def test_violating_override_detected(self):
        op = ops.make_operator("plasma", p=2, q=3)
        ident = lambda s: np.asarray(s, dtype=float)
        bad = ops.EnvelopeSet(k_under=1.0, k_bar=1.0,
                              theta_under=ident, theta_bar=ident,
                              psi_under=ident, psi_bar=ident)
        assert ops.check_envelope(op, bad, n=16) > 0.0

    @pytest.mark.parametrize("family,params", [TABULATED[0], CATALOG[0]])
    def test_each_argument_inverted_once(self, family, params, monkeypatch):
        # derive_envelopes inverts 1e7 and 1e-13; its check then inverts the
        # distinct products of the 24 x 24 grid and samples the one psi of
        # both bounds at the 24 grid values, instead of 3 * 576 values.  How
        # many products are distinct rests on the last bits of numpy's SIMD
        # power, which depend on the CPU (158 with AVX-512, 142 without)
        ss = np.logspace(-4.0, 3.0, 24)
        distinct = np.unique(np.multiply.outer(ss, ss)).size
        op = ops.make_operator(family, **params)
        sizes = []
        inverse = ops.h_inverse

        def counting(op, s):
            sizes.append(np.size(s))
            return inverse(op, s)
        monkeypatch.setattr(ops, "h_inverse", counting)
        ops.derive_envelopes(op)
        assert sizes == [1, 1, distinct, 24]

    @pytest.mark.parametrize("family,params", TABULATED[:2] + CATALOG[:2])
    def test_check_matches_whole_grid(self, family, params):
        # sampling each distinct argument once leaves every bit in place
        op = ops.make_operator(family, **params)
        env, _ = ops.derive_envelopes(op)
        split = ops.EnvelopeSet(k_under=0.9, k_bar=1.0, theta_under=env.theta_under,
                                theta_bar=env.theta_bar, psi_under=env.psi_under,
                                psi_bar=lambda s: 0.99 * ops.h_inverse(op, s))
        ss = np.logspace(-4.0, 3.0, 24)
        s1, s2 = np.repeat(ss, 24), np.tile(ss, 24)
        mid = ops.h_inverse(op, s1 * s2)
        scale = np.maximum(np.abs(mid), 1e-300)
        for case in (env, split):
            lower = case.k_under * case.theta_under(s1) * case.psi_under(s2)
            upper = case.k_bar * case.theta_bar(s1) * case.psi_bar(s2)
            want = float(max(np.max(np.maximum(lower - mid, 0.0) / scale),
                             np.max(np.maximum(mid - upper, 0.0) / scale)))
            assert ops.check_envelope(op, case, n=24, s_min=1e-4) == want


class TestTableInverse:
    def test_agrees_with_bisection(self, tabulated):
        # more values than one block, reaching below the table bottom
        ss = np.logspace(-13, 8, 20001)
        for op in tabulated:
            got = ops.h_inverse(op, ss)
            want = bisected(op, ss)
            assert np.max(np.abs(got - want) / want) <= 1e-12, op.label

    def test_table_resolves_values_inside_it(self, tabulated):
        for op in tabulated:
            _, log_h = op.flux_table
            ss = np.exp(np.linspace(log_h[0], log_h[-1], 3001)[:-1])
            got = ops._table_inverse(op, ss)
            assert not np.any(np.isnan(got)), op.label
            assert np.max(np.abs(got - bisected(op, ss)) / got) <= 1e-12, op.label

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(TABULATED) - 1), st.floats(-13.0, 8.0))
    def test_agrees_with_bisection_property(self, k, log_s):
        op = ops.make_operator(TABULATED[k][0], **TABULATED[k][1])
        s = 10.0 ** log_s
        got = ops.h_inverse(op, s)
        want = float(bisected(op, [s])[0])
        assert abs(got - want) <= 1e-12 * want

    def test_scalar_zero_and_negative(self, tabulated):
        op = tabulated[0]
        assert isinstance(ops.h_inverse(op, 6.0), float)
        assert ops.h_inverse(op, 6.0) == pytest.approx(2.0, rel=1e-12)
        assert ops.h_inverse(op, 0.0) == 0.0
        out = ops.h_inverse(op, np.array([0.0, 6.0, 0.0]))
        assert out[0] == 0.0 and out[2] == 0.0
        with pytest.raises(ValueError):
            ops.h_inverse(op, -1.0)
        with pytest.raises(ValueError):
            ops.h_inverse(op, np.array([1.0, -1e-3]))

    def test_beyond_table_top_falls_back(self):
        # h = asinh(t) reaches only about 28 at the top of the table
        op = ops.make_operator("newtonian", p=1.0, q=1.0)
        _, log_h = op.flux_table
        ss = np.array([1.0, 100.0, 300.0])
        assert ss[1] > np.exp(log_h[-1])
        got = ops.h_inverse(op, ss)
        assert got[1] > 1e12
        assert np.max(np.abs(ops.h_eval(op, got) - ss) / ss) <= 1e-10
        assert np.max(np.abs(got - bisected(op, ss)) / got) <= 1e-12

    def test_out_of_range_still_raises(self):
        op = ops.make_operator("newtonian", p=1.0, q=1.0)
        with pytest.raises(ops.InversionRangeError):
            ops.h_inverse(op, 1e8)
        with pytest.raises(ops.InversionRangeError):
            ops.h_inverse(op, np.array([1.0, 10.0, 1e8]))

    def test_direct_operator_builds_its_own_table(self):
        op = ops.PhiOperator(family="custom", params=(), label="direct",
                             phi=lambda t: 1.0 + np.asarray(t))
        assert ops.h_inverse(op, 6.0) == pytest.approx(2.0, rel=1e-12)
        log_t, log_h = op.flux_table
        assert op.flux_table is op.flux_table
        assert not log_t.flags.writeable and not log_h.flags.writeable
        assert np.all(np.diff(log_h) > 0)

    def test_table_is_per_operator(self):
        a = ops.make_operator("plasma", p=2, q=3)
        b = ops.make_operator("plasma", p=2, q=3)
        c = ops.make_operator("plasma", p=2, q=4)
        assert a.flux_table is not b.flux_table
        assert not np.array_equal(a.flux_table[1], c.flux_table[1])

    def test_concurrent_first_use(self):
        # threads race to build the table of a fresh operator; every one
        # must get the same preimages as a sequential call
        op = ops.make_operator("plasticity", p=2, q=1)
        ss = np.logspace(-6, 6, 5000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(ops.h_inverse, op, ss) for _ in range(8)]
                outs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        want = bisected(op, ss)
        for out in outs:
            assert np.array_equal(out, outs[0])
        assert np.max(np.abs(outs[0] - want) / want) <= 1e-12


class TestHermiteInverse:
    """The inverse table: Hermite start, one Newton step, residual check."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(TABULATED) - 1), st.floats(0.0, 1.0))
    def test_extended_range_agrees_with_bisection(self, tabulated, k, frac):
        # from the flux at the table bottom, t = 1e-30, up to 1e8
        op = tabulated[k]
        lo = op.flux_table[1][0]
        s = float(np.exp(lo + frac * (np.log(1e8) - lo)))
        want = float(bisected(op, [s])[0])
        assert abs(ops.h_inverse(op, s) - want) <= 1e-12 * want

    def test_table_reaches_down_to_1e_30(self, tabulated):
        for op in tabulated:
            assert op.flux_table[0][0] == pytest.approx(np.log(1e-30)), op.label

    def test_values_on_nodes_and_in_last_cell(self, tabulated):
        for op in tabulated:
            y0, y1, inv_dy, c0, *_ = op.inverse_table
            nodes = np.append(y0 + np.arange(c0.size) / inv_dy, y1)
            last = np.linspace(y1 - 1.0 / inv_dy, y1, 101)[1:-1]
            for ys in (nodes, last):
                ss = np.exp(ys)
                want = bisected(op, ss)
                assert np.max(np.abs(ops.h_inverse(op, ss) - want) / want) <= 1e-12, op.label
                # the end nodes may round outside the table under exp/log
                inner = ops._table_inverse(op, ss[1:-1])
                assert not np.any(np.isnan(inner)), op.label
                assert np.max(np.abs(inner - want[1:-1]) / want[1:-1]) <= 1e-12, op.label

    def test_smooth_fluxes_pass_the_first_check(self, tabulated, monkeypatch):
        # one Newton step from the Hermite start passes the residual check
        # everywhere at 64 cells per decade; only the sharp 1 + t^30 needs
        # the second step, which takes the exact slope
        for op in tabulated:
            op.inverse_table
        retried = set()
        log_slope = ops._log_slope

        def spy(op, x):
            retried.add(op.label)
            return log_slope(op, x)

        monkeypatch.setattr(ops, "_log_slope", spy)
        for op in tabulated:
            _, log_h = op.flux_table
            ss = np.exp(np.linspace(log_h[0], log_h[-1], 20001)[1:-1])
            assert not np.any(np.isnan(ops._table_inverse(op, ss))), op.label
        assert retried == {"custom(1 + t^30)"}

    @staticmethod
    def kinked(t_k, jump=1e3, flat=False):
        # phi = 1 below t_k, so ln h = ln t there, and the flux slope jumps
        # from 1 to about 1 + jump * t_k at t_k; or, flat, h = (1 + jump) t
        # below t_k and h = t + jump * t_k above it
        if flat:
            phi = lambda t: 1.0 + jump * np.minimum(np.asarray(t), t_k) / np.asarray(t)
        else:
            phi = lambda t: 1.0 + jump * np.maximum(np.asarray(t) - t_k, 0.0)
        return ops.PhiOperator(family="custom", params=(), label=f"kinked at {t_k!r}", phi=phi)

    def test_kinked_flux_is_rescued_by_the_residual_check(self):
        # the kink at t = 1 sits on a node of the inverse table
        op = self.kinked(1.0)
        ss = np.linspace(0.9, 1.5, 2001)
        want = bisected(op, ss)
        assert np.max(np.abs(ops.h_inverse(op, ss) - want) / want) <= 1e-12
        assert np.any(np.isnan(ops._table_inverse(op, ss)))

    @pytest.mark.parametrize("t_0", [1.3, 1e-25])
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("frac", [0.02, 0.05, 0.1, 0.3, 0.6, 0.95])
    def test_kink_inside_a_cell(self, frac, flat, t_0):
        # a kink early in a cell turns the interpolant's slope negative near
        # the cell's middle, so the Newton step runs away from the root; a
        # flat stretch makes d ln t / d ln s about 1000 right after the kink.
        # Only a residual check that neither understates that slope nor
        # loses digits to ln s (|ln s| is about 57 for t_0 = 1e-25) keeps
        # wrong values from the output.  Below the kink h = c t: place
        # h(t_k) near h(t_0), at ``frac`` of its cell
        jump = 1e3 if flat else 1e3 / t_0
        c = 1.0 + jump if flat else 1.0
        y0, _, inv_dy, *_ = self.kinked(t_0, jump, flat).inverse_table
        j = int((np.log(t_0 * c) - y0) * inv_dy)
        t_k = float(np.exp(y0 + (j + frac) / inv_dy) / c)
        op = self.kinked(t_k, jump, flat)
        # the kink moves the table's top, and so its cells, very little
        y0, _, inv_dy, *_ = op.inverse_table
        assert (np.log(ops.h_eval(op, t_k)) - y0) * inv_dy - j == pytest.approx(frac, abs=1e-6)
        ss = np.exp(y0 + np.linspace(j - 1.0, j + 2.0, 3001) / inv_dy)
        want = bisected(op, ss)
        assert np.max(np.abs(ops.h_inverse(op, ss) - want) / want) <= 1e-12

    def test_understated_slope_is_not_trusted(self):
        # found by a random search over kinked fluxes: near the right end of
        # the kink's cell the interpolant's slope is about 2e-8 while the
        # exact one is 4.4e-5, so the Newton step barely moves, and its
        # residual times that slope passes a value 1.5e-10 off
        t_k, jump = 2.573728131102231e-28, 23367.365295656185 / 2.573728131102231e-28
        op = self.kinked(t_k, jump)
        s = 2.6397967020457454e-28
        y0, _, inv_dy, c0, c1, c2, c3, top = op.inverse_table
        u = (np.log(s) - y0) * inv_dy
        k = int(u)
        u -= k
        slope = (c1[k] + u * (2.0 * c2[k] + 3.0 * u * c3[k])) * inv_dy
        assert 0.0 < slope < 1e-6
        want = float(bisected(op, [s])[0])
        assert abs(ops.h_inverse(op, s) - want) <= 1e-12 * want

    def test_slope_bound_covers_each_cell(self, tabulated):
        # the exact d ln t / d ln s inside a cell stays below the cell's
        # bound, also right after a kink into a flat stretch, where it is
        # about 35 times the larger node slope
        y0, _, inv_dy, *_ = self.kinked(1.3, flat=True).inverse_table
        j = int((np.log(1.3 * 1001.0) - y0) * inv_dy)
        flat = self.kinked(float(np.exp(y0 + (j + 0.05) / inv_dy) / 1001.0), flat=True)
        for op in tabulated + [flat]:
            y0, y1, inv_dy, c0, *_, top = op.inverse_table
            cells = np.arange(0, c0.size, 97) if op is not flat else np.arange(j - 1, j + 3)
            ys = y0 + (cells[:, None] + np.linspace(0.0, 1.0, 17)[1:-1]) / inv_dy
            x = np.log(bisected(op, np.exp(ys.ravel())))
            eps = 1e-7
            slope = 2.0 * eps / (np.log(ops.h_eval(op, np.exp(x + eps)))
                                 - np.log(ops.h_eval(op, np.exp(x - eps))))
            assert np.all(slope.reshape(ys.shape).max(axis=1) <= 1.05 * top[cells]), op.label

    def test_extended_range_warns_nothing(self):
        ss = np.logspace(-40.0, 20.0, 3001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for family, params in TABULATED:
                op = ops.make_operator(family, **params)
                got = ops.h_inverse(op, ss)
                assert np.all(np.isfinite(got) & (got > 0)), op.label

    @pytest.mark.parametrize("family,params", [
        ("plasma", {"p": 2.0, "q": 3.0}),
        ("plasticity", {"p": 2.0, "q": 1.0}),
        ("custom", {"expr": "sqrt(1 + t^2)"}),
    ])
    def test_peak_memory_stays_blocked(self, family, params):
        # temporaries are bounded by the block size, not by the input: the
        # peak stays near three times the input (output, mask, input-sized
        # logs); an unblocked apply reaches 16-18 times
        op = ops.make_operator(family, **params)
        ss = np.logspace(-10.0, 7.0, 61441)
        ops.h_inverse(op, ss)
        tracemalloc.start()
        try:
            ops.h_inverse(op, ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * ss.nbytes


class TestInverseInput:
    @pytest.mark.parametrize("family,params", CATALOG + [("custom", {"expr": "1 + t"})])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_output_is_fresh_and_input_untouched(self, family, params, zeros):
        op = ops.make_operator(family, **params)
        ss = np.logspace(-3.0, 3.0, 50)
        if zeros:
            ss[::7] = 0.0
        ss.setflags(write=False)
        before = ss.copy()
        out = ops.h_inverse(op, ss)
        assert not np.shares_memory(out, ss)
        assert np.array_equal(ss, before)
        out[:] = -1.0
        assert np.array_equal(ss, before)
