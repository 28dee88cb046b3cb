import sys
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
    ])
    def test_parameter_constraints(self, family, params):
        with pytest.raises(ops.OperatorError):
            ops.make_operator(family, **params)

    def test_unknown_family(self):
        with pytest.raises(ops.OperatorError):
            ops.make_operator("tricubic")

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
