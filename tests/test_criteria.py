import math

import numpy as np
import pytest

from radialphi import criteria as cr
from radialphi import model
from radialphi import operators as ops
from radialphi import quadrature as qd


@pytest.fixture(scope="module")
def lap():
    return ops.make_operator("laplacian")


def make_spec(lap, w1="1", w2="1", g1=1.0, g2=1.0, alpha=1.0, beta=1.0,
              **kwargs):
    return model.build_problem(
        N=3, alpha=alpha, beta=beta, op1=lap, op2=kwargs.pop("op2", lap),
        a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
        f1=model.power_nonlinearity(g1), f2=model.power_nonlinearity(g2),
        **kwargs)


def identity_envelope():
    ident = lambda s: np.asarray(s, dtype=float)
    return ops.EnvelopeSet(k_under=1.0, k_bar=1.0, theta_under=ident,
                           theta_bar=ident, psi_under=ident, psi_bar=ident,
                           description="identity")


class TestAccumulation:
    def test_unit_weight_quadratic(self, lap):
        # identity inverse flux, unit weight: A(t) = t^2/6, so A(3) = 1.5
        spec = make_spec(lap)
        assert cr.accumulation(spec, 1, "bar", 3.0) == pytest.approx(1.5, rel=1e-9)

    def test_desk_calls_keep_plan_cache_bounded(self, lap, monkeypatch):
        # every desk radius is a new node array, hence a new kernel plan
        monkeypatch.setattr(qd, "_PLANS", qd._PlanCache(8))
        spec = make_spec(lap)
        for t in np.linspace(1.0, 3.0, 50):
            assert cr.accumulation(spec, 1, "bar", t) == pytest.approx(t * t / 6, rel=1e-9)
        assert len(qd._PLANS._plans) <= 8

    def test_zero_weight(self, lap):
        spec = make_spec(lap, w1="0")
        assert cr.accumulation(spec, 1, "bar", 5.0) == 0.0

    def test_under_at_most_bar(self, lap):
        spec = make_spec(lap, w1="1/(1+r^2)", op2=ops.make_operator("plasma", p=2, q=3))
        for t in (0.5, 1.0, 4.0):
            under = cr.accumulation(spec, 2, "under", t)
            bar = cr.accumulation(spec, 2, "bar", t)
            assert under <= bar + 1e-12

    def test_shared_envelope_inverts_once(self, lap, monkeypatch):
        # a derived envelope has psi_under is psi_bar and k_under == k_bar:
        # both accumulations come from one inverse and one array
        spec = make_spec(lap, op2=ops.make_operator("plasma", p=2, q=3))
        assert spec.env2.psi_under is spec.env2.psi_bar
        calls = []
        inverse = ops.h_inverse
        monkeypatch.setattr(ops, "h_inverse",
                            lambda op, s: calls.append(op) or inverse(op, s))
        ev = cr.CriteriaEvaluator(spec, np.linspace(0.0, 4.0, 401))
        assert ev.accumulation_values(2, "under") is ev.accumulation_values(2, "bar")
        assert len(calls) == 1

    @pytest.mark.parametrize("k_under, halve_psi", [(0.5, False), (1.0, True)])
    def test_distinct_envelope_factors_kept_apart(self, lap, k_under, halve_psi):
        # under differs from bar by k alone, or by psi alone
        ident = lambda s: np.asarray(s, dtype=float)
        psi_under = (lambda s: 0.5 * np.asarray(s, dtype=float)) if halve_psi else ident
        env = ops.EnvelopeSet(k_under=k_under, k_bar=1.0, theta_under=ident,
                              theta_bar=ident, psi_under=psi_under, psi_bar=ident)
        ev = cr.CriteriaEvaluator(make_spec(lap, env1=env), np.linspace(0.0, 3.0, 301))
        assert ev.accumulation_values(1, "bar")[-1] == pytest.approx(1.5, rel=1e-9)
        assert ev.accumulation_values(1, "under")[-1] == pytest.approx(0.75, rel=1e-9)


class TestCoupling:
    def test_zero_weights_all_couplings_vanish(self, lap):
        spec = make_spec(lap, w1="0", w2="0")
        for pair in ("12", "21"):
            for bound in ("bar", "under"):
                assert cr.coupling(spec, pair, bound, 3.0) == 0.0

    def test_nested_polynomial_value(self, lap):
        # unit data: inner accumulation t^2/6, kernel y/3 + y^3/30,
        # integral r^2/6 + r^4/120, so 0.175 at r=1
        spec = make_spec(lap)
        assert cr.coupling(spec, "12", "bar", 1.0) == pytest.approx(0.175, abs=1e-8)

    def test_bar_and_under_coincide_with_matched_data(self, lap):
        # start values >= 2 push the lower scaling constant to 1, making the
        # lower split (1, f); with identity couplings and identity-like
        # envelopes both coupling variants share one integrand
        spec = make_spec(lap, w1="1/(1+r)", w2="1/(1+r)", alpha=4.0, beta=4.0)
        assert spec.f1.m_small >= 1.0
        for r in (0.5, 1.0, 2.0):
            bar = cr.coupling(spec, "12", "bar", r)
            under = cr.coupling(spec, "12", "under", r)
            assert under == pytest.approx(bar, rel=1e-9)

    def test_under_at_most_bar_generally(self, lap):
        spec = make_spec(lap, w1="1", w2="1/(1+r^2)", g1=0.8, g2=1.1)
        for pair in ("12", "21"):
            for r in (0.5, 1.5, 3.0):
                assert (cr.coupling(spec, pair, "under", r)
                        <= cr.coupling(spec, pair, "bar", r) + 1e-12)

    def test_missing_lower_data_reported(self, lap):
        spec_no_c2 = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.exp_minus_one_nonlinearity(),
            f2=model.power_nonlinearity(1.0))
        with pytest.raises(cr.CriteriaError, match="missing"):
            cr.coupling(spec_no_c2, "12", "bar", 1.0)


class TestGrowthBudget:
    def test_logarithmic_budget_with_identity_envelope(self, lap):
        # theta = id, identity couplings, M = 1, anchor 1: H(r) = ln r
        env = identity_envelope()
        spec = make_spec(lap, env1=env, env2=env)
        assert spec.f1.M_big == 1.0
        assert cr.growth_budget(spec, "12", math.e) == pytest.approx(1.0, abs=1e-6)
        assert cr.growth_budget(spec, "12", math.e ** 2) == pytest.approx(2.0, abs=1e-5)

    def test_budget_positive_increments(self, lap):
        spec = make_spec(lap, g1=0.9, g2=1.2)
        gb = cr.GrowthBudget(spec, "12")
        vals = [gb.value(r) for r in (1.5, 2.0, 4.0, 16.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self, lap):
        spec = make_spec(lap, g1=0.9, g2=1.2, alpha=1.3, beta=0.7,
                         op2=ops.make_operator("plasma", p=2, q=3))
        gb = cr.GrowthBudget(spec, "12")
        for r in (1.4, 2.0, 7.7, 123.0):
            assert gb.inverse(gb.value(r)) == pytest.approx(r, rel=1e-8)

    def test_inverse_beyond_range_is_inf(self, lap):
        # gamma1*gamma2 > 1 makes the budget converge; huge values are
        # unreachable and must invert to +inf, not silently clamp
        spec = make_spec(lap, g1=2.0, g2=2.0)
        gb = cr.GrowthBudget(spec, "12")
        assert gb.inverse(1e9) == np.inf

    def test_unknown_pair_rejected(self, lap):
        spec = make_spec(lap)
        with pytest.raises(ValueError, match="pair"):
            cr.GrowthBudget(spec, "13")
        for bound in ("bar", "under"):
            with pytest.raises(ValueError, match="pair"):
                cr.coupling(spec, "13", bound, 1.0)

    def test_anchor_maps_to_zero(self, lap):
        spec = make_spec(lap, alpha=2.5)
        gb = cr.GrowthBudget(spec, "12")
        assert gb.value(2.5) == 0.0
        assert gb.inverse(0.0) == 2.5


class TestAccumulationLimit:
    def test_unit_weight_diverges(self, lap):
        spec = make_spec(lap)
        assert cr.accumulation_limit(spec, 2).divergent

    def test_integrable_weight_finite(self, lap):
        spec = make_spec(lap, w2="(1+r)^(-4)")
        v = cr.accumulation_limit(spec, 2, qd.ProbeSchedule(tail_tol=1e-3))
        assert v.finite
        assert v.value > 0

    def test_zero_weight_finite_zero(self, lap):
        spec = make_spec(lap, w2="0")
        v = cr.accumulation_limit(spec, 2)
        assert v.finite and v.value == 0.0


class TestProbeGrid:
    def test_one_read_only_grid_per_geometry(self):
        xs, idx = cr.probe_grid(qd.ProbeSchedule())
        # tolerances do not change the grid, so they share it
        again = cr.probe_grid(qd.ProbeSchedule(tail_tol=1e-2, blowup_threshold=1e4))
        assert again[0] is xs and again[1] is idx
        assert not xs.flags.writeable and not idx.flags.writeable
        assert cr.probe_grid(qd.ProbeSchedule(segment_nodes=8))[0].size == 15 * 8 + 1
        assert xs.size == 15 * 4096 + 1 and xs[idx[-1]] == 16384.0


class TestYangLimitIdentity:
    def test_accumulation_limit_matches_moment(self, lap):
        # identity envelope (psi = id, k = 1): the accumulation limit equals
        # the first weight moment over N-2 for integrable-tail weights
        spec = make_spec(lap, w1="(1+r^2)^(-2)")
        v = cr.accumulation_limit(spec, 1, qd.ProbeSchedule(tail_tol=1e-3))
        assert v.finite
        # integral of r/(1+r^2)^2 is 1/2, N-2 = 1
        assert v.value == pytest.approx(0.5, rel=1e-4)


class TestReport:
    def test_zero_weights_report(self, lap):
        spec = make_spec(lap, w1="0", w2="0")
        rep = cr.build_report(spec)
        assert rep.upper_coupling_12.finite and rep.upper_coupling_12.value == 0.0
        assert rep.upper_coupling_21.finite
        assert rep.lower_coupling_12.finite and rep.lower_coupling_12.value == 0.0
        # identity couplings keep the budget divergent regardless of weights
        assert rep.growth_budget_12.divergent

    def test_linear_instance_lower_couplings_diverge(self, lap):
        spec = make_spec(lap)
        rep = cr.build_report(spec)
        assert rep.lower_coupling_12.divergent
        assert rep.lower_coupling_21.divergent

    def test_anchors_echoed(self, lap):
        spec = make_spec(lap, alpha=1.25, beta=2.5)
        rep = cr.build_report(spec)
        assert rep.a_anchor == 1.25
        assert rep.b_anchor == 2.5

    def test_all_functionals_nondecreasing(self, lap):
        spec = make_spec(lap, w1="1/(1+r)", w2="exp(-r)", g1=0.8, g2=1.1)
        xs = np.linspace(0.0, 8.0, 4001)
        ev = cr.CriteriaEvaluator(spec, xs)
        for vals in (ev.accumulation_values(1, "bar"),
                     ev.accumulation_values(2, "under"),
                     ev.upper_coupling_values("12"),
                     ev.lower_coupling_values("21")):
            assert np.all(np.diff(vals) >= -1e-15)

    def test_relaxed_entries_only_with_finite_accumulation(self, lap):
        spec = make_spec(lap)  # unit weights: accumulations diverge
        rep = cr.build_report(spec)
        assert rep.upper_coupling_12_relaxed is None
        assert rep.growth_budget_12_relaxed is None
        spec2 = make_spec(lap, w1="(1+r)^(-4)", w2="(1+r)^(-4)")
        rep2 = cr.build_report(spec2, qd.ProbeSchedule(tail_tol=1e-2))
        assert rep2.upper_coupling_12_relaxed is not None
        assert rep2.growth_budget_12_relaxed is not None

    def test_evaluation_failure_becomes_indeterminate_entry(self, lap):
        # a nonlinearity whose upper split data divides by zero at probe
        # scale: the entry degrades to indeterminate, the rest survive
        bad = model.custom_nonlinearity("t", c_bar=1.0, g="t", xi_bar="1/(t-2)",
                                        c_under=1.0, xi_under="t")
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=bad, f2=model.power_nonlinearity(1.0))
        rep = cr.build_report(spec)
        assert rep.upper_coupling_12.indeterminate
        assert "failed" in rep.upper_coupling_12.note
        assert rep.upper_coupling_21 is not None and not rep.upper_coupling_21.indeterminate

    @pytest.mark.parametrize("error", [NotImplementedError, RecursionError, TypeError])
    def test_programming_error_surfaces(self, lap, monkeypatch, error):
        # a bare RuntimeError subclass used to be recorded as an
        # indeterminate verdict
        def broken(self, pair):
            raise error("broken builder")
        monkeypatch.setattr(cr.CriteriaEvaluator, "upper_coupling_values", broken)
        with pytest.raises(error, match="broken builder"):
            cr.build_report(make_spec(lap))

    def test_numeric_failure_in_builder_is_indeterminate(self, lap, monkeypatch):
        def overflowing(self, pair):
            raise qd.NumericsError("overflow in builder")
        monkeypatch.setattr(cr.CriteriaEvaluator, "upper_coupling_values", overflowing)
        rep = cr.build_report(make_spec(lap))
        assert rep.upper_coupling_12.indeterminate
        assert "overflow in builder" in rep.upper_coupling_12.note
        assert rep.lower_coupling_12.divergent

    def test_report_serializes(self, lap):
        import json
        rep = cr.build_report(make_spec(lap, w1="(1+r)^(-3)", w2="(1+r)^(-3)"),
                              qd.ProbeSchedule(tail_tol=1e-2))
        text = json.dumps(rep.to_dict())
        assert "upper_coupling_12" in text

    def test_verdicts_keyed_by_json_name(self, lap):
        rep = cr.build_report(make_spec(lap))
        assert tuple(rep.verdicts) == rep._FIELDS
        assert list(rep.to_dict()) == ["anchors", *rep._FIELDS,
                                       "lower_12_auto", "lower_21_auto"]
        assert rep.upper_coupling_21 is rep.verdicts["upper_coupling_21"]
        with pytest.raises(AttributeError):
            rep.upper_21

    def test_missing_lower_data_marked_unavailable(self, lap):
        # a custom nonlinearity without lower-split data (and scaling
        # constant < 1) leaves the lower coupling unavailable, not defaulted
        nl = model.custom_nonlinearity("t", c_bar=1.0, g="t", xi_bar="t")
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=nl, f2=model.power_nonlinearity(1.0))
        assert spec.f1.m_small < 1.0
        rep = cr.build_report(spec)
        assert rep.lower_coupling_12 is None
        assert rep.to_dict()["lower_coupling_12"] == "unavailable"
