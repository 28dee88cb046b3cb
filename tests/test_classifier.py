from dataclasses import replace

import numpy as np
import pytest

from radialphi import classifier as cl
from radialphi import criteria as cr
from radialphi import iteration as it
from radialphi import model
from radialphi import operators as ops
from radialphi import quadrature as qd
from radialphi.quadrature import LimitVerdict, RadialGrid


@pytest.fixture(scope="module")
def lap():
    return ops.make_operator("laplacian")


def classify_weights(lap, w1, w2, tail_tol=1e-2, **kwargs):
    spec = model.build_problem(
        N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
        a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
        f1=model.power_nonlinearity(kwargs.pop("g1", 1.0)),
        f2=model.power_nonlinearity(kwargs.pop("g2", 1.0)), **kwargs)
    hyp = model.check_hypotheses(spec)
    rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=tail_tol))
    return spec, rep, hyp, cl.classify(spec, rep, hyp)


class TestDecisionTable:
    def test_linear_unit_weights_both_large(self, lap):
        _, _, _, cls = classify_weights(lap, "1", "1")
        assert cls.verdict == cl.BOTH_LARGE
        assert cls.matched_rule == "large_both"

    @pytest.mark.parametrize("N", [80, 120])
    def test_linear_unit_weights_both_large_in_high_dimension(self, lap, N):
        # the unscaled kernel overflowed once N * log10(16384) passed about
        # 308 and left this instance indeterminate
        spec = model.build_problem(
            N=N, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
        cls = cl.classify(spec, cr.build_report(spec), model.check_hypotheses(spec))
        assert cls.verdict == cl.BOTH_LARGE
        assert cls.matched_rule == "large_both"

    def test_integrable_weights_both_bounded(self, lap):
        _, _, _, cls = classify_weights(lap, "(1+r)^(-4)", "(1+r)^(-4)")
        assert cls.verdict == cl.BOTH_BOUNDED

    def test_mixed_weights(self, lap):
        _, _, _, cls = classify_weights(lap, "(1+r)^(-6)", "1")
        assert cls.verdict == cl.U_BOUNDED_V_LARGE
        _, _, _, cls = classify_weights(lap, "1", "(1+r)^(-6)")
        assert cls.verdict == cl.U_LARGE_V_BOUNDED

    def test_zero_weights_bounded(self, lap):
        _, _, _, cls = classify_weights(lap, "0", "0")
        assert cls.verdict == cl.BOTH_BOUNDED

    def test_determinism(self, lap):
        a = classify_weights(lap, "(1+r)^(-3)", "1")[3]
        b = classify_weights(lap, "(1+r)^(-3)", "1")[3]
        assert a == b

    def test_every_verdict_cites_one_rule(self, lap):
        for w1, w2 in (("1", "1"), ("(1+r)^(-4)", "(1+r)^(-4)"),
                       ("(1+r)^(-6)", "1"), ("0", "0")):
            cls = classify_weights(lap, w1, w2)[3]
            assert isinstance(cls.matched_rule, str) and cls.matched_rule

    def test_indeterminate_probe_poisons_rule(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "1", "1")
        assert cls.verdict == cl.BOTH_LARGE
        poisoned = replace(rep, verdicts={
            **rep.verdicts,
            "lower_coupling_12": LimitVerdict("indeterminate", note="synthetic")})
        out = cl.classify(spec, poisoned, hyp)
        assert out.verdict == cl.INDETERMINATE
        assert any("lower_12_divergent" in w for w in out.warnings)

    def test_superlinear_budget_finite_sharp_rule(self, lap):
        # gamma product > 1, integrable weights: budgets converge, the sharp
        # bounded rule applies and carries sandwich limits
        spec, rep, hyp, cls = classify_weights(
            lap, "(1+r)^(-5)", "(1+r)^(-5)", g1=1.5, g2=1.5, tail_tol=1e-2)
        assert cls.verdict == cl.BOTH_BOUNDED
        assert cls.matched_rule == "bounded_both_sharp"
        assert cls.bounds is not None
        assert np.isfinite(cls.bounds["u_upper_limit"])

    def test_evidence_lists_predicates(self, lap):
        cls = classify_weights(lap, "1", "1")[3]
        names = {name for name, _ in cls.evidence}
        assert "lower_12_divergent" in names
        assert all(state == "true" for _, state in cls.evidence)

    def test_exp_nonlinearity_relaxation_route(self, lap):
        # no upper split data at all: classification still possible when the
        # accumulation limits are finite
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("(1+r)^(-5)"),
            a2=model.weight_from_expr("(1+r)^(-5)"),
            f1=model.exp_minus_one_nonlinearity(),
            f2=model.exp_minus_one_nonlinearity())
        hyp = model.check_hypotheses(spec)
        rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
        cls = cl.classify(spec, rep, hyp)
        assert rep.growth_budget_12_relaxed is not None
        assert cls.verdict in (cl.BOTH_BOUNDED, cl.INDETERMINATE)
        if cls.verdict == cl.BOTH_BOUNDED:
            assert cls.matched_rule == "bounded_both_sharp"

    def test_missing_everything_is_indeterminate(self, lap):
        # no upper split and diverging accumulations: no rule can fire
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.exp_minus_one_nonlinearity(),
            f2=model.power_nonlinearity(1.0))
        hyp = model.check_hypotheses(spec)
        rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
        cls = cl.classify(spec, rep, hyp)
        assert cls.verdict == cl.INDETERMINATE


class TestCrossCheck:
    def test_bounded_instance_agrees(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "(1+r)^(-4)", "(1+r)^(-4)")
        sol = it.solve(spec, RadialGrid(8.0, 2e-3))
        out = cl.cross_check(spec, cls, sol)
        assert out.u_consistent and out.v_consistent

    def test_zero_weight_constant_solution_consistent(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "0", "0")
        sol = it.solve(spec, RadialGrid(4.0, 1e-3))
        out = cl.cross_check(spec, cls, sol)
        assert out.u_consistent and out.v_consistent

    def test_large_instance_growth(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "1", "1")
        sol = it.solve(spec, RadialGrid(16.0, 4e-3))
        assert sol.u[-1] > np.interp(8.0, sol.grid.nodes, sol.u)
        out = cl.cross_check(spec, cls, sol)
        assert out.u_consistent and out.v_consistent

    def test_unclassified_verdict_not_checked(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "1", "1")
        fake = cl.Classification(verdict=cl.INDETERMINATE, matched_rule="none",
                                 evidence=())
        sol = it.solve(spec, RadialGrid(4.0, 1e-3))
        out = cl.cross_check(spec, fake, sol)
        assert out.u_consistent is None and out.v_consistent is None


class TestConverseAdvisory:
    def test_advisory_on_large_verdict(self, lap):
        # start values >= 2 give matched upper/lower data (scaling constant
        # >= 1), identity envelopes: the advisory route is enabled
        spec = model.build_problem(
            N=3, alpha=4.0, beta=4.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
        hyp = model.check_hypotheses(spec)
        rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
        cls = cl.classify(spec, rep, hyp)
        assert cls.verdict == cl.BOTH_LARGE
        note = cl.converse_advisory(spec, rep, cls)
        assert note is not None and "diverge" in note

    def test_silent_for_non_large(self, lap):
        spec, rep, hyp, cls = classify_weights(lap, "(1+r)^(-4)", "(1+r)^(-4)")
        assert cl.converse_advisory(spec, rep, cls) is None
