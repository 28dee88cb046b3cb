import numpy as np
import pytest

from radialphi import exprlang as ex
from radialphi import iteration as it
from radialphi import model
from radialphi import operators as ops
from radialphi import oracle
from radialphi import quadrature as qd
from radialphi.quadrature import RadialGrid


@pytest.fixture(scope="module")
def lap():
    return ops.make_operator("laplacian")


@pytest.fixture(scope="module")
def f_id():
    return model.power_nonlinearity(1.0)


def weight(src, **params):
    return model.weight_from_expr(src, params or None)


class TestPowerLawCriteria:
    def test_unit_weights_large(self):
        inst = oracle.PowerLawInstance(1.0, 1.0, weight("1"), weight("1"))
        out = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2))
        assert out.moment_1.divergent and out.moment_2.divergent
        assert out.coupling_1.divergent and out.coupling_2.divergent
        assert out.large_solution is True

    def test_integrable_weights_no_large(self):
        inst = oracle.PowerLawInstance(
            1.0, 1.0, weight("(1+r)^(-4)"), weight("(1+r)^(-4)"))
        out = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2))
        # first moment of (1+r)^-4 is 1/6
        assert out.moment_1.finite
        assert out.moment_1.value == pytest.approx(1.0 / 6.0, rel=1e-4)
        assert out.coupling_1.finite and out.coupling_2.finite
        assert out.large_solution is False

    def test_zero_weight_everything_finite(self):
        inst = oracle.PowerLawInstance(1.0, 1.0, weight("0"), weight("1"))
        out = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2))
        assert out.coupling_1.finite and out.coupling_1.value == 0.0
        assert out.large_solution is False

    def test_product_above_one_abstains(self):
        inst = oracle.PowerLawInstance(2.0, 2.0, weight("1"), weight("1"))
        out = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2))
        assert out.large_solution is None


class TestSingleEquationCriterion:
    def test_linear_nonlinearity_applicable(self, f_id):
        rep = oracle.single_equation_check(f_id, weight("1"), 3, qd.ProbeSchedule(tail_tol=1e-3))
        assert rep.reciprocal_integral.divergent
        assert rep.kernel_accumulation.divergent
        assert rep.solvable == "solvable"

    def test_quadratic_nonlinearity_not_applicable(self):
        rep = oracle.single_equation_check(
            model.power_nonlinearity(2.0), weight("1"), 3, qd.ProbeSchedule(tail_tol=1e-3))
        assert rep.reciprocal_integral.finite
        assert rep.reciprocal_integral.value == pytest.approx(1.0, rel=1e-4)
        assert rep.solvable == "not_applicable"

    def test_limit_identity(self, f_id):
        # weight (1+r^2)^-2: moment integral is 1/2 and N-2 = 1
        rep = oracle.single_equation_check(
            f_id, weight("(1+r^2)^(-2)"), 3, qd.ProbeSchedule(tail_tol=1e-3))
        assert rep.kernel_accumulation.finite
        assert rep.kernel_accumulation.value == pytest.approx(0.5, rel=1e-4)
        assert rep.limit_identity_agrees is True
        assert rep.solvable == "not_solvable"


class TestManufactured:
    def test_quadratic_pair_weight_formula(self, lap, f_id):
        # u = v = 1 + r^2 under the laplacian forces a = 6/(1+r^2); the
        # finite-difference weights match away from the origin artifact
        grid = RadialGrid(2.0, 1e-3)
        target = ex.parse("1 + r^2")
        spec = oracle.manufactured_problem(target, target, lap, lap,
                                           f_id, f_id, 3, grid)
        assert spec.alpha == 1.0 and spec.beta == 1.0
        # interior nodes: the origin extrapolation and the one-sided
        # endpoint stencils are the only polluted spots
        keep = (grid.nodes >= 0.1) & (grid.nodes <= 2.0 - 5 * grid.step)
        rs = grid.nodes[keep]
        got = spec.a1.fn(rs)
        want = 6.0 / (1.0 + rs ** 2)
        assert np.max(np.abs(got - want)) < 1e-3

    def test_p_laplacian_weight_formula(self, f_id):
        # flux r^2 * (2r)^2 = 4r^4 differentiates to 16r^3, so the weight is
        # 16r/(1+r^2) for f = id
        grid = RadialGrid(2.0, 1e-3)
        op = ops.make_operator("p_laplacian", p=3)
        target = ex.parse("1 + r^2")
        spec = oracle.manufactured_problem(target, target, op, op,
                                           f_id, f_id, 3, grid)
        keep = (grid.nodes >= 0.1) & (grid.nodes <= 2.0 - 5 * grid.step)
        rs = grid.nodes[keep]
        want = 16.0 * rs / (1.0 + rs ** 2)
        assert np.max(np.abs(spec.a1.fn(rs) - want)) < 1e-2

    def test_constant_target_gives_zero_weight(self, lap, f_id):
        grid = RadialGrid(1.0, 1e-3)
        const = ex.parse("2 + 0*r")
        spec = oracle.manufactured_problem(const, const, lap, lap,
                                           f_id, f_id, 3, grid)
        assert np.all(spec.a1.fn(grid.nodes) == 0.0)

    def test_round_trip_solve(self, lap, f_id):
        grid = RadialGrid(2.0, 1e-3)
        target = ex.parse("1 + r^2")
        spec = oracle.manufactured_problem(target, target, lap, lap,
                                           f_id, f_id, 3, grid)
        sol = it.solve(spec, grid)
        assert sol.converged
        assert np.max(np.abs(sol.u - (1 + grid.nodes ** 2))) <= 1e-4

    def test_decreasing_target_rejected(self, lap, f_id):
        grid = RadialGrid(1.0, 1e-2)
        bad = ex.parse("2 - r")
        with pytest.raises(model.SpecError, match="nondecreasing"):
            oracle.manufactured_problem(bad, ex.parse("1 + r^2"), lap, lap,
                                        f_id, f_id, 3, grid)

    def test_inadmissible_pair_rejected(self, lap, f_id):
        # slope ~ (1+r)^-3 makes the flux r^2 (1+r)^-3 peak at r=2 and then
        # fall, so the synthesized weight goes genuinely negative
        grid = RadialGrid(4.0, 1e-2)
        flattening = ex.parse("2 - 1/(2*(1+r)^2)")
        with pytest.raises(model.SpecError, match="inadmissible"):
            oracle.manufactured_problem(flattening, ex.parse("1 + r^2"),
                                        lap, lap, f_id, f_id, 3, grid)


class TestOracleVersusClassifier:
    def test_large_verdicts_agree_on_linear_family(self, lap, f_id):
        # the classifier's verdict on the power-law family must match the
        # classical criteria (checked exhaustively in the acceptance suite)
        from radialphi import classifier as cl
        from radialphi import criteria as cr
        for src, expect in (("1", True), ("(1+r)^(-4)", False)):
            spec = model.build_problem(
                N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
                a1=weight(src), a2=weight(src),
                f1=model.power_nonlinearity(1.0),
                f2=model.power_nonlinearity(1.0))
            hyp = model.check_hypotheses(spec)
            rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
            cls = cl.classify(spec, rep, hyp)
            inst = oracle.PowerLawInstance(1.0, 1.0, weight(src), weight(src))
            out = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2))
            assert out.large_solution is expect
            assert (cls.verdict == cl.BOTH_LARGE) is expect
