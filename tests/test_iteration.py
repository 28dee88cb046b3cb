import numpy as np
import pytest

from radialphi import criteria, iteration as it, model
from radialphi import operators as ops
from radialphi.quadrature import RadialGrid


@pytest.fixture(scope="module")
def lap():
    return ops.make_operator("laplacian")


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(2.0, 1e-3)


def make_spec(lap, w1="1", w2="1", g1=1.0, g2=1.0, alpha=1.0, beta=1.0,
              op2=None):
    return model.build_problem(
        N=3, alpha=alpha, beta=beta, op1=lap, op2=op2 or lap,
        a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
        f1=model.power_nonlinearity(g1), f2=model.power_nonlinearity(g2))


class TestInit:
    def test_constant_start(self, lap, grid):
        st = it.init_state(make_spec(lap, alpha=1.0, beta=2.0), grid)
        assert np.all(st.u == 1.0)
        assert np.all(st.v == 2.0)
        assert st.m == 0
        assert st.sup_diff_history == ()

    def test_shapes_match_grid(self, lap):
        g = RadialGrid(1.0, 0.1)
        st = it.init_state(make_spec(lap), g)
        assert len(st.u) == len(g) == 11


class TestStep:
    def test_zero_weights_freeze(self, lap, grid):
        spec = make_spec(lap, w1="0", w2="0")
        st = it.step(it.init_state(spec, grid), spec)
        assert np.all(st.u == spec.alpha)
        assert np.all(st.v == spec.beta)
        assert st.sup_diff_history[-1][1:] == (0.0, 0.0)

    def test_first_sweep_hand_value(self, lap, grid):
        # unit weights, identity couplings: kernel of 1 is t/3, integrate
        # once more: u1(r) = 1 + r^2/6
        spec = make_spec(lap)
        st = it.step(it.init_state(spec, grid), spec)
        assert np.max(np.abs(st.u - (1 + grid.nodes ** 2 / 6))) < 1e-12

    def test_iterates_monotone_in_sweep_index(self, lap, grid):
        spec = make_spec(lap)
        st = it.init_state(spec, grid)
        prev_u, prev_v = st.u, st.v
        for _ in range(5):
            st = it.step(st, spec)
            assert np.min(st.u - prev_u) >= -1e-12
            assert np.min(st.v - prev_v) >= -1e-12
            prev_u, prev_v = st.u, st.v

    def test_iterates_monotone_in_radius(self, lap, grid):
        spec = make_spec(lap, w1="exp(-r)", w2="1/(1+r^2)", g1=0.7, g2=1.3)
        st = it.init_state(spec, grid)
        for _ in range(4):
            st = it.step(st, spec)
            assert np.all(np.diff(st.u) >= 0)
            assert np.all(np.diff(st.v) >= 0)

    def test_floor_invariants(self, lap, grid):
        spec = make_spec(lap, alpha=1.2, beta=0.8, g1=0.5, g2=1.5)
        st = it.init_state(spec, grid)
        for _ in range(4):
            st = it.step(st, spec)
            assert np.all(st.u >= spec.alpha)
            assert np.all(st.v >= spec.beta)

    def test_blowup_reports_radius(self, lap):
        # strong superlinear coupling on a wide grid overflows: the error
        # names the radius and equation rather than returning inf
        spec = make_spec(lap, w1="10", w2="10", g1=3.0, g2=3.0)
        g = RadialGrid(50.0, 0.01)
        st = it.init_state(spec, g)
        with pytest.raises(it.NumericsError, match="r="):
            for _ in range(60):
                st = it.step(st, spec)


class TestSolve:
    def test_manufactured_instance(self, lap, grid):
        spec = make_spec(lap, w1="6/(1+r^2)", w2="6/(1+r^2)")
        sol = it.solve(spec, grid)
        exact = 1 + grid.nodes ** 2
        assert sol.converged
        assert np.max(np.abs(sol.u - exact)) <= 1e-4
        assert sol.residual_u <= 1e-5 and sol.residual_v <= 1e-5

    def test_zero_weights_single_sweep(self, lap, grid):
        sol = it.solve(make_spec(lap, w1="0", w2="0"), grid)
        assert sol.converged
        assert sol.iterations_used == 1
        assert sol.residual_u == 0.0 and sol.residual_v == 0.0

    def test_symmetric_instance_gives_equal_components(self, lap, grid):
        spec = make_spec(lap, w1="1/(1+r)", w2="1/(1+r)")
        sol = it.solve(spec, grid, conv_tol=1e-8)
        assert np.max(np.abs(sol.u - sol.v)) <= 1e-8 * (1 + np.max(sol.u))

    def test_truncated_iteration_leaves_residual(self, lap, grid):
        spec = make_spec(lap)
        sol = it.solve(spec, grid, conv_tol=1e-8, max_iter=1)
        assert not sol.converged
        assert max(sol.residual_u, sol.residual_v) > 1e-8

    def test_residual_matches_reported(self, lap, grid):
        spec = make_spec(lap, w1="1/(1+r^2)", w2="exp(-r)")
        sol = it.solve(spec, grid)
        ru, rv = it.residual(spec, sol)
        assert ru == pytest.approx(sol.residual_u, abs=1e-14)
        assert rv == pytest.approx(sol.residual_v, abs=1e-14)

    @pytest.mark.parametrize("max_iter", [0, 1, it.DEFAULT_MAX_ITER])
    def test_reported_v_residual_is_exact(self, lap, grid, max_iter):
        # solve reports residual_v without the v half-sweep once a sweep has
        # run: the v-image of the final u is then v itself, bit for bit
        spec = make_spec(lap, w1="1/(1+r^2)", w2="exp(-r)",
                         op2=ops.make_operator("plasma", p=2, q=3))
        sol = it.solve(spec, grid, max_iter=max_iter)
        assert it.residual(spec, sol)[1] == sol.residual_v
        assert (sol.residual_v == 0.0) == (max_iter > 0)


class TestEnvelopedBounds:
    def test_iterate_ceiling_and_solution_floor(self, lap, grid):
        # mixed operators stress the envelope index conventions
        spec = make_spec(lap, w1="1/(1+r)", w2="2", g1=0.7, g2=1.2, beta=1.5,
                         op2=ops.make_operator("plasma", p=2, q=3))
        bounds = criteria.solution_bounds(spec, grid.nodes)
        st = it.init_state(spec, grid)
        for _ in range(10):
            st = it.step(st, spec)
            assert np.all(st.u <= bounds["u_upper"] + 1e-6)
            assert np.all(st.v <= bounds["v_upper"] + 1e-6)
        sol = it.solve(spec, grid)
        assert np.all(sol.u >= bounds["u_lower"] - 1e-6)
        assert np.all(sol.v >= bounds["v_lower"] - 1e-6)
