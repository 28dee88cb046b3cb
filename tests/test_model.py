import sys
import threading

import numpy as np
import pytest

from radialphi import model
from radialphi import operators as ops
from radialphi._memo import BoundedCache


@pytest.fixture(scope="module")
def lap():
    return ops.make_operator("laplacian")


def unit_problem(lap, **kwargs):
    defaults = dict(
        N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
        a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
        f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
    defaults.update(kwargs)
    return model.build_problem(**defaults)


class TestSides:
    def test_pair_21_is_side_2_then_side_1(self, lap):
        spec = unit_problem(lap, alpha=1.5, a2=model.weight_from_expr("2"))
        own, other = spec.pair("21")
        assert (own.index, other.index) == (2, 1)
        assert (own.op, own.env, own.weight, own.nl, own.start) == (
            spec.op2, spec.env2, spec.a2, spec.f2, spec.beta)
        assert (other.op, other.env, other.weight, other.nl, other.start) == (
            spec.op1, spec.env1, spec.a1, spec.f1, spec.alpha)
        assert spec.pair("12") == spec.sides

    def test_unknown_pair_rejected(self, lap):
        with pytest.raises(ValueError, match="pair"):
            unit_problem(lap).pair("13")


class TestAssembly:
    def test_auto_constants_unit_case(self, lap):
        # alpha=beta=1, identity couplings, identity-like envelopes:
        # M bound = max(1, 1/1) = 1 and m = half of min(1, 1) = 0.5
        spec = unit_problem(lap)
        assert spec.f1.M_big == pytest.approx(1.0)
        assert spec.f2.M_big == pytest.approx(1.0)
        assert spec.f1.m_small == pytest.approx(0.5)
        assert spec.f2.m_small == pytest.approx(0.5)

    def test_decreasing_nonlinearity_rejected(self, lap):
        with pytest.raises(model.SpecError, match="monotonicity"):
            unit_problem(lap, f1=model.custom_nonlinearity("exp(-t)"))

    def test_negative_weight_rejected(self, lap):
        with pytest.raises(model.SpecError, match="nonnegativity"):
            unit_problem(lap, a1=model.weight_from_expr("0 - 1"))

    def test_small_dimension_rejected(self, lap):
        with pytest.raises(model.SpecError):
            unit_problem(lap, N=2)

    def test_user_M_below_bound_rejected(self, lap):
        with pytest.raises(model.SpecError, match="M ="):
            unit_problem(lap, M1=0.5)

    @pytest.mark.parametrize("kwargs,match", [
        ({"alpha": np.inf}, "alpha, beta must be positive and finite"),
        ({"beta": np.inf}, "alpha, beta must be positive and finite"),
        ({"M1": np.nan}, "M1, M2 must be finite"),
        ({"M2": np.inf}, "M1, M2 must be finite"),
    ])
    def test_non_finite_scalars_rejected(self, lap, kwargs, match):
        # a NaN or infinite M passed the M >= bound check
        with pytest.raises(model.SpecError, match=match):
            unit_problem(lap, **kwargs)

    def test_user_M_above_bound_accepted(self, lap):
        spec = unit_problem(lap, M1=7.5)
        assert spec.f1.M_big == 7.5

    def test_user_m_outside_interval_rejected(self, lap):
        with pytest.raises(model.SpecError, match="m ="):
            unit_problem(lap, m1=1.0)  # interval is open at min(beta, ...) = 1

    def test_user_m_inside_interval_accepted(self, lap):
        spec = unit_problem(lap, m1=0.25)
        assert spec.f1.m_small == 0.25
        # the power-family lower constant tracks m
        assert spec.f1.c_under == pytest.approx(0.25)

    def test_assemble_from_config(self):
        spec = model.assemble({
            "N": 3, "alpha": 1.0, "beta": 2.0,
            "operator1": {"family": "plasma", "p": 2, "q": 3},
            "operator2": "laplacian",
            "weight1": "6/(1+r^2)",
            "weight2": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 2}},
            "f1": {"family": "power", "gamma": 0.5},
            "f2": {"family": "log1p"},
        })
        assert spec.op1.family == "plasma"
        assert spec.beta == 2.0
        assert spec.a2.fn(1.0) == pytest.approx(0.25)

    def test_assemble_missing_key(self):
        with pytest.raises(model.SpecError, match="missing config key"):
            model.assemble({"N": 3})

    def test_assemble_deterministic(self, lap):
        s1 = unit_problem(lap)
        s2 = unit_problem(lap)
        assert s1.f1.M_big == s2.f1.M_big
        assert s1.f1.m_small == s2.f1.m_small

    def test_envelope_override_from_config(self):
        # identity sandwich is exact for the laplacian flux
        spec = model.assemble({
            "N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": "laplacian", "operator2": "laplacian",
            "weight1": "1", "weight2": "1",
            "f1": {"family": "power", "gamma": 1.0},
            "f2": {"family": "power", "gamma": 1.0},
            "envelope1": {"theta_under": "s", "theta_bar": "s",
                          "psi_under": "h_inverse", "psi_bar": "h_inverse"},
        })
        assert spec.env1.description == "user override"
        assert float(np.asarray(spec.env1.theta_bar(2.5))) == 2.5

    def test_invalid_envelope_override_rejected(self):
        # an identity sandwich cannot hold for a nonlinear flux
        with pytest.raises(model.SpecError, match="sandwich"):
            model.assemble({
                "N": 3, "alpha": 1.0, "beta": 1.0,
                "operator1": {"family": "plasma", "p": 2, "q": 3},
                "operator2": "laplacian",
                "weight1": "1", "weight2": "1",
                "f1": {"family": "power", "gamma": 1.0},
                "f2": {"family": "power", "gamma": 1.0},
                "envelope1": {"theta_under": "s", "theta_bar": "s",
                              "psi_under": "s", "psi_bar": "s"},
            })


class TestHypothesisChecks:
    def test_power_case_exact_factorization(self, lap):
        # f(t) = t^gamma with power envelopes: the upper split holds with
        # equality, so the sampled check passes with zero violation
        spec = unit_problem(lap, f1=model.power_nonlinearity(1.7),
                            f2=model.power_nonlinearity(0.8))
        rep = model.check_hypotheses(spec)
        assert rep.ok("upper_split_f1") and rep["upper_split_f1"].worst <= 1e-12
        assert rep.ok("upper_split_f2")
        assert rep.ok("lower_split_f1") and rep.ok("lower_split_f2")

    def test_all_hypotheses_pass_unit_case(self, lap):
        rep = model.check_hypotheses(unit_problem(lap))
        for name in ("weight_1", "weight_2", "monotone_f1", "monotone_f2", "upper_split_f1", "upper_split_f2",
                     "lower_split_f1", "lower_split_f2"):
            assert rep.ok(name), name

    def test_exp_family_has_no_upper_split(self, lap):
        spec = unit_problem(lap, f1=model.exp_minus_one_nonlinearity())
        assert not spec.f1.has_upper_split
        assert spec.f1.has_lower_split
        rep = model.check_hypotheses(spec)
        assert not rep.ok("upper_split_f1")
        assert "no upper envelope" in rep["upper_split_f1"].note
        assert rep.ok("lower_split_f1")

    def test_log1p_family_envelopes_validate(self, lap):
        spec = unit_problem(lap, f1=model.log1p_nonlinearity(),
                            f2=model.log1p_nonlinearity())
        rep = model.check_hypotheses(spec)
        assert rep.ok("upper_split_f1") and rep.ok("upper_split_f2")
        assert rep.ok("lower_split_f1") and rep.ok("lower_split_f2")

    def test_power_combination_envelopes_validate(self, lap):
        nl = model.power_combination_nonlinearity([1.0, 2.0], [0.5, 2.0])
        spec = unit_problem(lap, f1=nl)
        rep = model.check_hypotheses(spec)
        assert rep.ok("upper_split_f1") and rep.ok("lower_split_f1")

    def test_bad_custom_envelope_flagged_not_raised(self, lap):
        # claimed upper split too small by half: report flags, no exception
        nl = model.custom_nonlinearity(
            "t^2", c_bar=0.4, g="t^2", xi_bar="t^2",
            c_under=None, xi_under=None)
        spec = unit_problem(lap, f1=nl, f2=model.power_nonlinearity(1.0))
        rep = model.check_hypotheses(spec)
        assert not rep.ok("upper_split_f1")
        assert rep["upper_split_f1"].worst > 0.1

    def test_weight_failure_flagged_on_wider_span(self, lap):
        # positive on the assembly screening span, negative further out:
        # the report flags it instead of raising
        spec = unit_problem(lap, a1=model.weight_from_expr("100 - r"))
        rep = model.check_hypotheses(spec, span=128.0)
        assert not rep.ok("weight_1")
        assert "negative" in rep["weight_1"].note
        assert rep.ok("weight_2")

    def test_auto_constants_satisfy_own_checks(self, lap):
        # varied instance: auto M/m must self-validate
        spec = unit_problem(
            lap, alpha=0.7, beta=2.3,
            op2=ops.make_operator("plasma", p=2, q=3),
            f1=model.power_nonlinearity(1.3),
            f2=model.power_nonlinearity(0.6))
        rep = model.check_hypotheses(spec)
        assert rep.ok("upper_split_f1") and rep.ok("upper_split_f2")
        assert rep.ok("lower_split_f1") and rep.ok("lower_split_f2")


def operator_config(operator1, operator2="laplacian"):
    return {"N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": operator1, "operator2": operator2,
            "weight1": "1/(1+r)^2", "weight2": "1/(1+r)^2",
            "f1": {"family": "power", "gamma": 1.0},
            "f2": {"family": "power", "gamma": 0.5}}


class TestOperatorCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = BoundedCache(2)
        monkeypatch.setattr(model, "_OPERATORS", fresh)
        monkeypatch.setattr(model, "_ENVELOPES", BoundedCache(2))
        return fresh

    @pytest.fixture
    def derived(self, monkeypatch):
        calls = []
        derive = model.derive_envelopes
        monkeypatch.setattr(model, "derive_envelopes",
                            lambda op: calls.append(op.label) or derive(op))
        return calls

    def test_same_config_same_operator_and_envelope(self, cache, derived):
        first = model.assemble(operator_config({"family": "plasma", "p": 2, "q": 3}))
        # an equal section with its keys in another order
        again = model.assemble(operator_config({"q": 3, "p": 2, "family": "plasma"}))
        assert again.op1 is first.op1 and again.env1 is first.env1
        assert again.op2 is first.op2 and again.env2 is first.env2
        assert sorted(derived) == ["laplacian", "plasma(p=2, q=3)"]

    def test_distinct_configs_kept_apart(self, cache, derived):
        a = model.assemble(operator_config({"family": "p_laplacian", "p": 3}))
        b = model.assemble(operator_config({"family": "p_laplacian", "p": 2.5}))
        assert a.op1 is not b.op1 and a.env1 is not b.env1
        assert (a.op1.label, b.op1.label) == ("p_laplacian(p=3)", "p_laplacian(p=2.5)")
        assert a.op2 is b.op2

    def test_size_bounded(self, cache):
        ops_seen = [model.assemble(operator_config({"family": "p_laplacian", "p": p})).op1
                    for p in (1.5, 2.0, 2.5, 3.0, 3.5)]
        assert len(cache._entries) == 2
        # the oldest entries went first: p = 1.5 is built afresh
        again = model.assemble(operator_config({"family": "p_laplacian", "p": 1.5}))
        assert again.op1 is not ops_seen[0]

    def test_refused_derivation_not_cached(self, cache, derived):
        # the flux t/(1+t) saturates, so no sandwich can be derived
        cfg = operator_config({"family": "custom", "expr": "1/(1+t)"})
        for _ in range(2):
            with pytest.raises(ops.OperatorError, match="refused"):
                model.assemble(cfg)
        assert derived.count("custom(1/(1+t))") == 2

    def test_override_envelope_skips_derivation(self, cache, derived):
        cfg = operator_config("laplacian")
        cfg["envelope1"] = {"theta_under": "s", "theta_bar": "s",
                            "psi_under": "h_inverse", "psi_bar": "h_inverse"}
        spec = model.assemble(cfg)
        assert spec.env1.description == "user override"
        assert spec.op1 is spec.op2 and derived == ["laplacian"]

    def test_nonlinearity_sections_shared(self, monkeypatch):
        monkeypatch.setattr(model, "_NONLINEARITIES", BoundedCache(2))
        cfg = operator_config("laplacian")
        a, b = model.assemble(cfg), model.assemble(cfg)
        # finalizing copies the record, but the functions are the shared ones
        assert a.f1 is not b.f1 and a.f1.f is b.f1.f and a.f1.g is b.f1.g
        other = model.assemble(dict(cfg, f1={"family": "power", "gamma": 2.0}))
        assert other.f1.f is not a.f1.f and other.f2.f is a.f2.f

    def test_non_json_section_built_afresh(self, cache):
        from radialphi import exprlang
        section = {"family": "custom", "expr": exprlang.parse("1 + t")}
        a = model.assemble(operator_config(section))
        b = model.assemble(operator_config(section))
        assert a.op1 is not b.op1 and len(cache._entries) == 1

    def test_threads_build_and_derive_once(self, cache, derived, monkeypatch):
        built = []
        make = model.make_operator
        monkeypatch.setattr(model, "make_operator",
                            lambda family, **kw: built.append(family) or make(family, **kw))
        cfg = operator_config({"family": "elasticity", "p": 1}, {"family": "elasticity", "p": 1})
        barrier = threading.Barrier(4)
        specs = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            specs[i] = model.assemble(cfg)

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
        assert all(s is not None and s.op1 is specs[0].op1 is s.op2 for s in specs)
        assert built == ["elasticity"] and derived == ["elasticity(p=1)"]
