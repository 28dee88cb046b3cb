import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from radialphi import cli, exprlang, model
from radialphi import criteria as cr
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


def nudged(ulps: int):
    """The identity moved up by ``ulps`` ulps."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        for _ in range(ulps):
            x = np.nextafter(x, np.inf)
        return x
    return fn


class TestHypothesisChecks:
    @pytest.mark.parametrize("ulps", [1, 4, 5, 16])
    def test_split_sides_within_roundoff_agree(self, ulps):
        # a split that holds with equality still rounds: sides within 4 ulps
        # of the larger one read no violation, and a wider gap still does
        ident = nudged(0)
        upper = model.Nonlinearity(f=nudged(ulps), label="t", family="custom", c_bar=1.0,
                                   g=ident, xi_bar=ident, threshold=1.0)
        lower = model.Nonlinearity(f=ident, label="t", family="custom", c_under=1.0,
                                   xi_under=nudged(ulps), m_small=1.0)
        for check in (model._sample_upper_split(upper, "upper_split_f1"),
                      model._sample_lower_split(lower, "lower_split_f1")):
            assert check.ok
            assert (check.worst == 0.0) if ulps <= 4 else (0.0 < check.worst < 1e-14)

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

    def test_weight_failure_flagged_without_assembly(self, lap):
        # positive at 0, negative further out on the screening span, in a
        # spec that build_problem never screened: the report flags it
        # instead of raising, every time
        env = ops.derive_envelopes(lap)[0]
        spec = model.ProblemSpec(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap, env1=env, env2=env,
            a1=model.weight_from_expr("10 - r"), a2=model.weight_from_expr("1"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
        for _ in range(2):
            rep = model.check_hypotheses(spec)
            assert not rep.ok("weight_1")
            assert "negative" in rep["weight_1"].note
            assert rep.ok("weight_2")
            assert rep["weight_2"].note == "sampled on [0, 64]"

    @pytest.mark.parametrize("source, samples", [("1/(1+r)", 1), ("10 - r", 2)])
    def test_shared_weight_screened_once_when_it_passes(self, lap, monkeypatch, source,
                                                        samples):
        # a2 is a1's function under its own label: a passing a1 screens both,
        # a failing one leaves a2 to be screened for a note of its own
        env = ops.derive_envelopes(lap)[0]
        a1 = model.weight_from_expr(source, label="a1")
        spec = model.ProblemSpec(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap, env1=env, env2=env,
            a1=a1, a2=replace(a1, label="a2"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
        screened, sample = [], model.Weight.sample
        monkeypatch.setattr(model.Weight, "sample", lambda w, xs: (
            screened.append(w.label) if xs is model._SCREEN_GRID else None) or sample(w, xs))
        rep = model.check_hypotheses(spec)
        assert screened == ["a1", "a2"][:samples]
        if samples == 1:
            assert rep.ok("weight_1") and rep.ok("weight_2")
            assert rep["weight_2"].note == rep["weight_1"].note == "sampled on [0, 64]"
        else:
            for side in (1, 2):
                assert not rep.ok(f"weight_{side}")
                assert rep[f"weight_{side}"].note.startswith(f"weight a{side}: negative")

    def test_overflowing_upper_split_flagged_without_warning(self, lap):
        # f(t*w) and its bound both overflow for gamma = 50: a violation, not
        # a RuntimeWarning from inf - inf
        spec = unit_problem(lap, f1=model.power_nonlinearity(50.0))
        rep = model.check_hypotheses(spec)
        assert not rep.ok("upper_split_f1") and rep["upper_split_f1"].worst == np.inf
        assert rep.ok("upper_split_f2")

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


def cold_caches(monkeypatch):
    """Fresh operator and envelope caches, the only ones config assembly
    keeps."""
    for name in ("_OPERATORS", "_ENVELOPES"):
        monkeypatch.setattr(model, name, BoundedCache(2))


def decay_config(**problem):
    cfg = {"N": 3, "alpha": 1.0, "beta": 1.0,
           "operator1": "laplacian", "operator2": "laplacian",
           "weight1": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0.0}},
           "weight2": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0.0}},
           "f1": {"family": "power", "gamma": 1.0},
           "f2": {"family": "log1p"}}
    cfg.update(problem)
    return cfg


# an upper split of f1 that holds for thresholds >= 1 only, and a lower split
# of f2 that holds for m >= 0.1 only: both outcomes move with alpha
ALPHA_SENSITIVE = dict(
    beta=0.5,
    f1={"family": "custom", "expr": "t+t^2",
        "envelopes": {"c_bar": 2.0, "g": "t^2", "xi_bar": "w^2"}},
    f2={"family": "custom", "expr": "t^2",
        "envelopes": {"c_under": 0.01, "xi_under": "w^2"}})


def sweep_hypotheses(tmp_path, monkeypatch, problem, axis, paths, values):
    """The hypotheses of every point of an in-process ``rps sweep``, and
    the number of problems of each ``criteria.build_reports`` call."""
    seen, batches = [], []
    check, build_reports = model.check_hypotheses, cr.build_reports

    def recording(spec):
        out = check(spec)
        seen.append(out.to_dict())
        return out

    def counting(specs, schedule):
        batches.append(len(specs))
        return build_reports(specs, schedule)

    monkeypatch.setattr(model, "check_hypotheses", recording)
    monkeypatch.setattr(cr, "build_reports", counting)
    cfg = {"problem": problem, "sweep": {
        "axes": [{"name": axis, "paths": paths, "values": values}],
        "csv": str(tmp_path / "sweep.csv")}}
    assert cli.run_config("sweep", cfg) == 0
    monkeypatch.setattr(model, "check_hypotheses", check)
    monkeypatch.setattr(cr, "build_reports", build_reports)
    return seen, batches


def cold_hypotheses(tmp_path, monkeypatch, problem) -> dict:
    """The hypotheses of one ``rps classify`` with every cache cold."""
    cold_caches(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.run_config("classify", {"problem": problem,
                                       "outputs": {"report_json": str(out)}}) == 0
    return json.loads(out.read_text(encoding="utf-8"))["hypotheses"]


class TestCheckCache:
    def test_sigma_sweep_runs_each_check_once_per_key(self, tmp_path, monkeypatch):
        cold_caches(monkeypatch)
        monkeypatch.setattr(exprlang, "_TREES", BoundedCache(64))
        runs = {"monotone": Counter(), "upper": Counter(), "lower": Counter()}
        screens, parsed, assembled = [], [], []
        tokenize, assemble = exprlang._tokenize, model.assemble
        monkeypatch.setattr(exprlang, "_tokenize", lambda source: (
            parsed.append(source) or tokenize(source)))
        monkeypatch.setattr(model, "assemble", lambda problem: (
            assembled.append(problem) or assemble(problem)))
        monotone, upper, lower = (model._check_monotone, model._sample_upper_split,
                                  model._sample_lower_split)
        sample = model.Weight.sample

        def counting(kind, key, check):
            def run(nl, *args):
                runs[kind][key(nl)] += 1
                return check(nl, *args)
            return run

        monkeypatch.setattr(model, "_check_monotone",
                            counting("monotone", lambda nl: nl.f, monotone))
        monkeypatch.setattr(model, "_sample_upper_split", counting(
            "upper", lambda nl: (nl.f, nl.upper_split_builder, nl.threshold), upper))
        monkeypatch.setattr(model, "_sample_lower_split", counting(
            "lower", lambda nl: (nl.f, nl.lower_split_builder, nl.m_small), lower))
        monkeypatch.setattr(model.Weight, "sample", lambda w, xs: (
            screens.append(w) if xs is model._SCREEN_GRID else None) or sample(w, xs))
        sigmas = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        hyps, batches = sweep_hypotheses(tmp_path, monkeypatch, decay_config(), "sigma",
                                         ["problem.weight1.params.sigma",
                                          "problem.weight2.params.sigma"], sigmas)
        # a sweep of weights alone assembles and checks its first point,
        # gives every later one its own weights, and probes them in one batch
        assert len(assembled) == 1 and len(hyps) == 1
        assert all(c["ok"] for c in hyps[0].values())
        assert batches == [8]
        # the weight source is parsed once: sigma is a slot of the tree
        assert parsed == ["(1+r)^(-sigma)"]
        # only the first point is checked: monotonicity by its assembly and
        # by its report, each split by its report
        for kind, times in (("monotone", 2), ("upper", 1), ("lower", 1)):
            assert len(runs[kind]) == 2 and set(runs[kind].values()) == {times}, kind
        # a point's a1 and a2 are one function, screened once by assembly or
        # reweighting; the first point's hypothesis check screens it again,
        # once for both sides
        assert len(screens) == 9 and len({w.fn for w in screens}) == 8

    @pytest.mark.parametrize("problem,axis,path,values", [
        (decay_config(), "gamma", "problem.f1.gamma", [1.0, 50.0, 2.0, 0.5, 50.0]),
        (decay_config(**ALPHA_SENSITIVE), "alpha", "problem.alpha", [2.0, 0.5, 0.1, 1.0, 0.1]),
    ], ids=["gamma", "alpha"])
    def test_sweep_points_match_cold_classifies(self, tmp_path, monkeypatch,
                                                problem, axis, path, values):
        cold_caches(monkeypatch)
        hyps, batches = sweep_hypotheses(tmp_path, monkeypatch, problem, axis, [path], values)
        # any other sweep probes each point alone
        assert batches == [1] * len(values)
        key = path.split(".")[1:]
        cold = []
        for value in values:
            point = json.loads(json.dumps(problem))
            node = point
            for k in key[:-1]:
                node = node[k]
            node[key[-1]] = value
            cold.append(cold_hypotheses(tmp_path, monkeypatch, point))
        assert hyps == cold
        # the sweep passes through both outcomes of a check
        assert len({json.dumps(h, sort_keys=True) for h in cold}) > 1

    def test_failed_monotone_check_names_each_caller(self, tmp_path, capsys, monkeypatch, lap):
        cold_caches(monkeypatch)
        problem = decay_config(f1="exp(-t)")
        cfg = {"problem": problem, "outputs": {"report_json": str(tmp_path / "r.json")}}
        for _ in range(2):  # a failure is not kept: the second run checks again
            assert cli.run_config("classify", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: f1 (exp(-t)): fails monotonicity")
        env = ops.derive_envelopes(lap)[0]
        spec = model.ProblemSpec(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap, env1=env, env2=env,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.custom_nonlinearity("exp(-t)"), f2=model.power_nonlinearity(1.0))
        rep = model.check_hypotheses(spec)
        assert not rep.ok("monotone_f1") and rep.ok("monotone_f2")
        assert rep["monotone_f1"].note.startswith("monotone_f1 (exp(-t)): fails monotonicity")
        # a spec made without build_problem has its weights sampled
        assert rep.ok("weight_1")

    def test_replaced_weight_sampled_again(self, lap):
        spec = replace(unit_problem(lap), a1=model.weight_from_expr("0 - 1"))
        rep = model.check_hypotheses(spec)
        assert not rep.ok("weight_1") and "negative" in rep["weight_1"].note
        assert rep.ok("weight_2")

    def test_threads_share_checks(self, monkeypatch):
        # three nonlinearity sections and three alphas against caches of two
        # entries: threads evict each other's entries all the time
        configs = [decay_config(alpha=alpha, f1=f1)
                   for alpha in (2.0, 0.5, 0.1)
                   for f1 in (ALPHA_SENSITIVE["f1"], {"family": "power", "gamma": 50.0},
                              {"family": "log1p"})]
        for cfg in configs:
            cfg["beta"] = 0.5

        def report(cfg):
            return model.check_hypotheses(model.assemble(cfg)).to_dict()

        want = []
        for cfg in configs:
            cold_caches(monkeypatch)
            want.append(report(cfg))
        cold_caches(monkeypatch)
        n_threads = (os.cpu_count() or 1) + 2
        deadline = time.monotonic() + 2.0
        rounds = [0] * n_threads
        wrong = []

        def work(i):
            order = list(range(len(configs)))
            while rounds[i] < 5 and time.monotonic() < deadline:
                for k in order[i % len(order):] + order[:i % len(order)]:
                    if report(configs[k]) != want[k]:
                        wrong.append((i, k))
                rounds[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(rounds) and wrong == []
