import copy
import importlib.util
import itertools
import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radialphi import classifier as cl
from radialphi import cli
from radialphi import criteria as cr
from radialphi import model
from radialphi import operators as ops
from radialphi import oracle
from radialphi import quadrature as qd
from radialphi._memo import BoundedCache


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


def up_to(spec, t):
    """An evaluator on the graded probe layout of the one radius ``t``: 31
    head segments below t, 16 nodes each; its last values are at t."""
    return cr.CriteriaEvaluator(spec, cr.probe_grid(qd.ProbeSchedule(r0=t, count=1))[2])


def linear(spec, xs):
    """An evaluator on the trapezoid panels of the nodes ``xs``."""
    return cr.CriteriaEvaluator(spec, qd.LinearPanels(xs))


class TestAccumulation:
    def test_unit_weight_quadratic(self, lap):
        # identity inverse flux, unit weight: A(t) = t^2/6, so A(3) = 1.5
        spec = make_spec(lap)
        assert up_to(spec, 3.0).accumulation_values(1, "bar")[-1] == pytest.approx(1.5, rel=1e-9)

    def test_desk_calls_keep_matrix_cache_bounded(self, lap, monkeypatch):
        # every single-radius probe layout is a new panel layout, but its
        # panels have the ratios 0 and 1/2 of every other one: two kernel
        # matrices and the integration matrix serve all 50 radii
        cr._probe_grid.cache_clear()
        built = []
        matrix = qd._panel_matrix
        monkeypatch.setattr(qd, "_PANEL_MATRICES", BoundedCache(16))
        monkeypatch.setattr(qd, "_panel_matrix",
                            lambda *key: built.append(key) or matrix(*key))
        spec = make_spec(lap)
        for t in np.linspace(1.0, 3.0, 50):
            got = up_to(spec, t).accumulation_values(1, "bar")[-1]
            assert got == pytest.approx(t * t / 6, rel=1e-9)
        assert sorted(built) == [(1, 16, 0.0), (3, 16, 0.0), (3, 16, 0.5)]

    def test_desk_calls_keep_the_probe_matrices(self, lap, monkeypatch):
        # single-radius layouts share the probe grid's kernel matrices
        # instead of pushing them out of the cache; a probe layout keeps
        # stacked copies of its matrices, so it is rebuilt here to fetch them
        cr._probe_grid.cache_clear()
        monkeypatch.setattr(qd, "_PANEL_MATRICES", BoundedCache(16))
        spec = make_spec(lap, w1="1/(1+r)^2", w2="1/(1+r)^2")
        cr.build_report(spec)
        held = dict(qd._PANEL_MATRICES._entries)
        assert (3, 16, 0.5) in held
        for t in np.linspace(1.0, 3.0, 10):
            up_to(spec, t).accumulation_values(1, "bar")
        assert qd._PANEL_MATRICES._entries.keys() == held.keys()
        assert all(qd._PANEL_MATRICES._entries[k] is v for k, v in held.items())

    def test_desk_call_builds_no_kernel_plan(self, lap, monkeypatch):
        # values up to one radius used to need a 4097-node grid and its
        # trapezoid kernel weights; they run on Chebyshev–Lobatto panels alone
        def refuse(*args):
            raise AssertionError("trapezoid layout built")
        for module in (qd, cr):
            monkeypatch.setattr(module, "LinearPanels", refuse)
        spec = make_spec(lap)
        assert up_to(spec, 3.0).accumulation_values(1, "bar")[-1] == pytest.approx(1.5, rel=1e-12)
        ev = up_to(spec, 1.0)
        assert ev.upper_coupling_values("12")[-1] == pytest.approx(0.175, rel=1e-12)
        assert ev.lower_coupling_values("21")[-1] > 0.0

    def test_zero_weight(self, lap):
        spec = make_spec(lap, w1="0")
        assert up_to(spec, 5.0).accumulation_values(1, "bar")[-1] == 0.0

    def test_under_at_most_bar(self, lap):
        spec = make_spec(lap, w1="1/(1+r^2)", op2=ops.make_operator("plasma", p=2, q=3))
        for t in (0.5, 1.0, 4.0):
            ev = up_to(spec, t)
            under = ev.accumulation_values(2, "under")[-1]
            bar = ev.accumulation_values(2, "bar")[-1]
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
        ev = linear(spec, np.linspace(0.0, 4.0, 401))
        assert ev.accumulation_values(2, "under") is ev.accumulation_values(2, "bar")
        assert len(calls) == 1

    @pytest.mark.parametrize("k_under, halve_psi", [(0.5, False), (1.0, True)])
    def test_distinct_envelope_factors_kept_apart(self, lap, k_under, halve_psi):
        # under differs from bar by k alone, or by psi alone
        ident = lambda s: np.asarray(s, dtype=float)
        psi_under = (lambda s: 0.5 * np.asarray(s, dtype=float)) if halve_psi else ident
        env = ops.EnvelopeSet(k_under=k_under, k_bar=1.0, theta_under=ident,
                              theta_bar=ident, psi_under=psi_under, psi_bar=ident)
        ev = linear(make_spec(lap, env1=env), np.linspace(0.0, 3.0, 301))
        assert ev.accumulation_values(1, "bar")[-1] == pytest.approx(1.5, rel=1e-9)
        assert ev.accumulation_values(1, "under")[-1] == pytest.approx(0.75, rel=1e-9)


class TestEvaluatorArrays:
    # equal functions, equal samples of distinct functions, distinct samples
    @pytest.mark.parametrize("w2, samples, kernels", [
        ("1/(1+r)^2", 1, 1), ("1/(1+r)^2*1", 2, 1), ("1/(1+r)^3", 2, 2)])
    def test_equal_weights_share_one_kernel(self, lap, monkeypatch, w2, samples, kernels):
        calls, sampled = [], []
        kernel = cr.radial_kernel_at
        monkeypatch.setattr(cr, "radial_kernel_at",
                            lambda *args, **kw: calls.append(args) or kernel(*args, **kw))
        spec = make_spec(lap, w1="1/(1+r)^2", w2=w2)
        sample = model.Weight.sample
        monkeypatch.setattr(model.Weight, "sample",
                            lambda w, xs: sampled.append(w.label) or sample(w, xs))
        ev = linear(spec, np.linspace(0.0, 4.0, 401))
        k1, k2 = ev.kernel(1), ev.kernel(2)
        assert len(sampled) == samples and len(calls) == kernels
        assert (k2 is k1) == (kernels == 1)
        assert np.array_equal(k2, kernel(sample(ev.spec.a2, ev.xs), 3, ev.xs))

    @pytest.mark.parametrize("w2", ["64.5-r", "1/(1+r)^3"])
    def test_failed_weight_leaves_the_other_side_alone(self, lap, w2):
        # negative beyond the screening span: side 1 fails on the probe
        # grid, and side 2 reports its own failure or its own verdict
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("64.5-r", label="a1"),
            a2=model.weight_from_expr(w2, label="a2"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
        report = cr.build_report(spec)
        assert "weight a1" in report.accumulation_1.note
        if w2 == "64.5-r":
            assert "weight a2" in report.accumulation_2.note
        else:
            assert not report.accumulation_2.note.startswith("evaluation failed")

    def test_cached_arrays_read_only(self, lap):
        # K may serve both sides, so a write by one consumer must raise
        # instead of changing what the other reads
        xs = np.linspace(0.0, 4.0, 401)
        ev = linear(make_spec(lap, w1="r", w2="r"), xs)
        arrays = [ev.weight(1), ev.weight(2), ev.kernel(1), ev.kernel(2),
                  ev.accumulation_values(1, "bar"), ev.accumulation_values(2, "under"),
                  ev.upper_coupling_values("12"), ev.lower_coupling_values("21"),
                  ev.upper_coupling_relaxed_values("12")]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[1] = -1.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert ev.kernel(2) is ev.kernel(1)
        # the caller's array stays writable; the layout holds its own copy
        assert xs.flags.writeable

    def test_allocation_guard(self):
        # the probe panels hold 721 nodes: a report's peak stays under
        # 0.25 MB (13 graded trapezoid grids of 25,601 nodes, 2.66 MB, before)
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=ops.make_operator("p_laplacian", p=3),
            op2=ops.make_operator("laplacian"),
            a1=model.weight_from_expr("(1+r)^-2"), a2=model.weight_from_expr("(1+r)^-2"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(0.5))
        cr.build_report(spec)
        tracemalloc.start()
        try:
            cr.build_report(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25e6


class TestCoupling:
    def test_zero_weights_all_couplings_vanish(self, lap):
        ev = up_to(make_spec(lap, w1="0", w2="0"), 3.0)
        for pair in ("12", "21"):
            assert ev.upper_coupling_values(pair)[-1] == 0.0
            assert ev.lower_coupling_values(pair)[-1] == 0.0

    def test_nested_polynomial_value(self, lap):
        # unit data: inner accumulation t^2/6, kernel y/3 + y^3/30,
        # integral r^2/6 + r^4/120, so 0.175 at r=1
        ev = up_to(make_spec(lap), 1.0)
        assert ev.upper_coupling_values("12")[-1] == pytest.approx(0.175, abs=1e-8)

    def test_bar_and_under_coincide_with_matched_data(self, lap):
        # start values >= 2 push the lower scaling constant to 1, making the
        # lower split (1, f); with identity couplings and identity-like
        # envelopes both coupling variants share one integrand
        spec = make_spec(lap, w1="1/(1+r)", w2="1/(1+r)", alpha=4.0, beta=4.0)
        assert spec.f1.m_small >= 1.0
        for r in (0.5, 1.0, 2.0):
            ev = up_to(spec, r)
            bar = ev.upper_coupling_values("12")[-1]
            under = ev.lower_coupling_values("12")[-1]
            assert under == pytest.approx(bar, rel=1e-9)

    def test_under_at_most_bar_generally(self, lap):
        spec = make_spec(lap, w1="1", w2="1/(1+r^2)", g1=0.8, g2=1.1)
        for pair in ("12", "21"):
            for r in (0.5, 1.5, 3.0):
                ev = up_to(spec, r)
                assert (ev.lower_coupling_values(pair)[-1]
                        <= ev.upper_coupling_values(pair)[-1] + 1e-12)

    def test_missing_lower_data_reported(self, lap):
        spec_no_c2 = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.exp_minus_one_nonlinearity(),
            f2=model.power_nonlinearity(1.0))
        # no upper split: the coupling is unavailable, not defaulted
        assert up_to(spec_no_c2, 1.0).upper_coupling_values("12") is None


def sweep_config(sigma, f1=None):
    return {"N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": {"family": "p_laplacian", "p": 3}, "operator2": "laplacian",
            "weight1": {"expr": "(1+r)^(-sigma)", "params": {"sigma": sigma}},
            "weight2": {"expr": "(1+r)^(-sigma)", "params": {"sigma": sigma}},
            "f1": f1 or {"family": "power", "gamma": 1.0},
            "f2": {"family": "log1p"}}


class TestBudgetProbes:
    """Growth-budget probe values shared by reports with equal budget inputs."""

    @pytest.fixture
    def built(self, monkeypatch):
        monkeypatch.setattr(cr, "_BUDGETS", BoundedCache(8))
        calls = []
        init = cr.GrowthBudget.__init__

        def counting(self, spec, pair, relaxed=False, acc_limit=None):
            calls.append(pair + ("_relaxed" if relaxed else ""))
            init(self, spec, pair, relaxed, acc_limit)

        monkeypatch.setattr(cr.GrowthBudget, "__init__", counting)
        return calls

    def test_weight_sweep_builds_plain_budgets_once(self, built):
        # a reweighted point keeps the envelopes and nonlinearities of the
        # problem it came from
        spec = model.assemble(sweep_config(3.0))
        first = cr.build_report(spec)
        plain = [b for b in built if not b.endswith("_relaxed")]
        assert sorted(plain) == ["12", "21"]
        second = cr.build_report(model.reweight(spec, sweep_config(4.0)))
        assert [b for b in built if not b.endswith("_relaxed")] == plain
        for name in ("growth_budget_12", "growth_budget_21"):
            assert second.verdicts[name] == first.verdicts[name]

    def test_cached_values_match_a_fresh_budget(self, built):
        spec = model.assemble(sweep_config(3.0))
        radii = qd.ProbeSchedule().radii().tolist()
        cached = cr._budget_probes(spec, "12", radii)
        again = cr._budget_probes(model.reweight(spec, sweep_config(5.0)), "12", radii)
        fresh = cr.GrowthBudget(spec, "12")
        assert again is cached and not cached.flags.writeable
        assert np.array_equal(cached, [fresh.value(r) for r in radii])

    def test_distinct_inputs_kept_apart(self, built):
        radii = qd.ProbeSchedule().radii().tolist()
        linear = cr._budget_probes(model.assemble(sweep_config(3.0)), "12", radii)
        sqrt = cr._budget_probes(model.assemble(
            sweep_config(3.0, {"family": "power", "gamma": 0.5})), "12", radii)
        assert built == ["12", "12"] and not np.array_equal(linear, sqrt)
        # relaxed budgets key on their accumulation limit
        spec = model.assemble(sweep_config(3.0))
        cr._budget_probes(spec, "12", radii, relaxed=True, acc_limit=0.5)
        cr._budget_probes(spec, "12", radii, relaxed=True, acc_limit=0.25)
        assert built == ["12", "12", "12_relaxed", "12_relaxed"]

    def test_size_bounded_and_failures_not_kept(self, lap, built):
        radii = qd.ProbeSchedule().radii().tolist()
        spec = make_spec(lap)
        for limit in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            cr._budget_probes(spec, "12", radii, relaxed=True, acc_limit=limit)
        assert len(cr._BUDGETS._entries) == 8
        # exp(t) - 1 has no upper split: the plain budget fails every time
        no_split = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr("1"), a2=model.weight_from_expr("1"),
            f1=model.exp_minus_one_nonlinearity(), f2=model.power_nonlinearity(1.0))
        for _ in range(2):
            with pytest.raises(cr.CriteriaError, match="no upper envelope"):
                cr._budget_probes(no_split, "12", radii)
        assert len(cr._BUDGETS._entries) == 8

    def test_threads_build_once(self, built):
        spec = model.assemble(sweep_config(3.0))
        specs = [model.reweight(spec, sweep_config(s)) for s in (3.0, 3.5, 4.0, 4.5)]
        radii = qd.ProbeSchedule().radii().tolist()
        barrier = threading.Barrier(4)
        got = [None] * 4

        def work(i):
            barrier.wait(timeout=10)
            got[i] = cr._budget_probes(specs[i], "21", radii)

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
        assert built == ["21"] and all(g is got[0] for g in got)


class DecadeBudget:
    """The growth budget as it was before it appended several decades per
    integrand call: one decade of trapezoids at a time."""

    def __init__(self, spec, pair, relaxed=False, acc_limit=None):
        (pair, self.anchor, m_eff, outer, f_other, theta_other,
         theta_own) = cr._budget_inputs(spec, pair, relaxed, acc_limit)

        def integrand(ts):
            with np.errstate(over="ignore"):
                inner = m_eff * np.asarray(theta_other(
                    np.asarray(f_other(ts), dtype=float)), dtype=float)
                den = np.asarray(theta_own(
                    np.asarray(outer(inner), dtype=float)), dtype=float)
            bad = ~(np.isfinite(den) | np.isposinf(den)) | (den <= 0)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise cr.CriteriaError(
                    f"growth budget {pair}: degenerate integrand at t={ts[k]:.6g}")
            with np.errstate(divide="ignore"):
                out = 1.0 / den
            return np.where(np.isposinf(den), 0.0, out)

        self.integrand = integrand
        self.ts, self.hs = np.array([self.anchor]), np.array([0.0])
        self.extend()

    def extend(self):
        t0 = self.ts[-1]
        block = t0 * cr._BUDGET_BLOCK
        ts = np.concatenate(([t0], block))
        hs = self.hs[-1] + qd.prefix_trapezoid(self.integrand(ts), ts)[1:]
        self.ts, self.hs = np.concatenate((self.ts, block)), np.concatenate((self.hs, hs))

    def value(self, r):
        if r <= self.anchor:
            return 0.0
        while self.ts[-1] < r and self.ts[-1] < cr._BUDGET_VALUE_CAP:
            self.extend()
        return float(np.interp(r, self.ts, self.hs))

    def ensure_value(self, y):
        while self.hs[-1] < y and self.ts[-1] < cr._BUDGET_VALUE_CAP:
            self.extend()


class TestBudgetDecades:
    """Several decades per integrand call, bit for bit against one decade
    at a time."""

    RADII = [0.5, 1.0, 1.3, 2.0, 7.7, 10.0, 16384.0, 2.5e5, 9.9e17, 1e18, 3e18, 1e25, np.inf]

    @pytest.mark.parametrize("case", ["plain", "relaxed", "anchor", "plasma", "converging"])
    def test_values_bitwise_as_one_decade_at_a_time(self, lap, case):
        spec, relaxed = {
            "plain": (make_spec(lap, g1=0.9, g2=1.2), False),
            "relaxed": (make_spec(lap, g1=0.9, g2=1.2), True),
            "anchor": (make_spec(lap, alpha=2.5, beta=0.3), False),
            "plasma": (make_spec(lap, g1=0.9, g2=1.2, alpha=1.3, beta=0.7,
                                 op2=ops.make_operator("plasma", p=2, q=3)), False),
            "converging": (make_spec(lap, g1=2.0, g2=2.0), False)}[case]
        limit = 0.37 if relaxed else None
        old = DecadeBudget(spec, "12", relaxed, limit)
        want = [old.value(r) for r in self.RADII]
        new = cr.GrowthBudget(spec, "12", relaxed, limit)
        got = new.value(self.RADII)
        assert got.tolist() == want
        assert np.array_equal(new.ts, old.ts) and np.array_equal(new.hs, old.hs)
        # scalars one at a time, on a fresh budget, give the same floats
        fresh = cr.GrowthBudget(spec, "12", relaxed, limit)
        assert [fresh.value(r) for r in self.RADII] == want
        for budget in (old, new):
            budget.ensure_value(2.0 * float(old.hs[-1]) + 50.0)
        assert np.array_equal(new.ts, old.ts) and np.array_equal(new.hs, old.hs)
        assert new.value(self.RADII).tolist() == [old.value(r) for r in self.RADII]

    def test_radii_below_the_anchor_build_nothing(self, lap):
        gb = cr.GrowthBudget(make_spec(lap, alpha=2.5), "12")
        size = gb.ts.size
        assert gb.value([0.0, 1.0, 2.5]).tolist() == [0.0, 0.0, 0.0]
        assert gb.value(2.5) == 0.0 and gb.ts.size == size == 1 + cr._BUDGET_NODES_PER_DECADE

    def test_degenerate_later_decade_same_error(self, lap):
        # theta_bar of side 1 is lost beyond 50: the integrand turns
        # degenerate in the second decade, after a first decade that passed
        lost = lambda s: np.where(np.asarray(s, dtype=float) < 50.0, s, np.nan)
        env = identity_envelope()
        spec = make_spec(lap, env1=ops.EnvelopeSet(
            k_under=1.0, k_bar=1.0, theta_under=lost, theta_bar=lost,
            psi_under=env.psi_under, psi_bar=env.psi_bar, description="lost"), env2=env)
        with pytest.raises(cr.CriteriaError) as old:
            DecadeBudget(spec, "12").value(1e4)
        with pytest.raises(cr.CriteriaError) as new:
            cr.GrowthBudget(spec, "12").value(1e4)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith("growth budget 12: degenerate integrand at t=50.")

    def test_overflowing_nodes_same_error(self, lap):
        # an anchor within a decade of the float range: the nodes overflow
        spec = make_spec(lap, alpha=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as old:
                DecadeBudget(spec, "12")
            with pytest.raises(ValueError) as new:
                cr.GrowthBudget(spec, "12")
        assert str(new.value) == str(old.value) == "nodes must be finite and strictly increasing"


class TestGrowthBudget:
    def test_logarithmic_budget_with_identity_envelope(self, lap):
        # theta = id, identity couplings, M = 1, anchor 1: H(r) = ln r
        env = identity_envelope()
        spec = make_spec(lap, env1=env, env2=env)
        assert spec.f1.M_big == 1.0
        gb = cr.GrowthBudget(spec, "12")
        assert gb.value(math.e) == pytest.approx(1.0, abs=1e-6)
        assert gb.value(math.e ** 2) == pytest.approx(2.0, abs=1e-5)

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
        ev = up_to(spec, 1.0)
        for values in (ev.upper_coupling_values, ev.lower_coupling_values):
            with pytest.raises(ValueError, match="pair"):
                values("13")

    def test_anchor_maps_to_zero(self, lap):
        spec = make_spec(lap, alpha=2.5)
        gb = cr.GrowthBudget(spec, "12")
        assert gb.value(2.5) == 0.0
        assert gb.inverse(0.0) == 2.5


class TestAccumulationLimit:
    # the limit of A_i is the report's accumulation_i verdict
    def test_unit_weight_diverges(self, lap):
        spec = make_spec(lap)
        assert cr.build_report(spec).verdicts["accumulation_2"].divergent

    def test_integrable_weight_finite(self, lap):
        spec = make_spec(lap, w2="(1+r)^(-4)")
        report = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-3))
        v = report.verdicts["accumulation_2"]
        assert v.finite
        assert v.value > 0

    def test_zero_weight_finite_zero(self, lap):
        spec = make_spec(lap, w2="0")
        v = cr.build_report(spec).verdicts["accumulation_2"]
        assert v.finite and v.value == 0.0


class TestProbeGrid:
    def test_one_read_only_grid_per_geometry(self):
        xs, idx, layout = cr.probe_grid(qd.ProbeSchedule())
        # tolerances do not change the grid, so they share it
        again = cr.probe_grid(qd.ProbeSchedule(tail_tol=1e-2, blowup_threshold=1e4))
        assert all(a is b for a, b in zip(again, (xs, idx, layout)))
        assert layout.nodes is xs
        assert not xs.flags.writeable and not idx.flags.writeable
        # one head segment, 30 halving segments up to r0, then 14 outer
        # ones, each adding segment_nodes nodes
        assert cr.probe_grid(qd.ProbeSchedule(segment_nodes=8))[0].size == 45 * 8 + 1
        assert xs.size == 45 * 16 + 1 and xs[idx[-1]] == 16384.0
        assert xs[idx].tobytes() == qd.ProbeSchedule().radii().tobytes()
        assert np.all(np.diff(xs) > 0)


class TestProbeAccuracy:
    @staticmethod
    def p3_spec(lap):
        return model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=ops.make_operator("p_laplacian", p=3), op2=lap,
            a1=model.weight_from_expr("(1+r)^-2"), a2=model.weight_from_expr("(1+r)^-2"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(0.5))

    @staticmethod
    def graded_grid(halvings, panels, radii):
        """A probe grid with ``halvings`` halving segments below radii[0]."""
        edges = [radii[0] / 2.0 ** k for k in range(halvings, 0, -1)] + list(radii)
        xs = np.concatenate([np.linspace(0.0, edges[0], panels + 1)] + [
            np.linspace(lo, hi, panels + 1)[1:] for lo, hi in zip(edges, edges[1:])])
        return xs, panels * np.arange(halvings + 1, len(edges) + 1), qd.LinearPanels(xs)

    @staticmethod
    def graded_panels(halvings, n, radii):
        """A panel layout with ``halvings`` halving segments below radii[0]."""
        edges = [0.0, *(radii[0] / 2.0 ** k for k in range(halvings, 0, -1)), *radii]
        layout = qd.PanelLayout(edges, n)
        return layout.nodes, n * np.arange(halvings + 1, len(edges)), layout

    @staticmethod
    def probe_values(spec, grid):
        """The six probe values on ``grid``, a (nodes, indices, layout) triple."""
        _, idx, layout = grid
        ev = cr.CriteriaEvaluator(spec, layout)
        values = [ev.accumulation_values(1, "bar"), ev.accumulation_values(2, "bar")]
        for pair in ("12", "21"):
            values += [ev.upper_coupling_values(pair), ev.lower_coupling_values(pair)]
        return [v[idx] for v in values]

    def test_p3_probe_values_against_fine_graded_grid(self, lap):
        # psi of the p = 3 kernel behaves like t^(1/2) near 0, where a
        # uniform rule converges at about h^1.5; the uniform head of 4096
        # panels read 1.7e-6 here, the graded head of 1024 reads 2.9e-7
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=ops.make_operator("p_laplacian", p=3), op2=lap,
            a1=model.weight_from_expr("(1+r)^-2"), a2=model.weight_from_expr("(1+r)^-2"),
            f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(0.5))
        schedule = qd.ProbeSchedule()
        got = self.probe_values(spec, cr.probe_grid(schedule))
        want = self.probe_values(spec, self.graded_grid(20, 4096, schedule.radii().tolist()))
        worst = max(float(np.max(np.abs(g - w) / w)) for g, w in zip(got, want))
        assert worst <= 1e-6

    def test_p3_probe_values_exact_to_roundoff(self, lap):
        # against 33 Lobatto points per segment below 40 halvings; the
        # graded trapezoid grid of 1024 panels read 2.9e-7 here, the
        # panels read about 5e-16
        spec = self.p3_spec(lap)
        schedule = qd.ProbeSchedule()
        got = self.probe_values(spec, cr.probe_grid(schedule))
        want = self.probe_values(spec, self.graded_panels(40, 32, schedule.radii().tolist()))
        worst = max(float(np.max(np.abs(g - w) / w)) for g, w in zip(got, want))
        assert worst <= 1e-12

    def test_kink_inside_a_panel(self, lap):
        # max(3 - r, 0) has its kink inside the panel [2, 4]: the panels lose
        # their spectral accuracy there, yet every kernel value stays a
        # finite nonnegative number and every verdict is the one the graded
        # trapezoid grid of 1024 panels per segment gives
        spec = make_spec(lap, w1="max(3-r, 0)", w2="(1+r)^-3", g1=0.5, g2=1.0)
        schedule = qd.ProbeSchedule(tail_tol=1e-2)
        xs, idx, layout = cr.probe_grid(schedule)
        ev = cr.CriteriaEvaluator(spec, layout)
        kernels = [ev.kernel(1), ev.kernel(2)]
        for pair in ("12", "21"):
            own, other = spec.pair(pair)
            inner = ev.weight(own.index) * (1.0 + ev.accumulation_values(other.index, "bar"))
            kernels.append(qd.radial_kernel_at(inner, spec.N, xs, panels=layout))
        assert all(np.all(np.isfinite(k)) and np.all(k >= 0.0) for k in kernels)
        trapezoid = self.probe_values(spec, oracle._oracle_grid(schedule))
        panels = self.probe_values(spec, (xs, idx, layout))
        for got, want in zip(panels, trapezoid):
            assert schedule.verdict(got).kind == schedule.verdict(want).kind
        report = cr.build_report(spec, schedule)
        names = ["accumulation_1", "accumulation_2", "upper_coupling_12",
                 "lower_coupling_12", "upper_coupling_21", "lower_coupling_21"]
        assert [report.verdicts[n].kind for n in names] == [
            schedule.verdict(v).kind for v in panels]

    def test_two_nodes_per_segment_classify(self, lap):
        # segment_nodes = 2 puts 3 Lobatto points on each segment
        spec = make_spec(lap)
        schedule = qd.ProbeSchedule(segment_nodes=2, tail_tol=1e-2)
        assert cr.probe_grid(schedule)[0].size == 45 * 2 + 1
        verdict = cl.classify(spec, cr.build_report(spec, schedule),
                              model.check_hypotheses(spec))
        assert (verdict.verdict, verdict.matched_rule) == ("both_large", "large_both")


class TestYangLimitIdentity:
    def test_accumulation_limit_matches_moment(self, lap):
        # identity envelope (psi = id, k = 1): the accumulation limit equals
        # the first weight moment over N-2 for integrable-tail weights
        spec = make_spec(lap, w1="(1+r^2)^(-2)")
        v = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-3)).verdicts["accumulation_1"]
        assert v.finite
        # integral of r/(1+r^2)^2 is 1/2, N-2 = 1
        assert v.value == pytest.approx(0.5, rel=1e-4)


def infinite(s):
    return np.full(np.shape(s), np.inf)


class TestCouplingFailures:
    # a coupling whose inner weight or integrand turns non-finite reaches
    # the report JSON as an indeterminate entry with the failure's note
    @pytest.mark.parametrize("name,broken,note", [
        ("upper_coupling_12",
         lambda spec: replace(spec, f1=replace(spec.f1, xi_bar=infinite)),
         "upper coupling inner weight (12)"),
        ("lower_coupling_12",
         lambda spec: replace(spec, f1=replace(spec.f1, xi_under=infinite)),
         "lower coupling inner weight (12)"),
        ("upper_coupling_12",
         lambda spec: replace(spec, env1=replace(spec.env1, psi_bar=infinite)),
         "upper coupling integrand (12)"),
        ("lower_coupling_12",
         lambda spec: replace(spec, op1=replace(spec.op1, analytic_h_inverse=infinite)),
         "lower coupling integrand (12)"),
    ])
    def test_failure_note_in_report(self, lap, name, broken, note):
        spec = broken(make_spec(lap))
        entry = cr.build_report(spec).to_dict()[name]
        assert entry["kind"] == "indeterminate"
        assert entry["note"] == f"evaluation failed: {note}: non-finite value"

    def test_other_pair_unaffected(self, lap):
        spec = make_spec(lap)
        spec = replace(spec, f1=replace(spec.f1, xi_bar=infinite, xi_under=infinite))
        report = cr.build_report(spec)
        assert report.upper_coupling_21.divergent and report.lower_coupling_21.divergent


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
        ev = linear(spec, np.linspace(0.0, 8.0, 4001))
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


ROOT = Path(__file__).parents[1]


def point_configs(cfg) -> list:
    """The config of every point of a sweep config, in sweep order."""
    axes = cli._sweep_axes(cfg["sweep"])
    points = []
    for combo in itertools.product(*(ax["values"] for ax in axes)):
        local = dict(cfg)
        for ax, value in zip(axes, combo):
            for path in ax["paths"]:
                cli._set_path(local, path, value, ax["name"])
        points.append(local)
    return points


def sweep_points(cfg) -> tuple:
    """The problems of every point of a sweep config, each assembled
    alone, and the sweep's probe schedule."""
    specs, schedules = [], set()
    for local in point_configs(cfg):
        spec, num, _ = cli._checked(local)
        specs.append(spec)
        schedules.add(num["schedule"])
    assert len(schedules) == 1
    return specs, schedules.pop()


def weight_sweeps() -> dict:
    """The sweeps of the benchmark's ``sweep_analytic`` menu and the
    README's example sweep, by name."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sweeps = dict(workloads.menu("sweep_analytic"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sweeps["README"] = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    return sweeps


def overflow_config(cs=(1, 1e300, 2)) -> dict:
    """A weight sweep whose c = 1e300 point overflows inside the couplings."""
    weight = {"expr": "c*(1+r)^(-3)", "params": {"c": 1}}
    return {"problem": {
        "N": 3, "alpha": 1.0, "beta": 1.0,
        "operator1": {"family": "p_laplacian", "p": 1.5}, "operator2": {"family": "laplacian"},
        "weight1": weight, "weight2": weight,
        "f1": {"family": "power", "gamma": 1.0}, "f2": {"family": "power", "gamma": 0.5}},
        "sweep": {"axes": [{"name": "c", "values": list(cs),
                            "paths": ["problem.weight1.params.c", "problem.weight2.params.c"]}]}}


class TestBatchReports:
    """``build_reports`` on problems that differ only in their weights."""

    @pytest.mark.parametrize("name,cfg", weight_sweeps().items())
    def test_rows_as_alone(self, name, cfg):
        # dict equality compares every float by ==
        specs, schedule = sweep_points(copy.deepcopy(cfg))
        batch = cr.build_reports(specs, schedule)
        assert len(batch) == len(specs) == (6 if name == "README" else 8)
        for spec, report in zip(specs, batch):
            assert report.to_dict() == cr.build_report(spec, schedule).to_dict()

    @pytest.mark.parametrize("name,cfg", weight_sweeps().items())
    def test_sweep_points_as_assembled_alone(self, name, cfg, tmp_path, monkeypatch):
        # rps sweep assembles its first point and gives every later one its
        # own weights (model.reweight), sharing the rest; each point's
        # instance, hypotheses, report and classification are those of its
        # config assembled alone, every float compared by ==
        cfg = copy.deepcopy(cfg)
        cfg["sweep"]["csv"] = str(tmp_path / "sweep.csv")
        seen = []
        classify = cl.classify
        monkeypatch.setattr(cl, "classify", lambda spec, report, hyp: (
            seen.append((spec, report, hyp)) or classify(spec, report, hyp)))
        assert cli.run_config("sweep", cfg) == 0
        monkeypatch.setattr(cl, "classify", classify)
        points = point_configs(cfg)
        assert len(seen) == len(points) == (6 if name == "README" else 8)
        assert all(spec.f1 is seen[0][0].f1 and spec.env2 is seen[0][0].env2
                   for spec, _, _ in seen)
        for (spec, report, hyp), local in zip(seen, points):
            alone = model.assemble(local["problem"])
            alone_hyp = model.check_hypotheses(alone)
            alone_report = cr.build_report(alone, cli._numerics(local)["schedule"])
            assert cli._instance_echo(spec) == cli._instance_echo(alone)
            assert hyp.to_dict() == alone_hyp.to_dict()
            assert report.to_dict() == alone_report.to_dict()
            assert (classify(spec, report, hyp).to_dict()
                    == classify(alone, alone_report, alone_hyp).to_dict())

    def test_failing_row_gets_its_own_notes(self, monkeypatch):
        specs, schedule = sweep_points(overflow_config())
        calls = []
        coupling = cr.CriteriaEvaluator.lower_coupling_values

        def counting(self, pair):
            calls.append(len(self.specs))
            return coupling(self, pair)

        monkeypatch.setattr(cr.CriteriaEvaluator, "lower_coupling_values", counting)
        batch = [r.to_dict() for r in cr.build_reports(specs, schedule)]
        # the batch fails, then each of the three points runs alone
        assert calls[:4] == [3, 1, 1, 1]
        alone = [cr.build_report(spec, schedule).to_dict() for spec in specs]
        assert batch == alone
        failed = [[name for name, entry in report.items()
                   if isinstance(entry, dict) and "evaluation failed" in entry.get("note", "")]
                  for report in batch]
        assert failed[0] == failed[2] == [] and failed[1]
        # the rows beside it read as they do in a batch without it
        pair = [r.to_dict() for r in cr.build_reports([specs[0], specs[2]], schedule)]
        assert pair == [batch[0], batch[2]]
