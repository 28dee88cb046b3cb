"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are property-based plus analytically derived desk-scale checks; the
random-instance batteries use a fixed seed so runs are reproducible.
"""

import json
import time

import numpy as np
import pytest

from radialphi import classifier as cl
from radialphi import cli
from radialphi import criteria as cr
from radialphi import exprlang as ex
from radialphi import iteration as it
from radialphi import model
from radialphi import operators as ops
from radialphi import oracle
from radialphi import quadrature as qd
from radialphi.quadrature import RadialGrid


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Randomized catalog instances shared by criteria 1 and 2

def _random_operator(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        return ops.make_operator("laplacian")
    if kind == 1:
        return ops.make_operator("p_laplacian", p=float(rng.uniform(1.5, 3.5)))
    if kind == 2:
        p = float(rng.uniform(1.2, 2.2))
        return ops.make_operator("plasma", p=p, q=p + float(rng.uniform(0.5, 1.3)))
    if kind == 3:
        return ops.make_operator("elasticity", p=float(rng.uniform(0.8, 2.0)))
    if kind == 4:
        return ops.make_operator("plasticity", p=float(rng.uniform(1.5, 2.5)),
                                 q=float(rng.uniform(0.8, 1.5)))
    return ops.make_operator("newtonian", p=float(rng.uniform(0.2, 0.9)),
                             q=float(rng.uniform(0.8, 1.5)))


_WEIGHT_FORMS = ("{c}", "{c}/(1+r)", "{c}/(1+r^2)", "{c}*exp(-r)",
                 "{c}*r/(1+r)", "{c}*(1+r)^(-2)")


def _random_weight(rng):
    form = _WEIGHT_FORMS[rng.integers(0, len(_WEIGHT_FORMS))]
    return model.weight_from_expr(form.format(c=round(float(rng.uniform(0.3, 2.5)), 3)))


def _random_instances(count=25, seed=20260808):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(model.build_problem(
            N=3,
            alpha=float(rng.uniform(0.6, 2.0)),
            beta=float(rng.uniform(0.6, 2.0)),
            op1=_random_operator(rng), op2=_random_operator(rng),
            a1=_random_weight(rng), a2=_random_weight(rng),
            f1=model.power_nonlinearity(float(rng.uniform(0.4, 1.5))),
            f2=model.power_nonlinearity(float(rng.uniform(0.4, 1.5)))))
    return out


@pytest.fixture(scope="module")
def instance_runs():
    """Solve the 25 random instances once, keeping every iterate."""
    grid = RadialGrid(2.0, 1e-3)
    t0 = time.time()
    runs = []
    for spec in _random_instances():
        state = it.init_state(spec, grid)
        iterates = [(state.u, state.v)]
        converged = False
        for _ in range(100):
            state = it.step(state, spec)
            iterates.append((state.u, state.v))
            _, du, dv = state.sup_diff_history[-1]
            if (du <= 1e-8 * (1 + float(np.max(state.u)))
                    and dv <= 1e-8 * (1 + float(np.max(state.v)))):
                converged = True
                break
        runs.append((spec, grid, iterates, converged))
    return runs, time.time() - t0


def test_criterion_1_monotone_iteration(instance_runs):
    runs, elapsed = instance_runs
    worst = 0.0
    for spec, grid, iterates, _ in runs:
        for (u0, v0), (u1, v1) in zip(iterates[:-1], iterates[1:]):
            worst = max(worst, float(np.max(u0 - u1)), float(np.max(v0 - v1)))
    ok = worst <= 1e-12 and elapsed < 60.0
    _report(1, "monotone iteration", ok,
            f"25 instances, worst backslide {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sandwich_bounds(instance_runs):
    runs, _ = instance_runs
    worst_upper = -np.inf
    worst_lower = -np.inf
    for spec, grid, iterates, converged in runs:
        assert converged, "instance failed to converge; bounds check needs the fixed point"
        bounds = cr.solution_bounds(spec, grid.panels)
        for u_m, v_m in iterates[1:]:
            worst_upper = max(worst_upper,
                              float(np.max(u_m - bounds["u_upper"])),
                              float(np.max(v_m - bounds["v_upper"])))
        u, v = iterates[-1]
        worst_lower = max(worst_lower,
                          float(np.max(bounds["u_lower"] - u)),
                          float(np.max(bounds["v_lower"] - v)))
    ok = worst_upper <= 1e-6 and worst_lower <= 1e-6
    _report(2, "sandwich bounds", ok,
            f"worst ceiling excess {worst_upper:.2e}, worst floor excess {worst_lower:.2e}")


def test_criterion_3_manufactured_convergence():
    grid = RadialGrid(2.0, 1e-3)
    target = ex.parse("1 + r^2")
    f_id = model.power_nonlinearity(1.0)
    t0 = time.time()
    details = []
    ok = True
    for name, op in (("laplacian", ops.make_operator("laplacian")),
                     ("p_laplacian(3)", ops.make_operator("p_laplacian", p=3))):
        spec = oracle.manufactured_problem(target, target, op, op,
                                           f_id, f_id, 3, grid)
        sol = it.solve(spec, grid)
        sup = float(np.max(np.abs(sol.u - (1 + grid.nodes ** 2))))
        res = max(sol.residual_u, sol.residual_v)
        ok = ok and sol.converged and sup <= 1e-4 and res <= 1e-5
        details.append(f"{name}: sup {sup:.2e}, residual {res:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(3, "manufactured convergence", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_kernel_accumulation_limit_identity():
    rep = oracle.single_equation_check(
        model.power_nonlinearity(1.0),
        model.weight_from_expr("(1+r^2)^(-2)"), 3, qd.ProbeSchedule(tail_tol=1e-3))
    v = rep.kernel_accumulation
    rel = abs(v.value - 0.5) / 0.5 if v.finite else np.inf
    ok = v.finite and rel <= 1e-4
    _report(4, "accumulation limit identity", ok,
            f"probe limit {v.value if v.finite else v.kind}, rel err {rel:.2e}")


def test_criterion_5_envelope_inequality():
    families = (("plasma", {"p": 2, "q": 3}), ("elasticity", {"p": 1}),
                ("plasticity", {"p": 2, "q": 1}), ("newtonian", {"p": 0.5, "q": 1}))
    worst = 0.0
    for family, params in families:
        op = ops.make_operator(family, **params)
        env, _ = ops.derive_envelopes(op)
        worst = max(worst, ops.check_envelope(op, env, n=64, s_min=1e-6))
    ok = worst == 0.0
    _report(5, "envelope inequality", ok,
            f"worst sandwich violation {worst:.2e} on 64x64 grids to 1e3")


def _classify_weights(w1, w2):
    spec = model.build_problem(
        N=3, alpha=1.0, beta=1.0,
        op1=ops.make_operator("laplacian"), op2=ops.make_operator("laplacian"),
        a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
        f1=model.power_nonlinearity(1.0), f2=model.power_nonlinearity(1.0))
    hyp = model.check_hypotheses(spec)
    rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
    return cl.classify(spec, rep, hyp)


def test_criterion_6_classifier_dichotomy(tmp_path):
    cfg = {
        "problem": {
            "N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": {"family": "laplacian"},
            "operator2": {"family": "laplacian"},
            "weight1": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0}},
            "weight2": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0}},
            "f1": {"family": "power", "gamma": 1.0},
            "f2": {"family": "power", "gamma": 1.0},
        },
        "numerics": {"tail_tol": 1e-2},
        "sweep": {
            "axes": [{"name": "sigma",
                      "paths": ["problem.weight1.params.sigma",
                                "problem.weight2.params.sigma"],
                      "values": [0, 1, 2, 3, 4, 5]}],
            "csv": str(tmp_path / "sweep.csv"),
        },
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    verdicts = {int(r[0]): r[1] for r in rows}
    sweep_ok = (all(verdicts[s] == "both_large" for s in (0, 1, 2))
                and all(verdicts[s] == "both_bounded" for s in (3, 4, 5)))

    mixed_1 = _classify_weights("(1+r)^(-6)", "1")
    mixed_2 = _classify_weights("1", "(1+r)^(-6)")
    mixed_ok = (mixed_1.verdict == cl.U_BOUNDED_V_LARGE
                and mixed_1.matched_rule == "mixed_u_bounded"
                and mixed_2.verdict == cl.U_LARGE_V_BOUNDED)
    ok = sweep_ok and mixed_ok
    _report(6, "classifier dichotomy", ok,
            f"sweep verdicts {[verdicts[s] for s in range(6)]}, "
            f"mixed ({mixed_1.verdict}, {mixed_2.verdict})")


_ORACLE_INSTANCES = (
    # (alpha_exp, beta_exp, weight1, weight2)
    (1.0, 1.0, "1", "1"),
    (1.0, 1.0, "2", "2"),
    (0.5, 1.0, "1/(1+r)", "1/(1+r)"),
    (1.0, 0.5, "(1+r)^(-2)", "(1+r)^(-2)"),
    (0.7, 0.7, "(1+r)^(-3)", "(1+r)^(-3)"),
    (1.0, 1.0, "(1+r)^(-4)", "(1+r)^(-4)"),
    (0.5, 0.5, "(1+r)^(-5)", "(1+r)^(-5)"),
    (1.0, 1.0, "(1+r)^(-4)", "1"),
    (0.8, 0.9, "1", "(1+r)^(-4)"),
    (0.6, 1.0, "(1+r)^(-3)", "1"),
)


def test_criterion_7_oracle_agreement():
    lap = ops.make_operator("laplacian")
    agreements, abstentions, mismatches = 0, 0, []
    for a_exp, b_exp, w1, w2 in _ORACLE_INSTANCES:
        inst = oracle.PowerLawInstance(a_exp, b_exp,
                                       model.weight_from_expr(w1),
                                       model.weight_from_expr(w2))
        truth = oracle.power_law_criteria(inst, qd.ProbeSchedule(tail_tol=1e-2)).large_solution
        spec = model.build_problem(
            N=3, alpha=1.0, beta=1.0, op1=lap, op2=lap,
            a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
            f1=model.power_nonlinearity(a_exp),
            f2=model.power_nonlinearity(b_exp))
        hyp = model.check_hypotheses(spec)
        rep = cr.build_report(spec, qd.ProbeSchedule(tail_tol=1e-2))
        cls = cl.classify(spec, rep, hyp)
        if truth is None or cls.verdict == cl.INDETERMINATE:
            abstentions += 1
        elif (cls.verdict == cl.BOTH_LARGE) == truth:
            agreements += 1
        else:
            mismatches.append((a_exp, b_exp, w1, w2, truth, cls.verdict))
    ok = not mismatches and abstentions <= 2
    _report(7, "oracle agreement", ok,
            f"{agreements} agree, {abstentions} abstained, "
            f"mismatches {mismatches}")


def test_criterion_8_flux_inversion_round_trip():
    catalog = [ops.make_operator("laplacian"),
               ops.make_operator("p_laplacian", p=3),
               ops.make_operator("p_laplacian", p=1.5),
               ops.make_operator("plasma", p=2, q=3),
               ops.make_operator("elasticity", p=1),
               ops.make_operator("elasticity", p=2),
               ops.make_operator("plasticity", p=2, q=1),
               ops.make_operator("newtonian", p=0.5, q=1)]
    ts = np.logspace(-8, 8, 1000)
    worst = 0.0
    for op in catalog:
        back = ops.h_inverse(op, ops.h_eval(op, ts))
        worst = max(worst, float(np.max(np.abs(back - ts) / ts)))
    ok = worst <= 1e-10
    _report(8, "flux inversion round-trip", ok, f"worst rel err {worst:.2e}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "problem": {
            "N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": {"family": "plasma", "p": 2, "q": 3},
            "operator2": {"family": "laplacian"},
            "weight1": "(1+r)^(-3)",
            "weight2": "1/(1+r^2)",
            "f1": {"family": "power", "gamma": 0.8},
            "f2": {"family": "power", "gamma": 1.1},
        },
        "numerics": {"tail_tol": 1e-2},
        "outputs": {"report_json": str(tmp_path / "report.json")},
    }
    path = tmp_path / "classify.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["classify", "--config", str(path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert cli.main(["classify", "--config", str(path)]) == 0
    second = (tmp_path / "report.json").read_bytes()
    ok = first == second and len(first) > 0
    _report(9, "determinism", ok, f"{len(first)} bytes, byte-identical={first == second}")
