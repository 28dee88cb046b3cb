"""Metamorphic checks: relations between the verdicts of related instances
that hold without knowing either verdict.

* Mirror: swapping side 1 and side 2 (operator, weight, nonlinearity and
  start value) mirrors the verdict and the matched rule.
* Resolution: doubling the probe's ``segment_nodes`` leaves a decided
  verdict as it is.
* Refinement: probing at factor sqrt(2) with 29 radii, a superset of the
  default 15 radii at factor 2 with the same last radius, never turns a
  decided verdict into one that contradicts it.

All three run over a small catalog of closed-form operators, weights that decay
at different rates, and power nonlinearities.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialphi import classifier as cl
from radialphi import criteria as cr
from radialphi import model
from radialphi import operators as ops
from radialphi import quadrature as qd

OPERATORS = {
    "laplacian": ops.make_operator("laplacian"),
    "p_laplacian(3)": ops.make_operator("p_laplacian", p=3.0),
    "p_laplacian(1.5)": ops.make_operator("p_laplacian", p=1.5),
}
WEIGHTS = ("1", "0", "(1+r)^(-3)", "(1+r)^(-6)", "6/(1+r^2)", "exp(-r)")

SCHEDULE = qd.ProbeSchedule(tail_tol=1e-2)

MIRRORED = {
    cl.U_BOUNDED_V_LARGE: cl.U_LARGE_V_BOUNDED,
    cl.U_LARGE_V_BOUNDED: cl.U_BOUNDED_V_LARGE,
    "mixed_u_bounded": "mixed_u_large",
    "mixed_u_large": "mixed_u_bounded",
    "mixed_u_bounded_sharp": "mixed_u_large_sharp",
    "mixed_u_large_sharp": "mixed_u_bounded_sharp",
}

# what each verdict says about u and v; None where it says nothing
COMPONENTS = {
    cl.BOTH_BOUNDED: ("bounded", "bounded"),
    cl.BOTH_LARGE: ("large", "large"),
    cl.U_BOUNDED_V_LARGE: ("bounded", "large"),
    cl.U_LARGE_V_BOUNDED: ("large", "bounded"),
    cl.EXISTS_UNCLASSIFIED: (None, None),
    cl.INDETERMINATE: (None, None),
}

sides = st.tuples(st.sampled_from(sorted(OPERATORS)), st.sampled_from(WEIGHTS),
                  st.sampled_from((0.5, 1.0, 2.0)), st.sampled_from((0.5, 1.0, 2.0)))
dims = st.sampled_from((3, 4))


def classify(N, side1, side2, schedule):
    (op1, w1, g1, alpha), (op2, w2, g2, beta) = side1, side2
    spec = model.build_problem(
        N=N, alpha=alpha, beta=beta, op1=OPERATORS[op1], op2=OPERATORS[op2],
        a1=model.weight_from_expr(w1), a2=model.weight_from_expr(w2),
        f1=model.power_nonlinearity(g1), f2=model.power_nonlinearity(g2))
    return cl.classify(spec, cr.build_report(spec, schedule),
                       model.check_hypotheses(spec))


@settings(max_examples=10, deadline=None)
@given(dims, sides, sides)
def test_mirror_swaps_verdict_and_rule(N, side1, side2):
    cls = classify(N, side1, side2, SCHEDULE)
    swapped = classify(N, side2, side1, SCHEDULE)
    assert swapped.verdict == MIRRORED.get(cls.verdict, cls.verdict)
    assert swapped.matched_rule == MIRRORED.get(cls.matched_rule, cls.matched_rule)


@settings(max_examples=8, deadline=None)
@given(dims, sides, sides)
def test_finer_probe_grid_keeps_decided_verdict(N, side1, side2):
    cls = classify(N, side1, side2, SCHEDULE)
    if cls.verdict != cl.INDETERMINATE:
        finer = qd.ProbeSchedule(tail_tol=SCHEDULE.tail_tol,
                                 segment_nodes=2 * SCHEDULE.segment_nodes)
        assert classify(N, side1, side2, finer).verdict == cls.verdict


@settings(max_examples=8, deadline=None)
@given(dims, sides, sides)
def test_refined_schedule_never_contradicts_decided_verdict(N, side1, side2):
    cls = classify(N, side1, side2, SCHEDULE)
    if cls.verdict != cl.INDETERMINATE:
        refined = qd.ProbeSchedule(tail_tol=SCHEDULE.tail_tol, factor=2.0 ** 0.5,
                                   count=2 * SCHEDULE.count - 1)
        assert refined.radii()[-1] == pytest.approx(SCHEDULE.radii()[-1])
        got = classify(N, side1, side2, refined).verdict
        for was, now in zip(COMPONENTS[cls.verdict], COMPONENTS[got]):
            assert None in (was, now) or was == now, (cls.verdict, got)
