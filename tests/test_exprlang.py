import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialphi import exprlang as ex
from radialphi._memo import BoundedCache


def test_polynomial_arithmetic():
    assert ex.parse("r^2 + 1")(2.0) == 5.0


def test_min_function():
    assert ex.parse("min(r, 4)")(9.0) == 4.0


def test_syntax_error_with_position():
    with pytest.raises(ex.SyntaxError_) as err:
        ex.parse("r +")
    assert err.value.position == 3


def test_asinh_at_zero():
    assert ex.parse("asinh(r)")(0.0) == 0.0


def test_rational():
    assert ex.parse("6/(1+r^2)")(1.0) == 3.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("1/r")(0.0)


def test_ln_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("ln(r - 2)")(1.0)


def test_zero_to_negative_power_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("r^(-1)")(0.0)


def test_negative_base_fractional_power_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("(r - 5)^0.5")(1.0)


def test_overflow_is_domain_error():
    with pytest.raises(ex.DomainError):
        ex.parse("exp(exp(r))")(100.0)


def test_unknown_identifier():
    with pytest.raises(ex.NameError_):
        ex.parse("r + s")


def test_arity_mismatch():
    with pytest.raises(ex.ArityError):
        ex.parse("min(r)")


def test_params_substituted_at_parse_time():
    e = ex.parse("(1+r)^(-sigma)", params={"sigma": 3})
    assert e(1.0) == pytest.approx(0.125)


def test_trees_kept_by_source_and_param_names(monkeypatch):
    # the points of a sweep parse one source with their own params: the
    # source is parsed once, and each Expr binds its own values
    monkeypatch.setattr(ex, "_TREES", BoundedCache(64))
    parsed = []
    tokenize = ex._tokenize
    monkeypatch.setattr(ex, "_tokenize", lambda source: parsed.append(source) or tokenize(source))
    curves = [ex.parse("(1+r)^(-sigma)", {"sigma": s}) for s in (1.0, 2.0, 3.0)]
    assert parsed == ["(1+r)^(-sigma)"]
    assert curves[0].root is curves[2].root
    assert [f(1.0) for f in curves] == [0.5, 0.25, 0.125]
    # the values tell the expressions apart
    assert len(set(curves)) == 3
    assert curves[1] == ex.parse("(1+r)^(-sigma)", {"sigma": 2})
    assert curves[1].params == (("sigma", 2.0),)
    # other names make another tree: without params, sigma is the variable
    with pytest.raises(ex.NameError_):
        ex.parse("(1+r)^(-sigma)")
    # a source that fails to parse is not kept
    for _ in range(2):
        with pytest.raises(ex.SyntaxError_):
            ex.parse("r $ 2")
    assert parsed[1:] == ["(1+r)^(-sigma)", "r $ 2", "r $ 2"]


def literal(node, values):
    """``node`` with every parameter slot replaced by its value as a
    literal: the tree that parsing with substituted parameters made."""
    if isinstance(node, ex.Param):
        return ex.Num(values[node.name])
    if isinstance(node, ex.Neg):
        return ex.Neg(literal(node.operand, values))
    if isinstance(node, ex.BinOp):
        return ex.BinOp(node.op, literal(node.left, values), literal(node.right, values))
    if isinstance(node, ex.Call):
        return ex.Call(node.name, tuple(literal(a, values) for a in node.args))
    return node


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source,params", [
    *[("(1+r)^(-sigma)", {"sigma": s}) for s in (0, 0.5, 1, 2, -1)],
    ("c*min(r, k)", {"c": 2.5, "k": 4}),
    ("exp(-a*r)", {"a": 0.3}),
    # a negative value is written in parentheses: -2.0 ^ 2.0 reads as -4
    ("c^2 + r", {"c": -2}),
    ("c*r", {"c": 1e300}),
])
def test_slots_evaluate_as_literals(source, params):
    # the same float scalars enter the same numpy calls, so numpy's scalar
    # fast paths (a power of 0, 0.5, 1, 2 or -1) are taken as before
    expr = ex.parse(source, params)
    lit = ex.Expr(literal(expr.root, dict(expr.params)), expr.var_name, source)
    again = ex.parse(expr.pretty())
    xs = np.concatenate((np.linspace(0.0, 64.0, 513), np.logspace(-6, 6, 241)))
    for x in (xs, xs[::-7].copy(), 0.0, 1.0, 3.7):
        assert same_bits(expr(x), lit(x))
        assert same_bits(again(x), expr(x))
    assert type(expr(1.0)) is float


@pytest.mark.parametrize("source,params,position", [
    ("c*r", {"c": np.inf}, 0),
    ("r + c", {"c": np.nan}, 4),
    ("(1+r)^(-c)", {"c": -np.inf}, 8),
    ("1e400*r", None, 0),
    ("r + 2e308", None, 4),
])
def test_non_finite_number_refused_where_it_stands(source, params, position):
    # pretty() wrote these as (inf), (nan) or inf, which parse reads as an
    # identifier, so the text form did not reparse
    with pytest.raises(ex.NumberError) as err:
        ex.parse(source, params)
    assert err.value.position == position and isinstance(err.value, ex.ExprError)


def test_unary_minus_binds_below_power():
    assert ex.parse("-r^2")(3.0) == -9.0
    assert ex.parse("2^-r")(1.0) == 0.5


def test_vectorized_evaluation_matches_scalar():
    e = ex.parse("2*exp(-r) + sqrt(r)")
    xs = np.linspace(0.0, 5.0, 11)
    vec = e(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert e(float(x)) == v


def test_eval_is_pure():
    e = ex.parse("sinh(r) / (1 + r^2)")
    a = e(1.2345)
    b = e(1.2345)
    assert a == b  # bit-for-bit


_leaf = st.one_of(
    st.just("r"),
    st.floats(min_value=0.001, max_value=100.0,
              allow_nan=False, allow_infinity=False).map(lambda v: f"{v!r}"),
)


def _combine(children):
    unary = children.map(lambda s: f"(-{s})")
    binop = st.tuples(children, st.sampled_from("+-*/"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    call1 = st.tuples(st.sampled_from(["exp", "sqrt", "sinh", "asinh", "abs"]),
                      children).map(lambda t: f"{t[0]}({t[1]})")
    call2 = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
        lambda t: f"{t[0]}({t[1]}, {t[2]})")
    return st.one_of(unary, binop, call1, call2)


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_pretty_print_round_trip(source):
    try:
        expr = ex.parse(source)
    except ex.ExprError:
        return  # malformed combinations are fine to skip
    again = ex.parse(expr.pretty())
    assert again.root == expr.root
