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


def test_tokens_kept_by_source_and_params_bound_per_parse(monkeypatch):
    # the points of a sweep parse one source with their own params: the
    # source is scanned once, and each parse binds its own values
    monkeypatch.setattr(ex, "_TOKENS", BoundedCache(64))
    scanned = []
    tokenize = ex._tokenize
    monkeypatch.setattr(ex, "_tokenize", lambda source: scanned.append(source) or tokenize(source))
    curves = [ex.parse("(1+r)^(-sigma)", {"sigma": s}) for s in (1.0, 2.0, 3.0)]
    assert scanned == ["(1+r)^(-sigma)"]
    assert [f(1.0) for f in curves] == [0.5, 0.25, 0.125]
    # a source that fails to scan is not kept
    for _ in range(2):
        with pytest.raises(ex.SyntaxError_):
            ex.parse("r $ 2")
    assert scanned[1:] == ["r $ 2", "r $ 2"]


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
