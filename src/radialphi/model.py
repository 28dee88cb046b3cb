"""Problem-instance assembly and hypothesis validation.

A problem couples two radial equations through weights a1, a2 and
nonlinearities f1, f2, with prescribed central values (alpha, beta).  The
growth hypotheses used by the criteria are:

* weights are continuous and nonnegative;
* nonlinearities are continuous, nondecreasing, positive off zero;
* an upper product split  f(t*w) <= c_bar * g(t) * xi_bar(w)  valid for
  w >= 1 and t above a threshold coupled to the other equation's data;
* a lower split  f(m*w) >= c_under * xi_under(w)  for w >= 1, with the
  scaling constant m confined below both the other component's start value
  and its enveloped image.

Built-in nonlinearity families carry exact envelope data; custom expression
nonlinearities may supply their own.  Quantified hypotheses are validated by
sampling: that is documented as heuristic screening, not proof.

Operators and their derived envelopes are kept between assemblies;
nonlinearities and checks are made anew by each.  Nothing that assembly
checks or finalizes reads a weight besides its screen, so the points of a
weight sweep are one problem with its weights replaced (``reweight``).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import exprlang
from ._memo import BoundedCache
from .operators import (EnvelopeSet, PhiOperator, check_envelope,
                        derive_envelopes, make_operator)

__all__ = [
    "Weight",
    "Nonlinearity",
    "Side",
    "ProblemSpec",
    "PAIRS",
    "HypothesisCheck",
    "HypothesisReport",
    "SpecError",
    "ConfigShapeError",
    "power_nonlinearity",
    "power_combination_nonlinearity",
    "exp_minus_one_nonlinearity",
    "log1p_nonlinearity",
    "custom_nonlinearity",
    "weight_from_expr",
    "build_problem",
    "assemble",
    "reweight",
    "check_hypotheses",
]

_THRESHOLD_FLOOR = 1e-300


class SpecError(ValueError):
    """A problem instance violates one of its structural constraints."""


class ConfigShapeError(SpecError):
    """A config is malformed: it cannot be read, a key is missing, a value
    has the wrong type or range, or a family name is unknown."""


@dataclass(frozen=True)
class Weight:
    """Nonnegative radial weight; fn must accept scalars and arrays."""

    fn: Callable
    label: str

    def sample(self, xs: np.ndarray) -> np.ndarray:
        try:
            vals = np.asarray(self.fn(np.asarray(xs, dtype=float)), dtype=float)
        except exprlang.DomainError as exc:
            raise SpecError(f"weight {self.label}: {exc}") from exc
        if not np.isfinite(vals).all():
            raise SpecError(f"weight {self.label}: non-finite value on the grid")
        if (vals < 0).any():
            worst = float(np.min(vals))
            raise SpecError(
                f"weight {self.label}: negative value {worst:.3g} violates nonnegativity")
        return vals


def weight_from_expr(source: str, params: Mapping[str, float] | None = None,
                     label: str | None = None) -> Weight:
    expr = exprlang.parse(source, params)
    return Weight(fn=expr, label=label or source.strip())


@dataclass(frozen=True)
class Nonlinearity:
    """A coupling nonlinearity together with its envelope data.

    The upper/lower split constants (c_bar, g, xi_bar) and
    (c_under, xi_under) plus the scaling constants M_big / m_small are
    finalized during problem assembly, because they depend on the other
    equation's data.  ``upper_split_builder(threshold)`` and ``lower_split_builder(m)`` supply
    the family-exact envelopes at that point.  ``params`` holds the family
    parameters as sorted ``(name, value)`` pairs.
    """

    f: Callable
    label: str
    family: str
    upper_split_builder: Callable | None = field(default=None, repr=False)
    lower_split_builder: Callable | None = field(default=None, repr=False)
    c_bar: float | None = None
    g: Callable | None = field(default=None, repr=False)
    xi_bar: Callable | None = field(default=None, repr=False)
    c_under: float | None = None
    xi_under: Callable | None = field(default=None, repr=False)
    M_big: float | None = None
    m_small: float | None = None
    threshold: float | None = None
    params: tuple = ()

    @property
    def has_upper_split(self) -> bool:
        return self.c_bar is not None

    @property
    def has_lower_split(self) -> bool:
        return self.c_under is not None


def _power_fn(gamma: float) -> Callable:
    def f(t, _g=gamma):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = t ** _g
        return out
    return f


def power_nonlinearity(gamma: float) -> Nonlinearity:
    """f(t) = t**gamma.  The product split is exact: f(t*w) = g(t)*xi(w)."""
    if not math.isfinite(gamma):
        raise SpecError(f"power nonlinearity: gamma {gamma!r} is not finite")
    if not gamma > 0:
        raise SpecError("power nonlinearity requires a positive exponent")
    f = _power_fn(gamma)
    return Nonlinearity(
        f=f, label=f"t^{gamma:g}", family="power", params=(("gamma", float(gamma)),),
        upper_split_builder=lambda thr: (1.0, f, _power_fn(gamma)),
        lower_split_builder=lambda m: (float(m ** gamma), _power_fn(gamma)),
    )


def power_combination_nonlinearity(coeffs, exponents) -> Nonlinearity:
    """f(t) = sum c_i t**g_i with positive coefficients and exponents."""
    coeffs = [float(c) for c in coeffs]
    exponents = [float(g) for g in exponents]
    if len(coeffs) != len(exponents) or not coeffs:
        raise SpecError("power combination needs matching nonempty coefficient lists")
    if not all(map(math.isfinite, coeffs + exponents)):
        raise SpecError(f"power combination: coeffs {coeffs} and exponents "
                        f"{exponents} must be finite")
    if any(c <= 0 for c in coeffs) or any(g <= 0 for g in exponents):
        raise SpecError("power combination requires positive coefficients and exponents")

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return sum(c * t ** g for c, g in zip(coeffs, exponents))

    g_max, g_min = max(exponents), min(exponents)
    label = " + ".join(f"{c:g}*t^{g:g}" for c, g in zip(coeffs, exponents))
    return Nonlinearity(
        f=f, label=label, family="power_combination",
        params=(("coeffs", tuple(coeffs)), ("exponents", tuple(exponents))),
        upper_split_builder=lambda thr: (1.0, f, _power_fn(g_max)),
        lower_split_builder=lambda m: (float(f(m)), _power_fn(g_min)),
    )


def exp_minus_one_nonlinearity() -> Nonlinearity:
    """f(t) = exp(t) - 1.

    No upper product split exists for exponentials (g would have to
    dominate exp(t*w) for every w), so this family carries only the lower
    envelope: exp(m*w) - 1 >= (exp(m) - 1) * w for w >= 1 by convexity.
    Classification of such instances relies on the accumulation-limit
    relaxation instead of the upper split.
    """
    f = lambda t: np.expm1(np.asarray(t, dtype=float))
    ident = lambda w: np.asarray(w, dtype=float)
    return Nonlinearity(
        f=f, label="exp(t)-1", family="exp_minus_one",
        upper_split_builder=None,
        lower_split_builder=lambda m: (float(np.expm1(m)), ident),
    )


def log1p_nonlinearity() -> Nonlinearity:
    """f(t) = ln(1+t).

    Upper split from ln(1+t*w) <= ln(1+t) + ln(1+w) for t, w >= 0, folded
    into product form above the assembly threshold; lower split against
    xi(w) = ln(1+w) with constant ln(1+m)/ln(2)."""
    f = lambda t: np.log1p(np.asarray(t, dtype=float))

    def upper_split_builder(thr: float):
        thr = max(thr, _THRESHOLD_FLOOR)
        denom = math.log1p(thr)

        def xi_bar(w, _d=denom):
            return 1.0 + np.log1p(np.asarray(w, dtype=float)) / _d

        return (1.0, f, xi_bar)

    return Nonlinearity(
        f=f, label="ln(1+t)", family="log1p",
        upper_split_builder=upper_split_builder,
        lower_split_builder=lambda m: (float(math.log1p(m) / math.log(2.0)), f),
    )


def custom_nonlinearity(source: str, params: Mapping[str, float] | None = None,
                        c_bar: float | None = None, g: str | None = None,
                        xi_bar: str | None = None,
                        c_under: float | None = None,
                        xi_under: str | None = None) -> Nonlinearity:
    """Expression-backed nonlinearity; envelope expressions are optional and
    validated by sampling after assembly."""
    for name, c in (("c_bar", c_bar), ("c_under", c_under)):
        if c is not None and not math.isfinite(c):
            raise SpecError(f"custom nonlinearity: {name} {c!r} is not finite")
    f = exprlang.parse(source, params)
    upper_split_builder = None
    if c_bar is not None and g is not None and xi_bar is not None:
        g_fn = exprlang.parse(g, params)
        xi_fn = exprlang.parse(xi_bar, params)
        upper_split_builder = lambda thr: (float(c_bar), g_fn, xi_fn)
    lower_split_builder = None
    if c_under is not None and xi_under is not None:
        xiu_fn = exprlang.parse(xi_under, params)
        lower_split_builder = lambda m: (float(c_under), xiu_fn)
    return Nonlinearity(f=f, label=source.strip(), family="custom",
                        upper_split_builder=upper_split_builder, lower_split_builder=lower_split_builder)


# ---------------------------------------------------------------------------
# Problem assembly

# a pair names the equation being bounded first, the other one second
_PAIR_SIDES = {"12": (0, 1), "21": (1, 0)}
PAIRS = tuple(_PAIR_SIDES)


@dataclass(frozen=True)
class Side:
    """The data of one equation: side 1 is (phi1, a1, f1, alpha) and
    bounds u through v, side 2 is (phi2, a2, f2, beta) and bounds v
    through u."""

    index: int
    op: PhiOperator
    env: EnvelopeSet
    weight: Weight
    nl: Nonlinearity
    start: float


@dataclass(frozen=True)
class ProblemSpec:
    N: int
    alpha: float
    beta: float
    op1: PhiOperator
    op2: PhiOperator
    env1: EnvelopeSet
    env2: EnvelopeSet
    a1: Weight
    a2: Weight
    f1: Nonlinearity
    f2: Nonlinearity

    @cached_property
    def sides(self) -> tuple[Side, Side]:
        return (Side(1, self.op1, self.env1, self.a1, self.f1, self.alpha),
                Side(2, self.op2, self.env2, self.a2, self.f2, self.beta))

    def pair(self, pair: str) -> tuple[Side, Side]:
        """(own, other) sides of pair "12" or "21"."""
        if pair not in _PAIR_SIDES:
            raise ValueError(f"pair must be '12' or '21', got {pair!r}")
        own, other = _PAIR_SIDES[pair]
        return self.sides[own], self.sides[other]


def _scalar(fn: Callable, x: float) -> float:
    return float(np.asarray(fn(float(x)), dtype=float))


# sample grids of the screens and checks below; read-only, shared by calls
# weights are screened on [0, _SCREEN_SPAN]; solver and criteria grids
# re-validate them on their own nodes
_SCREEN_SPAN = 64.0
_SCREEN_GRID = np.linspace(0.0, _SCREEN_SPAN, 513)
_MONOTONE_GRID = np.concatenate(([0.0], np.logspace(-6, 6, 241)))
_SPLIT_WS = 2.0 ** np.arange(0, 11)
_SPLIT_TS = np.logspace(0, 4, 64)
for _grid in (_SCREEN_GRID, _MONOTONE_GRID, _SPLIT_WS, _SPLIT_TS):
    _grid.flags.writeable = False
del _grid


def _check_monotone(nl: Nonlinearity, name: str):
    ss = _MONOTONE_GRID
    try:
        with np.errstate(over="ignore"):
            vals = np.asarray(nl.f(ss), dtype=float)
    except exprlang.DomainError as exc:
        raise SpecError(f"{name} ({nl.label}): evaluation failed: {exc}") from exc
    # overflow to +inf at the top of the grid is fast growth, not a domain
    # failure; nan and -inf are rejected
    if np.any(np.isnan(vals)) or np.any(np.isneginf(vals)):
        raise SpecError(f"{name} ({nl.label}): non-finite value")
    if np.any(vals < 0):
        raise SpecError(f"{name} ({nl.label}): negative value violates positivity")
    finite = np.isfinite(vals)
    d = np.diff(vals[finite])
    if np.any(d < -1e-12 * (1.0 + np.abs(vals[finite][1:]))):
        k = int(np.argmin(d))
        raise SpecError(
            f"{name} ({nl.label}): fails monotonicity near t={ss[finite][k]:.3g} "
            f"(f drops by {-d[k]:.3g})")
    if np.any(vals[1:] <= 0):
        raise SpecError(f"{name} ({nl.label}): vanishes at a positive argument")


def _screen(a1: Weight, a2: Weight):
    """Sample a1, and a2 unless it is a1's function, on [0, _SCREEN_SPAN]."""
    for w in (a1,) if a2.fn == a1.fn else (a1, a2):
        w.sample(_SCREEN_GRID)


def build_problem(N: int, alpha: float, beta: float,
                  op1: PhiOperator, op2: PhiOperator,
                  a1: Weight, a2: Weight,
                  f1: Nonlinearity, f2: Nonlinearity,
                  env1: EnvelopeSet | None = None,
                  env2: EnvelopeSet | None = None,
                  M1: float | None = None, M2: float | None = None,
                  m1: float | None = None, m2: float | None = None) -> ProblemSpec:
    """Assemble and validate a problem instance.

    Scaling constants are checked against their admissible ranges when
    supplied and otherwise auto-set (M to its lower bound, m to half its
    upper bound); envelope data is finalized against the constants.
    """
    if not (isinstance(N, int) and N >= 3):
        raise SpecError("dimension N must be an integer >= 3")
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise SpecError("central values alpha, beta must be positive and finite")
    if not all(M is None or math.isfinite(M) for M in (M1, M2)):
        raise SpecError("scaling constants M1, M2 must be finite")

    envs = []
    for i, (op, env) in enumerate(((op1, env1), (op2, env2)), start=1):
        if env is None:
            env = _ENVELOPES.get(op, lambda: derive_envelopes(op)[0])
        else:
            for name, k in (("k_under", env.k_under), ("k_bar", env.k_bar)):
                if not math.isfinite(k):
                    raise SpecError(
                        f"override envelope for operator {i}: {name} {k!r} is not finite")
            worst = check_envelope(op, env, n=24, s_min=1e-4)
            if worst > 1e-9:
                raise SpecError(
                    f"override envelope for operator {i} violates the sandwich by {worst:.3g}")
        envs.append(env)
    env1, env2 = envs

    _check_monotone(f1, "f1")
    _check_monotone(f2, "f2")
    _screen(a1, a2)

    f2_alpha = _scalar(f2.f, alpha)
    f1_beta = _scalar(f1.f, beta)
    if f2_alpha <= 0 or f1_beta <= 0:
        raise SpecError("nonlinearity vanishes at the opposite central value")

    f1 = _finalize_side(f1, "f1", start_own=alpha, start_other=beta,
                        env_other=env2, f_other_at_start=f2_alpha,
                        M_user=M1, m_user=m1)
    f2 = _finalize_side(f2, "f2", start_own=beta, start_other=alpha,
                        env_other=env1, f_other_at_start=f1_beta,
                        M_user=M2, m_user=m2)

    return ProblemSpec(N=N, alpha=float(alpha), beta=float(beta),
                       op1=op1, op2=op2, env1=env1, env2=env2,
                       a1=a1, a2=a2, f1=f1, f2=f2)


def _finalize_side(nl: Nonlinearity, name: str, start_own: float,
                   start_other: float, env_other: EnvelopeSet,
                   f_other_at_start: float,
                   M_user: float | None, m_user: float | None) -> Nonlinearity:
    """Fix M/m for one nonlinearity and instantiate its envelopes.

    For f1 the coupling value is theta_bar_2(f2(alpha)) and the constraints
    read  M1 >= max(1, beta / theta_bar_2(f2(alpha))),
          m1 in (0, min(beta, theta_under_2(f2(alpha)))).
    """
    tb = float(np.asarray(env_other.theta_bar(f_other_at_start)))
    tu = float(np.asarray(env_other.theta_under(f_other_at_start)))
    if not (tb > 0 and tu > 0):
        raise SpecError(f"{name}: enveloped coupling value is not positive")
    if tb < _THRESHOLD_FLOOR:
        warnings.warn(f"{name}: coupling value {tb:.3g} below threshold floor; "
                      f"using {_THRESHOLD_FLOOR:g}", RuntimeWarning)
        tb = _THRESHOLD_FLOOR

    M_bound = max(1.0, start_other / tb)
    if M_user is None:
        M_big = M_bound
    else:
        M_big = float(M_user)
        if M_big < M_bound * (1.0 - 1e-12):
            raise SpecError(
                f"{name}: M = {M_big:.6g} violates M >= max(1, "
                f"{start_other:.6g}/{tb:.6g}) = {M_bound:.6g}")

    m_bound = min(start_other, tu)
    if m_user is None:
        m_small = 0.5 * m_bound
    else:
        m_small = float(m_user)
        if not (0.0 < m_small < m_bound):
            raise SpecError(
                f"{name}: m = {m_small:.6g} outside (0, min({start_other:.6g}, "
                f"{tu:.6g})) = (0, {m_bound:.6g})")

    threshold = max(M_big * tb, _THRESHOLD_FLOOR)
    updates: dict = {"M_big": M_big, "m_small": m_small, "threshold": threshold}
    if nl.upper_split_builder is not None:
        c_bar, g, xi_bar = nl.upper_split_builder(threshold)
        updates.update(c_bar=c_bar, g=g, xi_bar=xi_bar)
    if nl.lower_split_builder is not None:
        c_under, xi_under = nl.lower_split_builder(m_small)
        updates.update(c_under=c_under, xi_under=xi_under)
    return replace(nl, **updates)


# ---------------------------------------------------------------------------
# Config-driven assembly

_REQUIRED = object()


def _get(cfg, key: str, where: str, default=_REQUIRED):
    """``cfg[key]`` of the config object at ``where``: a ConfigShapeError
    when cfg is not an object or a required key is missing."""
    if not isinstance(cfg, Mapping):
        raise ConfigShapeError(f"{where} must be an object, got {cfg!r}")
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigShapeError(f"missing config key: {where}.{key}")
    return default


def _num(value, where: str) -> float:
    """A config number: a JSON int or float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigShapeError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigShapeError(f"{where} is too large for a float") from None


def _whole(value, where: str) -> int:
    """A config integer; 3.0 reads as 3, while 3.7 is refused (int() would
    truncate it)."""
    number = _num(value, where)
    if not number.is_integer():
        raise ConfigShapeError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _num_or_none(value, where: str):
    return None if value is None else _num(value, where)


def _nums(cfg, key: str, where: str) -> list:
    values = _get(cfg, key, where)
    if not isinstance(values, list):
        raise ConfigShapeError(f"{where}.{key} must be a list, got {values!r}")
    return [_num(v, f"{where}.{key}[{i}]") for i, v in enumerate(values)]


def _params(cfg, where: str) -> dict | None:
    """The optional ``params`` object of an expression: names to numbers."""
    params = _get(cfg, "params", where, None)
    if params is None:
        return None
    if not isinstance(params, Mapping):
        raise ConfigShapeError(f"{where}.params must be an object, got {params!r}")
    return {k: _num(v, f"{where}.params.{k}") for k, v in params.items()}


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigShapeError(f"{where} must be a string, got {value!r}")
    return value


def _weight(problem, side: int) -> Weight:
    """The weight a1 or a2 of a ``problem`` section."""
    where = f"problem.weight{side}"
    cfg = _get(problem, f"weight{side}", "problem")
    cfg = {"expr": cfg} if isinstance(cfg, str) else cfg
    expr = _text(_get(cfg, "expr", where), where + ".expr")
    return weight_from_expr(expr, _params(cfg, where), label=f"a{side}: " + expr.strip())


def _nonlinearity_from_config(cfg, where: str) -> Nonlinearity:
    if isinstance(cfg, str):
        cfg = {"family": "custom", "expr": cfg}
    family = _get(cfg, "family", where, "custom")
    if family == "power":
        return power_nonlinearity(_num(_get(cfg, "gamma", where), where + ".gamma"))
    if family == "power_combination":
        return power_combination_nonlinearity(_nums(cfg, "coeffs", where),
                                              _nums(cfg, "exponents", where))
    if family == "exp_minus_one":
        return exp_minus_one_nonlinearity()
    if family == "log1p":
        return log1p_nonlinearity()
    if family == "custom":
        env_where = where + ".envelopes"
        env = _get(cfg, "envelopes", where, {})
        opt = lambda key: _get(env, key, env_where, None)
        return custom_nonlinearity(
            _text(_get(cfg, "expr", where), where + ".expr"), _params(cfg, where),
            c_bar=_num_or_none(opt("c_bar"), env_where + ".c_bar"),
            g=opt("g"), xi_bar=opt("xi_bar"),
            c_under=_num_or_none(opt("c_under"), env_where + ".c_under"),
            xi_under=opt("xi_under"))
    raise ConfigShapeError(f"unknown nonlinearity family {family!r}")


def _operator_from_config(cfg, where: str) -> PhiOperator:
    if isinstance(cfg, str):
        cfg = {"family": cfg}
    family = _get(cfg, "family", where)
    return make_operator(family, **{k: v for k, v in cfg.items() if k != "family"})


# a problem has two operators; more entries would keep more flux tables
# alive between runs than consecutive configs reuse
_OPERATORS = BoundedCache(2)
# envelopes derived from an operator, by the operator; a refusal is not kept
_ENVELOPES = BoundedCache(2)


def _from_section(cfg, where: str) -> PhiOperator:
    """The operator of a config section, kept in ``_OPERATORS`` by its
    canonical JSON with its flux tables and derived envelopes; a section
    that is not plain JSON is built afresh every time."""
    try:
        key = json.dumps(cfg, sort_keys=True)
    except (TypeError, ValueError):
        return _operator_from_config(cfg, where)
    return _OPERATORS.get(key, lambda: _operator_from_config(cfg, where))


def _envelope_from_config(cfg, op: PhiOperator, where: str) -> EnvelopeSet | None:
    if cfg is None:
        return None
    from .operators import h_inverse as _hinv
    params = _params(cfg, where)

    def fn_of(key):
        src = _get(cfg, key, where)
        if src == "h_inverse":
            return lambda s: _hinv(op, s)
        return exprlang.parse(src, params)

    return EnvelopeSet(
        k_under=_num(_get(cfg, "k_under", where, 1.0), where + ".k_under"),
        k_bar=_num(_get(cfg, "k_bar", where, 1.0), where + ".k_bar"),
        theta_under=fn_of("theta_under"),
        theta_bar=fn_of("theta_bar"),
        psi_under=fn_of("psi_under"),
        psi_bar=fn_of("psi_bar"),
        description="user override",
    )


def assemble(problem: Mapping) -> ProblemSpec:
    """Build a ProblemSpec from the parsed ``problem`` section of a config.
    A missing key, a value of the wrong type or an unknown family is a
    ConfigShapeError, a SpecError naming it; a value that breaks an
    instance constraint is a plain SpecError."""
    def get(key, default=_REQUIRED):
        return _get(problem, key, "problem", default)

    op1 = _from_section(get("operator1"), "problem.operator1")
    op2 = _from_section(get("operator2"), "problem.operator2")
    return build_problem(
        N=_whole(get("N"), "problem.N"),
        alpha=_num(get("alpha"), "problem.alpha"),
        beta=_num(get("beta"), "problem.beta"),
        op1=op1, op2=op2,
        a1=_weight(problem, 1),
        a2=_weight(problem, 2),
        f1=_nonlinearity_from_config(get("f1"), "problem.f1"),
        f2=_nonlinearity_from_config(get("f2"), "problem.f2"),
        env1=_envelope_from_config(get("envelope1", None), op1, "problem.envelope1"),
        env2=_envelope_from_config(get("envelope2", None), op2, "problem.envelope2"),
        **{key: _num_or_none(get(key, None), "problem." + key)
           for key in ("M1", "M2", "m1", "m2")},
    )


def reweight(spec: ProblemSpec, problem: Mapping) -> ProblemSpec:
    """``assemble(problem)`` for a section that differs from that of ``spec``
    in its weights alone: the weights read and screened as there, in order."""
    a1, a2 = _weight(problem, 1), _weight(problem, 2)
    _screen(a1, a2)
    return replace(spec, a1=a1, a2=a2)


# ---------------------------------------------------------------------------
# Hypothesis report

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    worst: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "worst_violation": self.worst, "note": self.note}


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple

    def __getitem__(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def ok(self, name: str) -> bool:
        return self[name].ok

    def to_dict(self) -> dict:
        return {c.name: c.to_dict() for c in self.checks}


def _beyond_roundoff(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """``big - small``, 0.0 within 4 ulps of the larger side: roundoff."""
    ulps = np.spacing(np.maximum(np.abs(big), np.abs(small)))
    return np.where(np.abs(big - small) <= 4 * ulps, 0.0, big - small)


def _sample_upper_split(nl: Nonlinearity, name: str) -> HypothesisCheck:
    if not nl.has_upper_split:
        return HypothesisCheck(name, False, note="no upper envelope data")
    # the grid at an extreme threshold, f(t*w) and its bound may overflow:
    # such a sample is a violation
    with np.errstate(over="ignore", invalid="ignore"):
        tv, wv = np.meshgrid(nl.threshold * _SPLIT_TS, _SPLIT_WS, indexing="ij")
        lhs = np.asarray(nl.f(tv * wv), dtype=float)
        rhs = nl.c_bar * np.asarray(nl.g(tv), dtype=float) * np.asarray(nl.xi_bar(wv), dtype=float)
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        scale = np.maximum(np.abs(rhs), 1.0)
        viol = np.where(finite, _beyond_roundoff(lhs, rhs) / scale, np.inf)
    worst = float(np.max(viol))
    return HypothesisCheck(name, worst <= 1e-9, max(worst, 0.0),
                           note=f"sampled on {len(_SPLIT_TS)}x{len(_SPLIT_WS)} (t, w) grid")


def _sample_lower_split(nl: Nonlinearity, name: str) -> HypothesisCheck:
    if not nl.has_lower_split:
        return HypothesisCheck(name, False, note="no lower envelope data")
    ws = _SPLIT_WS
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.asarray(nl.f(nl.m_small * ws), dtype=float)
        rhs = nl.c_under * np.asarray(nl.xi_under(ws), dtype=float)
        viol = _beyond_roundoff(rhs, lhs) / np.maximum(np.abs(rhs), 1.0)
    worst = float(np.max(viol))
    return HypothesisCheck(name, worst <= 1e-9, max(worst, 0.0),
                           note=f"sampled at w in powers of 2 up to {ws[-1]:g}")


def check_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Per-hypothesis pass/fail with worst sampled violation magnitudes."""
    checks = []
    for tag, w in (("weight_1", spec.a1), ("weight_2", spec.a2)):
        try:
            # a2 that is a1's function passes with a1
            if not (checks and checks[0].ok and w.fn == spec.a1.fn):
                w.sample(_SCREEN_GRID)
            checks.append(HypothesisCheck(tag, True, note=f"sampled on [0, {_SCREEN_SPAN:g}]"))
        except SpecError as exc:
            checks.append(HypothesisCheck(tag, False, note=str(exc)))
    for tag, nl in (("monotone_f1", spec.f1), ("monotone_f2", spec.f2)):
        try:
            _check_monotone(nl, tag)
            checks.append(HypothesisCheck(tag, True))
        except SpecError as exc:
            checks.append(HypothesisCheck(tag, False, note=str(exc)))
    for kind, sample in (("upper", _sample_upper_split), ("lower", _sample_lower_split)):
        for tag, nl in (("f1", spec.f1), ("f2", spec.f2)):
            checks.append(sample(nl, f"{kind}_split_{tag}"))
    return HypothesisReport(checks=tuple(checks))
