"""A referee that needs no quadrature: exponent counting.

For Laplacian operators (flux inverse and psi envelopes the identity),
power nonlinearities t^gamma and weights (1+r)^(-sigma), every integrand
of the criteria behaves like t^p (ln t)^q as t grows, and whether each
functional has a finite limit follows from p and q alone.  The referee
counts those exponents through the kernel, the accumulations and the
coupling integrals, and names the class the decision table reaches on
exact verdicts; the classifier, which probes the same functionals
numerically, must never name another class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from radialphi import classifier, criteria, model
from radialphi.quadrature import ProbeSchedule


@dataclass(frozen=True)
class Growth:
    """t^p (ln t)^q as t -> infinity; Growth(0) is a positive constant."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __mul__(self, other: "Growth") -> "Growth":
        return Growth(self.p + other.p, self.q + other.q)

    def __pow__(self, gamma: Fraction) -> "Growth":
        return Growth(self.p * gamma, self.q * gamma)

    @property
    def integrable(self) -> bool:
        """Whether the integral of t^p (ln t)^q to infinity is finite."""
        return self.p < -1 or (self.p == -1 and self.q < -1)

    def integral(self) -> "Growth":
        """The growth of the integral from 0 to t: a positive constant when
        it converges."""
        if self.integrable:
            return Growth(Fraction(0))
        if self.p > -1:
            return Growth(self.p + 1, self.q)
        if self.q == -1:
            raise ValueError("the integral grows like ln ln t")
        return Growth(Fraction(0), self.q + 1)

    def kernel(self, dim: int) -> "Growth":
        """K[w](t) = t^(1-dim) * integral_0^t s^(dim-1) w(s) ds."""
        return Growth(Fraction(1 - dim)) * (Growth(Fraction(dim - 1)) * self).integral()


def referee(N: int, gammas: tuple, sigmas: tuple) -> str:
    """The class of the Laplacian instance with f_i = t^gamma_i and
    a_i = (1+r)^(-sigma_i).

    Both growth budgets diverge: with gamma1 * gamma2 <= 1 the budget's
    integrand 1 / f1(f2(t)) is not integrable.  Then u is bounded when the
    coupling P_12 has a finite limit and large when it diverges, and
    likewise v with P_21; the upper and lower couplings share their
    exponents, since every envelope here is a power of its argument.  P_12
    integrates K[a1 * (1 + A_2)^gamma1], where the accumulation A_2
    integrates K[a2]; a finite A_2 leaves a constant factor, which is also
    the relaxed coupling the classifier reads then.
    """
    gammas = [Fraction(g) for g in gammas]
    assert gammas[0] * gammas[1] <= 1
    weights = [Growth(-Fraction(s)) for s in sigmas]
    acc = [w.kernel(N).integral() for w in weights]
    bounded = [(weights[own] * acc[1 - own] ** gammas[own]).kernel(N).integrable
               for own in (0, 1)]
    return {(True, True): classifier.BOTH_BOUNDED,
            (False, False): classifier.BOTH_LARGE,
            (True, False): classifier.U_BOUNDED_V_LARGE,
            (False, True): classifier.U_LARGE_V_BOUNDED}[tuple(bounded)]


class TestGrowth:
    @pytest.mark.parametrize("sigma,N,want", [
        # K[t^-sigma] ~ t^(1-sigma) below the dimension, t^(1-N) ln t at it,
        # t^(1-N) above it
        (0, 3, Growth(Fraction(1))),
        (2, 3, Growth(Fraction(-1))),
        (3, 3, Growth(Fraction(-2), Fraction(1))),
        (6, 4, Growth(Fraction(-3))),
    ])
    def test_kernel(self, sigma, N, want):
        assert Growth(-Fraction(sigma)).kernel(N) == want

    def test_integral(self):
        assert Growth(Fraction(-1)).integral() == Growth(Fraction(0), Fraction(1))
        assert Growth(Fraction(-1), Fraction(-2)).integral() == Growth(Fraction(0))
        assert Growth(Fraction(-3, 2)).integral() == Growth(Fraction(0))
        assert Growth(Fraction(1, 2), Fraction(1)).integral() == Growth(Fraction(3, 2), Fraction(1))
        with pytest.raises(ValueError):
            Growth(Fraction(-1), Fraction(-1)).integral()

    def test_classes(self):
        # a weight decaying faster than t^-2 gives a finite accumulation;
        # both components stay bounded when both weights do
        assert referee(3, (1, 1), (3, 3)) == classifier.BOTH_BOUNDED
        assert referee(3, (1, 1), (2, 2)) == classifier.BOTH_LARGE
        # P_12 reads a1 * A_2: t^-6 * ln t is integrable after the kernel,
        # while a2 = t^-2 against a finite A_1 is not
        assert referee(3, (1, 1), (6, 2)) == classifier.U_BOUNDED_V_LARGE
        # a1 * A_2^gamma1 with A_2 ~ t^2: t^-3 for gamma1 = 1/2, but t^-2
        # for gamma1 = 1
        assert referee(3, (0.5, 1), (4, 0)) == classifier.U_BOUNDED_V_LARGE
        assert referee(3, (1, 1), (4, 0)) == classifier.BOTH_LARGE
        assert referee(3, (1, 0.5), (0, 4)) == classifier.U_LARGE_V_BOUNDED


SIGMAS = (0, 1, 1.5, 2, 2.5, 3, 4, 6)
EXPONENTS = (0.5, 1.0)
DIMENSIONS = (3, 4)
DECIDED = (classifier.BOTH_BOUNDED, classifier.BOTH_LARGE,
           classifier.U_BOUNDED_V_LARGE, classifier.U_LARGE_V_BOUNDED)


def weight(sigma) -> dict:
    return {"expr": "(1+r)^(-sigma)", "params": {"sigma": sigma}}


def test_classifier_never_contradicts_the_referee():
    # 512 instances: Laplacian operators, N in {3, 4}, f1 = t^g1 and
    # f2 = t^g2 with g1, g2 in {0.5, 1}, a_i = (1+r)^(-sigma_i) over eight
    # sigmas each; the instances of one (N, g1, g2) differ in their
    # weights alone and are probed as one batch
    schedule = ProbeSchedule()
    wrong, counts = [], {}
    for N, g1, g2 in itertools.product(DIMENSIONS, EXPONENTS, EXPONENTS):
        problem = {"N": N, "alpha": 1.0, "beta": 1.0,
                   "operator1": "laplacian", "operator2": "laplacian",
                   "weight1": weight(0), "weight2": weight(0),
                   "f1": {"family": "power", "gamma": g1},
                   "f2": {"family": "power", "gamma": g2}}
        first = model.assemble(problem)
        pairs = list(itertools.product(SIGMAS, SIGMAS))
        specs = [model.reweight(first, dict(problem, weight1=weight(s1), weight2=weight(s2)))
                 for s1, s2 in pairs]
        reports = criteria.build_reports(specs, schedule)
        for (s1, s2), spec, report in zip(pairs, specs, reports):
            verdict = classifier.classify(spec, report, model.check_hypotheses(spec)).verdict
            want = referee(N, (g1, g2), (s1, s2))
            decided = verdict in DECIDED
            counts[want, decided] = counts.get((want, decided), 0) + 1
            if decided and verdict != want:
                wrong.append((N, g1, g2, s1, s2, verdict, want))
    assert sum(counts.values()) == 512
    assert wrong == []
    undecided = sum(n for (_, decided), n in counts.items() if not decided)
    assert undecided <= 244, counts
