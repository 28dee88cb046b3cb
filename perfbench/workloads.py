"""Finite config menus of the three workloads and the seeded op sequence.

Each workload is a list of slots and each slot a list of variants.  Variants
of one slot share the command and the operator families; they differ in
operator parameters, weights and nonlinearities.  Every variant has an
identifier ``<slot>.<k>``; the references in ``reference.json`` are keyed
by it, so the outputs of any seed can be checked.

The seed picks the sequence of configs: a run is a series of rounds, and
each round is every menu entry once, in an order drawn from the seed.
Variants of one slot differ in cost by up to a factor of two, so a seed
that drew a subset of the menu would change the cost mix from seed to
seed; running whole rounds keeps the mix, and hence the metrics, the same
for every seed while the order, and which configs run next to each other,
changes.
"""

from __future__ import annotations

import copy
import random

SOLVE_GRID = {"r_max": 20.0, "step": 1e-3}
SWEEP_SIGMAS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
# radii at which solve outputs are compared with the reference
CHECK_RADII = [0.0, 1.0, 5.0, 10.0, 20.0]

COMMANDS = {
    "classify_catalog": "classify",
    "sweep_analytic": "sweep",
    "solve_artifacts": "solve",
}


def _decay(sigma):
    return {"expr": "(1+r)^(-sigma)", "params": {"sigma": sigma}}


_RATIONAL = "6/(1+r^2)"


def _power(gamma):
    return {"family": "power", "gamma": gamma}


_LOG1P = {"family": "log1p"}


def _combo(exponents):
    return {"family": "power_combination", "coeffs": [1.0] * len(exponents),
            "exponents": exponents}


def _problem(op1, op2, w1, w2, f1, f2, N=3, alpha=1.0, beta=1.0):
    return {"N": N, "alpha": alpha, "beta": beta,
            "operator1": op1, "operator2": op2,
            "weight1": w1, "weight2": w2, "f1": f1, "f2": f2}


def _plasma(p, q):
    return {"family": "plasma", "p": p, "q": q}


def _elasticity(p):
    return {"family": "elasticity", "p": p}


def _plasticity(p, q):
    return {"family": "plasticity", "p": p, "q": q}


def _newtonian(p, q):
    return {"family": "newtonian", "p": p, "q": q}


def _custom(expr):
    return {"family": "custom", "expr": expr}


_LAP = {"family": "laplacian"}


def _p_lap(p):
    return {"family": "p_laplacian", "p": p}


# -- classify_catalog ---------------------------------------------------------
# Operators without a closed-form inverse, each paired with another such
# operator or with the Laplacian; sigma >= 3 entries come out indeterminate.
_CLASSIFY = {
    "plasma_lap": [
        _problem(_plasma(2, 3), _LAP, _RATIONAL, _decay(3), _power(1.0), _LOG1P),
        _problem(_plasma(1.5, 2.5), _LAP, _decay(2), _decay(2), _power(0.5), _power(0.5)),
        _problem(_plasma(2, 4), _LAP, _decay(1), _RATIONAL, _combo([0.5, 1.5]), _power(1.0)),
    ],
    "elasticity_lap": [
        _problem(_elasticity(1.5), _LAP, _decay(4), _decay(4), _power(1.0), _LOG1P),
        _problem(_elasticity(0.75), _LAP, _RATIONAL, _decay(2), _power(0.8), _power(1.0)),
        _problem(_elasticity(2.0), _LAP, _decay(1), _decay(3), _LOG1P, _combo([0.5, 1.0])),
    ],
    "plasticity_lap": [
        _problem(_plasticity(2, 1), _LAP, _decay(2), _decay(2), _power(0.5), _power(0.5)),
        _problem(_plasticity(1.5, 1.5), _LAP, _RATIONAL, _decay(3), _power(1.0), _LOG1P),
        _problem(_plasticity(3, 2), _LAP, _decay(4), _decay(1), _combo([0.5, 1.5]), _power(0.8)),
    ],
    "newtonian_lap": [
        _problem(_newtonian(0.5, 1), _LAP, _decay(3), _decay(3), _power(1.0), _power(0.8)),
        _problem(_newtonian(0.25, 2), _LAP, _RATIONAL, _decay(1), _LOG1P, _power(1.0)),
        _problem(_newtonian(0.75, 1.5), _LAP, _decay(2), _RATIONAL, _power(0.5), _combo([0.5, 1.0])),
    ],
    "custom_lap": [
        _problem(_custom("1+t"), _LAP, _decay(2), _decay(2), _power(1.0), _power(1.0)),
        _problem(_custom("t+t^2"), _LAP, _RATIONAL, _decay(3), _power(0.8), _LOG1P),
        _problem(_custom("sqrt(1+t^2)"), _LAP, _decay(4), _decay(1), _combo([0.5, 1.5]), _power(0.5)),
    ],
    "plasma_newtonian": [
        _problem(_plasma(2, 3), _newtonian(0.5, 1), _decay(1), _decay(1), _power(1.0), _power(0.8)),
        _problem(_plasma(1.5, 3), _newtonian(0.25, 1), _RATIONAL, _decay(3), _LOG1P, _power(1.0)),
        _problem(_plasma(2, 2.5), _newtonian(0.75, 1.5), _decay(3), _RATIONAL, _power(0.5), _combo([0.5, 1.0])),
    ],
    "plasticity_elasticity": [
        _problem(_plasticity(2, 1), _elasticity(1.5), _decay(2), _decay(2), _power(1.0), _LOG1P),
        _problem(_plasticity(1.5, 2), _elasticity(0.75), _decay(3), _decay(3), _power(0.5), _power(0.5)),
        _problem(_plasticity(3, 1), _elasticity(2.0), _RATIONAL, _decay(1), _combo([0.5, 1.5]), _power(0.8)),
    ],
    "custom_plasma": [
        _problem(_custom("1+t"), _plasma(2, 3), _decay(1), _decay(2), _power(0.8), _power(1.0)),
        _problem(_custom("t+t^2"), _plasma(1.5, 2.5), _RATIONAL, _decay(4), _LOG1P, _power(0.5)),
        _problem(_custom("sqrt(1+t^2)"), _plasma(2, 4), _decay(3), _RATIONAL, _power(1.0), _combo([0.5, 1.0])),
    ],
}

# -- sweep_analytic -----------------------------------------------------------
# Closed-form inverses only; one op sweeps sigma over both weights.
_SWEEP_WEIGHT = _decay(0.0)
_SWEEP = {
    "lap_lap": [
        _problem(_LAP, _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(1.0), _power(0.5)),
        _problem(_LAP, _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _LOG1P, _power(1.0)),
        _problem(_LAP, _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _combo([0.5, 1.0]), _power(0.8)),
    ],
    "plap_lap": [
        _problem(_p_lap(3), _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(1.0), _LOG1P),
        _problem(_p_lap(1.5), _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(0.5), _power(1.0)),
        _problem(_p_lap(2.5), _LAP, _SWEEP_WEIGHT, _SWEEP_WEIGHT, _combo([0.5, 1.5]), _power(0.5)),
    ],
    "elasticity1_plap": [
        _problem(_elasticity(1), _p_lap(1.5), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _combo([0.5, 1.5]), _power(2.0)),
        _problem(_elasticity(1), _p_lap(3), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(1.0), _LOG1P),
        _problem(_elasticity(1), _p_lap(2.5), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _LOG1P, _power(0.8)),
    ],
    "plap_plap": [
        _problem(_p_lap(3), _p_lap(1.5), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(0.5), _power(1.0)),
        _problem(_p_lap(2.5), _p_lap(2.5), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _LOG1P, _LOG1P),
        _problem(_p_lap(1.5), _p_lap(4), _SWEEP_WEIGHT, _SWEEP_WEIGHT, _power(1.0), _combo([0.5, 1.0])),
    ],
}

# -- solve_artifacts ----------------------------------------------------------
# The Laplacian manufactured case has the exact solution u = v = 1 + r^2:
# u'' + (N-1)/r u' = 2N = a(r) * (1 + r^2) with a = 2N/(1+r^2), gamma = 1.
EXACT_SLOTS = ("manufactured_n3", "manufactured_n4")
_SOLVE_WEIGHT = _decay(3)
_SOLVE = {
    "manufactured_n3": [
        _problem(_LAP, _LAP, "6/(1+r^2)", "6/(1+r^2)", _power(1.0), _power(1.0), N=3),
    ],
    "manufactured_n4": [
        _problem(_LAP, _LAP, "8/(1+r^2)", "8/(1+r^2)", _power(1.0), _power(1.0), N=4),
    ],
    "plasma_newtonian": [
        _problem(_plasma(2, 3), _newtonian(0.5, 1), _SOLVE_WEIGHT, _SOLVE_WEIGHT, _power(1.0), _power(0.8)),
        _problem(_plasma(1.5, 2.5), _newtonian(0.25, 1), _SOLVE_WEIGHT, _decay(2), _power(0.5), _LOG1P),
        _problem(_plasma(2, 4), _newtonian(0.75, 1.5), _decay(2), _SOLVE_WEIGHT, _LOG1P, _power(0.5)),
    ],
    "plasticity_lap": [
        _problem(_plasticity(2, 1), _LAP, _SOLVE_WEIGHT, _SOLVE_WEIGHT, _power(0.5), _power(0.5)),
        _problem(_plasticity(1.5, 1.5), _LAP, _decay(2), _SOLVE_WEIGHT, _power(0.8), _LOG1P),
        _problem(_plasticity(3, 2), _LAP, _SOLVE_WEIGHT, _decay(2), _LOG1P, _power(0.8)),
    ],
    "custom_elasticity": [
        _problem(_custom("1+t"), _elasticity(1.5), _SOLVE_WEIGHT, _SOLVE_WEIGHT, _power(1.0), _power(0.5)),
        _problem(_custom("t+t^2"), _elasticity(0.75), _decay(2), _SOLVE_WEIGHT, _power(0.5), _LOG1P),
        _problem(_custom("sqrt(1+t^2)"), _elasticity(2.0), _SOLVE_WEIGHT, _decay(2), _LOG1P, _power(0.8)),
    ],
}

MENUS = {
    "classify_catalog": _CLASSIFY,
    "sweep_analytic": _SWEEP,
    "solve_artifacts": _SOLVE,
}


def _config(workload: str, problem: dict) -> dict:
    """Full config for one menu entry; output paths are filled in per op."""
    cfg: dict = {"problem": copy.deepcopy(problem), "outputs": {}}
    if workload == "sweep_analytic":
        cfg["sweep"] = {"axes": [{
            "name": "sigma",
            "paths": ["problem.weight1.params.sigma", "problem.weight2.params.sigma"],
            "values": list(SWEEP_SIGMAS)}]}
    if workload == "solve_artifacts":
        cfg["numerics"] = dict(SOLVE_GRID)
    return cfg


def menu(workload: str) -> dict:
    """Every entry of a workload's menu, keyed by ``<slot>.<k>``."""
    return {f"{slot}.{k}": _config(workload, problem)
            for slot, variants in MENUS[workload].items()
            for k, problem in enumerate(variants)}


def rounds(workload: str, seed: int):
    """Endless sequence of rounds: each is a list of ``(entry_id, config)``
    holding every menu entry once, in a seeded order."""
    entries = list(menu(workload).items())
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(entries)
        rng.shuffle(order)
        yield order
