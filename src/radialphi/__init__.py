"""radialphi: solver and asymptotic classifier for coupled radial
phi-Laplacian systems.

The package solves

    div(phi1(|grad u|) grad u) = a1(|x|) f1(v)
    div(phi2(|grad v|) grad v) = a2(|x|) f2(u)

for radial (u, v) on R^N by monotone successive approximation, evaluates
the integral criteria that decide whether solution components stay bounded
or blow up at infinity, and classifies instances accordingly.  See the
README for the config format and the CLI.
"""

from .classifier import (BOTH_BOUNDED, BOTH_LARGE, EXISTS_UNCLASSIFIED,
                         INDETERMINATE, U_BOUNDED_V_LARGE, U_LARGE_V_BOUNDED,
                         Classification, ConsistencyReport, classify,
                         converse_advisory, cross_check)
from .criteria import (CriteriaError, CriteriaEvaluator, CriteriaReport,
                       GrowthBudget, build_report, solution_bounds)
from .exprlang import Expr, ExprError, parse
from .iteration import (IterationState, RadialSolution, init_state, residual,
                        solve, step)
from .model import (HypothesisReport, Nonlinearity, ProblemSpec, SpecError,
                    Weight, assemble, build_problem, check_hypotheses,
                    custom_nonlinearity, exp_minus_one_nonlinearity,
                    log1p_nonlinearity, power_combination_nonlinearity,
                    power_nonlinearity, weight_from_expr)
from .operators import (EnvelopeSet, GrowthExponents, InversionRangeError,
                        OperatorError, PhiOperator, check_envelope,
                        derive_envelopes, h_eval, h_inverse, make_operator)
from .oracle import (PowerLawCriteria, PowerLawInstance, SingleEquationReport,
                     manufactured_problem, power_law_criteria,
                     single_equation_check)
from .quadrature import (LimitVerdict, NumericsError, ProbeSchedule,
                         RadialGrid, prefix_trapezoid, radial_kernel_at,
                         verdict_from_trace)

__version__ = "0.1.0"
