"""Noether symmetries, gauge functions and conservation laws for polynomial
Lagrangians, derived and verified exactly over the rationals."""

from .expr import Expr, VarId
from .jets import (Generator, HeadroomError, JetSpace, evolutionary_form,
                   prolong_pde, total_derivative)
from .parsing import ParseError, parse
from .variational import (ELSystem, HessianReport, Lagrangian, ReductionError,
                          euler_lagrange, hessian, reduce_mod_el)
from .engine import (Ansatz, ConservationLaw, DeterminingSystem,
                     NoetherSolution, NonSymmetryError, UnsupportedProblem,
                     VerificationReport, boundary_terms, characteristics,
                     combine_solutions, condition_residual,
                     conservation_vector, determining_system, find_gauge,
                     find_gauges, first_integral, hessian_relation_check,
                     match_generator, solve, solve_noether, verify,
                     verify_candidate)
from .problem import NumericConfig, Problem, ProblemError, load_problem

__version__ = "0.1.0"

__all__ = [
    "Ansatz", "ConservationLaw", "DeterminingSystem",
    "ELSystem", "Expr", "Generator", "HeadroomError", "HessianReport",
    "JetSpace", "Lagrangian", "NoetherSolution", "NonSymmetryError",
    "NumericConfig", "NumericReport", "ParseError", "Problem", "ProblemError",
    "ReductionError", "Trajectory", "UnsupportedProblem",
    "VerificationReport", "boundary_terms", "characteristics",
    "check_integrals", "combine_solutions", "condition_residual",
    "conservation_vector", "determining_system", "drift_report",
    "euler_lagrange", "evolutionary_form", "find_gauge", "find_gauges",
    "first_integral", "hessian", "hessian_relation_check", "integrate_el",
    "load_problem", "match_generator", "parse", "prolong_pde",
    "reduce_mod_el", "seeded_initial_conditions", "solve", "solve_noether",
    "total_derivative", "verify", "verify_candidate",
]

# Only ``numcheck`` integrates, so ``noether.numeric`` is imported on first
# use of one of its names (PEP 562), not with the package.
_NUMERIC = ("NumericReport", "Trajectory", "check_integrals", "drift_report",
            "integrate_el", "seeded_initial_conditions")


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_NUMERIC))
