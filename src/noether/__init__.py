"""Noether symmetries, gauge functions and conservation laws for polynomial
Lagrangians, derived and verified exactly over the rationals."""

from .expr import Expr, VarId
from .jets import (Generator, HeadroomError, JetSpace, characteristics,
                   total_derivative)
from .parsing import ParseError, parse
from .variational import (ELSystem, Lagrangian, ReductionError,
                          euler_lagrange, reduce_mod_el)
from .engine import (Ansatz, ConservationLaw, NoetherSolution,
                     NonSymmetryError, VerificationReport, condition_residual,
                     find_gauges, solve_noether, verify)
from .problem import NumericConfig, Problem, ProblemError, load_problem

__version__ = "0.1.0"

__all__ = [
    "Ansatz", "ConservationLaw", "DeterminingSystem", "ELSystem", "Expr",
    "Generator", "HeadroomError", "JetSpace", "Lagrangian", "NoetherSolution",
    "NonSymmetryError", "NumericConfig", "NumericReport", "ParseError",
    "Problem", "ProblemError", "ReductionError", "Trajectory",
    "VerificationReport", "boundary_terms",
    "characteristics", "check_integrals", "condition_residual",
    "conservation_vector", "determining_system", "drift_report",
    "euler_lagrange", "evolutionary_form", "find_gauge", "find_gauges",
    "first_integral", "hessian_relation_check", "integrate_el", "load_problem",
    "match_generator", "parse", "prolong_pde", "reduce_mod_el",
    "seeded_initial_conditions", "solve", "solve_noether", "total_derivative",
    "verify", "verify_candidate",
]

# Only ``numcheck`` integrates, and no command runs ``noether.library``, so
# each of these modules is imported on first use of one of its names (PEP
# 562), not with the package.
_NUMERIC = ("NumericReport", "Trajectory", "check_integrals", "drift_report",
            "integrate_el", "seeded_initial_conditions")
_LIBRARY = ("DeterminingSystem", "boundary_terms", "conservation_vector",
            "determining_system", "evolutionary_form", "find_gauge",
            "first_integral", "hessian_relation_check", "match_generator",
            "prolong_pde", "solve", "verify_candidate")


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numeric
        return getattr(numeric, name)
    if name in _LIBRARY:
        from . import library
        return getattr(library, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_NUMERIC) | set(_LIBRARY))
