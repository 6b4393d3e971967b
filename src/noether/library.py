"""Library functions that no command runs.

They serve callers who check the engine's claims by hand: the determining
system as a record with parameter templates and its nullspace as parameter
assignments, laws and gauges for one given generator, the span of a basis,
the velocity-Hessian relation of a first integral, the prolongation at one
jet and the evolutionary form of a generator.  Every command is a fresh
process, so this module is kept off the commands' import path: the
``noether`` package imports it on first use of one of its names (PEP 562).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (Ansatz, ConservationLaw, NoetherSolution,
                     _boundary_terms, _law, _system, find_gauges)
from .expr import (DEPENDENT, JET, PARAMETER, Expr, Monomial, Rational,
                   VarId, rational_div)
from .jets import Generator, JetSpace, characteristics, multi_derivative
from .linalg import Row, nullspace, solve_affine_many
from .variational import Lagrangian


@dataclass
class DeterminingSystem:
    """Homogeneous linear system over the ansatz parameters.

    ``unknowns`` are this system's own parameters ``c0``, ``c1``, ...: they
    order after every variable of the problem's ``JetSpace`` but are not
    registered in it, so they never clash with the problem's names.
    ``rows`` are sparse over positions in ``unknowns``.  The templates are
    linear in the parameters, one parameter per term, and describe the
    ansatz to callers of this record.  No command builds them:
    ``solve_noether``, and ``find_gauges`` on a field problem, read each
    solution straight from its columns, one monomial in one slot each.
    """

    unknowns: List[VarId]
    rows: List[Row]
    xi_templates: Dict[VarId, Expr]
    eta_templates: Dict[VarId, Expr]
    gauge_templates: Tuple[Expr, ...]


# -- conservation laws --------------------------------------------------------


def boundary_terms(L: Lagrangian, g: Generator) -> List[Expr]:
    """The per-direction boundary terms produced by integration by parts.

    Peeling total derivatives off D^mu(Q_i) * dL/du_mu one at a time (last
    independent variable first) accumulates one expression per independent
    variable; what remains after all peels is the characteristic times the
    Euler-Lagrange expression, which vanishes on shell.
    """
    return _boundary_terms(L, characteristics(g, L.space))


def first_integral(L: Lagrangian, g: Generator, f: Expr) -> ConservationLaw:
    """The first integral of a verified symmetry of a time-like problem.

    Convention: I = f - [tau L + boundary terms], so for the free particle
    the translation symmetry in the dependent variable yields minus the
    velocity.
    """
    if not L.space.is_ode:
        raise ValueError("first_integral applies to single-independent problems")
    return _law(L, g, [f])


def conservation_vector(L: Lagrangian, g: Generator,
                        F: Sequence[Expr]) -> ConservationLaw:
    """The flux vector of a verified symmetry of a multi-independent problem.

    Component j is F_j - [xi_j L + boundary terms_j]; like a first
    integral, it is returned only once Noether's identity Div P = Q.E(L)
    holds off shell, so its divergence vanishes on shell.
    """
    if L.space.is_ode:
        raise ValueError("conservation_vector applies to PDE problems")
    return _law(L, g, F)


def hessian_relation_check(L: Lagrangian, g: Generator, integral: Expr) -> bool:
    """Whether the integral's velocity gradient matches the symmetry.

    For a first-order time-like Lagrangian and a symmetry of derivative
    dependence at most one, dI/dv_j must equal
    -(eta_i - v_i tau) d2L/dv_i dv_j for every j.
    """
    space = L.space
    if g.dependence_order > 1:
        raise ValueError("hessian relation requires derivative dependence <= 1")
    qs = characteristics(g, space)
    matrix = _hessian_matrix(L)   # raises unless L is first-order time-like
    for j in range(len(space.dependents)):
        rhs = Expr.zero()
        for q_i, row in zip(qs, matrix):
            rhs = rhs - q_i * row[j]
        if integral.partial(space.jet(j, (1,))) != rhs:
            return False
    return True


def _hessian_matrix(L: Lagrangian) -> List[List[Expr]]:
    """The velocity Hessian d2L/dv_i dv_j of a first-order time-like
    Lagrangian."""
    space = L.space
    if L.order != 1 or not space.is_ode:
        raise ValueError("the velocity Hessian requires a first-order "
                         "Lagrangian in one independent variable")
    vels = [space.jet(i, (1,)) for i in range(len(space.dependents))]
    first = {v: p for _, v, p in L.partials}
    return [[first.get(vi, Expr.zero()).partial(vj) for vj in vels]
            for vi in vels]


# -- determining equations ----------------------------------------------------


def _ansatz(space: JetSpace, columns: Sequence[Tuple[int, Monomial]],
            n_slots: int) -> Tuple[List[VarId], List[Expr]]:
    """Fresh unknowns ``c0``, ``c1``, ..., one per column, and one template
    per slot: each monomial of the slot times its column's unknown.  An
    unknown orders after every variable of the space, so it is its term's
    last factor, and is never registered there, so it cannot clash with a
    problem's names.
    """
    unknowns = [VarId(PARAMETER, f"c{k}", space.variable_count + k)
                for k in range(len(columns))]
    terms: List[Dict[Monomial, Rational]] = [{} for _ in range(n_slots)]
    for c, (s, mono) in zip(unknowns, columns):
        terms[s][mono + ((c, 1),)] = 1
    return unknowns, [Expr(t) for t in terms]


def determining_system(L: Lagrangian, ansatz: Ansatz) -> DeterminingSystem:
    """Instantiate the ansatz and collect the invariance condition: each
    coefficient of the residual, by monomial in the problem's variables, is
    one homogeneous linear row over fresh parameters, one per column."""
    rows, columns, scale, xs, n_slots, packing = _system(L, ansatz)
    rows = [{c: rational_div(v, scale) for c, v in row.items()}
            for row in rows]
    unknowns, templates = _ansatz(
        L.space, [(s, packing.factors(p)) for s, p in columns], n_slots)
    n = len(xs) + len(L.space.dependents)   # the xi and eta slots
    return DeterminingSystem(
        unknowns=unknowns, rows=rows, xi_templates=dict(zip(xs, templates)),
        eta_templates=dict(zip(L.space.dependents, templates[len(xs):n])),
        gauge_templates=tuple(templates[n:]))


def solve(ds: DeterminingSystem) -> List[Dict[VarId, Rational]]:
    """Nullspace basis of the determining system as parameter assignments.

    Deterministic given the unknown ordering; each assignment lists its
    unknowns in column order and is normalized so its first value is 1.
    """
    basis = nullspace(ds.rows, len(ds.unknowns))
    return [{ds.unknowns[c]: v for c, v in vec.items()} for vec in basis]


# -- verification mode --------------------------------------------------------


def find_gauge(L: Lagrangian, g: Generator, degree: int = 4,
               jet_order: Optional[int] = None) -> Optional[Tuple[Expr, ...]]:
    """Gauge term making the candidate a symmetry, or None if none exists.

    The gauge is a polynomial with no constant term.  On a time-like
    problem that makes it unique: the antiderivative of the candidate's
    residual, of whatever degree and jet order it has, so ``degree`` and
    ``jet_order`` are not read.  On a field problem it is sought of
    ``degree`` over the independents, dependents and (optionally)
    derivatives up to ``jet_order``; it is unique only up to a
    divergence-free field, and among the affine family of solutions the
    canonical one (free directions zeroed) is returned, so for instance
    the time-translation candidate of a free field gets the zero gauge
    rather than an arbitrary divergence-free one.
    """
    return find_gauges(L, [g], degree=degree, jet_order=jet_order)[0]


def verify_candidate(L: Lagrangian, g: Generator, degree: int = 4,
                     jet_order: Optional[int] = None
                     ) -> Optional[NoetherSolution]:
    """Full verification-mode pipeline for one candidate generator."""
    gauge = find_gauge(L, g, degree=degree, jet_order=jet_order)
    return None if gauge is None else NoetherSolution(g, gauge,
                                                      _law(L, g, gauge))


# -- helpers for working with solution spaces ---------------------------------


def match_generator(L: Lagrangian, solutions: Sequence[NoetherSolution],
                    target: Generator) -> Optional[NoetherSolution]:
    """The combination of basis solutions whose generator equals ``target``.

    Solves exactly for the weights; returns None when the target is outside
    the span.  Since the gauge is determined by the generator (additive
    constants are excluded from every ansatz), the matched solution is
    unique.
    """
    space = L.space

    def slots(g: Generator) -> List[Expr]:
        return ([g.eta_of(u) for u in space.dependents]
                + [g.xi_of(x) for x in space.independents])

    # Column k weighs solution k; the negated target is the constant.
    n = len(solutions)
    rows: Dict[Tuple[int, Monomial], Row] = {}
    for k, g in enumerate([*(sol.generator for sol in solutions), target]):
        for s, e in enumerate(slots(g)):
            for mono, coeff in e.term_map().items():
                rows.setdefault((s, mono), {})[k] = -coeff if k == n else coeff
    weights = solve_affine_many(list(rows.values()), n, 1)[0]
    if weights is None:
        return None
    # The weights reproduce the target exactly, slot by slot, so only the
    # gauge is summed; the law certifies the pair.
    gauge = tuple(Expr.zero() for _ in space.independents)
    for k, w in weights.items():
        gauge = tuple(f + h * w for f, h in zip(gauge, solutions[k].gauge))
    return NoetherSolution(target, gauge, _law(L, target, gauge))


# -- generators ---------------------------------------------------------------


def prolong_pde(g: Generator, target: VarId, space: JetSpace) -> Expr:
    """Extension coefficient of a generator at a jet coordinate.

    The general prolongation formula (Olver, Thm 2.36): D^mu Q_i plus
    sum_l xi_l * u_i,mu+l, where Q_i is the characteristic and (i, mu) the
    target.  Where some xi_l is nonzero this needs the jets one order above
    the target, so at the space's top order it raises ``HeadroomError``.
    """
    if target.kind not in (DEPENDENT, JET):
        raise ValueError(f"{target.name!r} is not a jet coordinate")
    i, multi = target.dep_index, target.multi_index
    result = multi_derivative(characteristics(g, space)[i], multi, space)
    for l, x in enumerate(space.independents):
        if x in g.xi:
            jet = Expr.variable(space.derivative(target, l))
            result = result + g.xi[x] * jet
    return result


def evolutionary_form(g: Generator, space: JetSpace) -> Generator:
    """Equivalent generator with zero independent-variable coefficients.

    The dependent coefficients become the characteristics
    eta_i - sum_j xi_j * u_i,j.  They add only first derivatives, which
    every jet space holds, so every generator has an evolutionary form.
    """
    qs = characteristics(g, space)
    return Generator(eta=dict(zip(space.dependents, qs)))
