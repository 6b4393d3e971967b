"""The Noether engine: invariance condition, determining equations,
first integrals, flux vectors, and verification.

The central object is the invariance residual of a candidate symmetry and
gauge term: the action of the prolonged generator on the Lagrangian, plus
the Lagrangian times the divergence of the independent-variable
coefficients, minus the divergence of the gauge term.  The candidate is a
symmetry exactly when this polynomial vanishes identically -- no equations
of motion are involved at that stage.  Conservation laws are then read off
by iterated integration by parts; their divergence reduces to zero modulo
the Euler-Lagrange equations, which the verifier checks independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .expr import (PARAMETER, Expr, Monomial, Rational, Record, VarId,
                   mono_key)
from .jets import (Generator, JetSpace, _characteristics, _peel, _prolong,
                   multi_derivative, total_derivative)
from .linalg import Row, nullspace, solve_affine, solve_affine_many
from .variational import (ELSystem, Lagrangian, ReductionError,
                          _hessian_matrix, euler_lagrange, reduce_mod_el)

# Most monomials one ansatz slot may hold: there are C(variables + degree,
# degree), and a large degree would exhaust time or memory.
MAX_SLOT_MONOMIALS = 10_000


class NonSymmetryError(ValueError):
    """Raised when asked to build a conservation law from a non-symmetry."""


class UnsupportedProblem(ValueError):
    """The determining equations are outside the solvable configurations."""


@dataclass(frozen=True)
class Ansatz:
    """Shape of the polynomial search space for symmetries and gauges.

    ``coeff_jet_order`` 0 searches point symmetries; raising it admits
    generalized symmetries whose coefficients depend on derivatives (never
    beyond the Lagrangian order).  ``gauge_jet_order`` defaults to one less
    than the Lagrangian order, or to the Lagrangian order when the search is
    restricted to evolutionary form (``suppress_xi``), where the gauge must
    absorb the derivative dependence the characteristics pick up.
    """

    coeff_degree: int = 4
    coeff_jet_order: int = 0
    gauge_degree: int = 4
    gauge_jet_order: Optional[int] = None
    include_gauge: bool = True
    suppress_xi: bool = False

    def __post_init__(self):
        if self.coeff_degree < 0:
            raise ValueError("ansatz degree must be non-negative")
        if self.gauge_degree < 0:
            raise ValueError("gauge degree must be non-negative")
        if self.coeff_jet_order < 0:
            raise ValueError("ansatz jet order must be non-negative")
        if self.gauge_jet_order is not None and self.gauge_jet_order < 0:
            raise ValueError("gauge jet order must be non-negative")

    def resolved_gauge_jet_order(self, L: Lagrangian) -> int:
        if self.gauge_jet_order is not None:
            return self.gauge_jet_order
        if not L.space.is_ode:
            return 0
        return L.order if self.suppress_xi else L.order - 1


class ConservationLaw(Record):
    """A first integral (one component) or a flux vector (one per independent)."""

    __slots__ = _fields = ("kind", "components")

    def __init__(self, kind: str, components: Tuple[Expr, ...]):
        self.kind = kind  # "first-integral" | "flux-vector"
        self.components = components

    def __iter__(self):
        return iter(self.components)


class NoetherSolution(Record):
    """A verified symmetry with its gauge term and conservation law."""

    __slots__ = _fields = ("generator", "gauge", "law")

    def __init__(self, generator: Generator, gauge: Tuple[Expr, ...],
                 law: ConservationLaw):
        self.generator = generator
        self.gauge = gauge
        self.law = law


class VerificationReport(Record):
    """Outcome of the divergence check.  ``ok`` is None when reduction is
    unavailable and only the raw residual can be reported."""

    __slots__ = _fields = ("ok", "residual")

    def __init__(self, ok: Optional[bool], residual: Expr):
        self.ok = ok
        self.residual = residual


@dataclass
class DeterminingSystem:
    """Homogeneous linear system over the ansatz parameters.

    ``unknowns`` are this system's own parameters ``c0``, ``c1``, ...: they
    order after every variable of the problem's ``JetSpace`` but are not
    registered in it, so they never clash with the problem's names.
    ``rows`` are sparse over positions in ``unknowns``.  The templates are
    linear in the parameters, one parameter per term, and are the one
    description of the ansatz: ``materialize`` reads a parameter assignment
    out of them as a generator and gauge, term by term.
    """

    unknowns: List[VarId]
    rows: List[Row]
    xi_templates: Dict[VarId, Expr]
    eta_templates: Dict[VarId, Expr]
    gauge_templates: Tuple[Expr, ...]


# -- the invariance condition ------------------------------------------------


def condition_residual(L: Lagrangian, g: Generator,
                       gauge: Sequence[Expr] | None = None) -> Expr:
    """Residual of the invariance condition for (generator, gauge).

    Zero exactly when the pair is a Noether symmetry.  The sign convention
    is (symmetry side) - (gauge divergence), so a pure scaling candidate on
    a quadratic Lagrangian leaves a positive residual.
    """
    space = L.space
    n = len(space.independents)
    if gauge is None:
        gauge = [Expr.zero()] * n
    if len(gauge) != n:
        raise ValueError(
            f"gauge term needs {n} component(s), got {len(gauge)}")
    residual = Expr.zero()
    div_xi = Expr.zero()
    for j, x in enumerate(space.independents):
        xi_j = g.xi_of(x)
        if not xi_j.is_zero:
            div_xi = div_xi + total_derivative(xi_j, x, space)
            residual = residual + xi_j * L.body.partial(x)
    if not div_xi.is_zero:
        residual = residual + L.body * div_xi
    memo: Dict[Tuple[int, Tuple[int, ...]], Expr] = {}
    for i, v, p in L.partials:
        residual = residual + _prolong(g, i, v.multi_index, space, memo) * p
    for j, x in enumerate(space.independents):
        f_j = gauge[j]
        if not f_j.is_zero:
            residual = residual - total_derivative(f_j, x, space)
    return residual


# -- conservation laws --------------------------------------------------------


def characteristics(L: Lagrangian, g: Generator) -> List[Expr]:
    """Q_i = eta_i - sum_j xi_j * u_i,j for each dependent variable."""
    return _characteristics(g, L.space)


def boundary_terms(L: Lagrangian, g: Generator) -> List[Expr]:
    """The per-direction boundary terms produced by integration by parts.

    Peeling total derivatives off D^mu(Q_i) * dL/du_mu one at a time (last
    independent variable first) accumulates one expression per independent
    variable; what remains after all peels is the characteristic times the
    Euler-Lagrange expression, which vanishes on shell.
    """
    space = L.space
    qs = characteristics(L, g)
    memos: List[Dict[Tuple[int, ...], Expr]] = [{} for _ in qs]
    b = [Expr.zero() for _ in space.independents]
    for i, v, p in L.partials:
        multi, cur = v.multi_index, p
        while any(multi):
            j, multi = _peel(multi)
            b[j] = b[j] + multi_derivative(qs[i], multi, space, memos[i]) * cur
            cur = -total_derivative(cur, space.independents[j], space)
    return b


def _law(L: Lagrangian, g: Generator, F: Sequence[Expr],
         kind: str) -> ConservationLaw:
    """Components F_j - [xi_j L + boundary terms_j] of a checked symmetry."""
    residual = condition_residual(L, g, F)
    if not residual.is_zero:
        raise NonSymmetryError(
            f"candidate is not a Noether symmetry; residual {residual}")
    b = boundary_terms(L, g)
    # Grouped as F_j - (xi_j L + b_j): the term order of each component
    # fixes the summation order of the numeric checks.
    return ConservationLaw(kind, tuple(
        f - (g.xi_of(x) * L.body + b_j)
        for f, x, b_j in zip(F, L.space.independents, b)))


def first_integral(L: Lagrangian, g: Generator, f: Expr) -> ConservationLaw:
    """The first integral of a verified symmetry of a time-like problem.

    Convention: I = f - [tau L + boundary terms], so for the free particle
    the translation symmetry in the dependent variable yields minus the
    velocity.
    """
    if not L.space.is_ode:
        raise ValueError("first_integral applies to single-independent problems")
    return _law(L, g, [f], "first-integral")


def conservation_vector(L: Lagrangian, g: Generator,
                        F: Sequence[Expr]) -> ConservationLaw:
    """The flux vector of a verified symmetry of a multi-independent problem.

    Component j is F_j - [xi_j L + boundary terms_j]; the divergence of the
    result is checked to reduce to zero before returning.
    """
    if L.space.is_ode:
        raise ValueError("conservation_vector applies to PDE problems")
    law = _law(L, g, F, "flux-vector")
    report = verify(law, euler_lagrange(L), L.space)
    if report.ok is False:
        raise AssertionError(
            f"internal error: synthesized law fails verification: {report.residual}")
    return law


def verify(law: ConservationLaw, el: ELSystem, space: JetSpace) -> VerificationReport:
    """Divergence of the law, reduced modulo the equations of motion."""
    div = Expr.zero()
    for j, x in enumerate(space.independents):
        div = div + total_derivative(law.components[j], x, space)
    try:
        residual = reduce_mod_el(div, el, space)
    except ReductionError:
        return VerificationReport(ok=None, residual=div)
    return VerificationReport(ok=residual.is_zero, residual=residual)


def hessian_relation_check(L: Lagrangian, g: Generator, integral: Expr) -> bool:
    """Whether the integral's velocity gradient matches the symmetry.

    For a first-order time-like Lagrangian and a symmetry of derivative
    dependence at most one, dI/dv_j must equal
    -(eta_i - v_i tau) d2L/dv_i dv_j for every j.
    """
    space = L.space
    if g.dependence_order > 1:
        raise ValueError("hessian relation requires derivative dependence <= 1")
    qs = characteristics(L, g)
    matrix = _hessian_matrix(L)   # raises unless L is first-order time-like
    for j in range(len(space.dependents)):
        rhs = Expr.zero()
        for q_i, row in zip(qs, matrix):
            rhs = rhs - q_i * row[j]
        if integral.partial(space.jet(j, (1,))) != rhs:
            return False
    return True


# -- determining equations ----------------------------------------------------


def _monomials_upto(space: JetSpace, jet_order: int, degree: int,
                    include_constant: bool = True) -> List[Monomial]:
    """All monomials of total degree <= degree, ascending, over the
    independents and the jets up to ``jet_order``.

    Raises ValueError, before building any, for a negative degree or when
    there would be more than ``MAX_SLOT_MONOMIALS``.
    """
    if degree < 0:
        raise ValueError(f"ansatz degree {degree} must be non-negative")
    vars = list(space.independents) + space.jet_vars(max_order=jet_order)
    count = math.comb(len(vars) + degree, degree) - (not include_constant)
    if count > MAX_SLOT_MONOMIALS:
        raise ValueError(
            f"ansatz degree {degree} over {len(vars)} variables needs "
            f"{count} monomials per slot; the bound is {MAX_SLOT_MONOMIALS}")
    # ``vars`` ascend by sort index, and so does each combination.
    monos = [tuple((v, combo.count(v)) for v in dict.fromkeys(combo))
             for d in range(0 if include_constant else 1, degree + 1)
             for combo in itertools.combinations_with_replacement(vars, d)]
    monos.sort(key=mono_key)
    return monos


def _unknown(space: JetSpace, k: int) -> VarId:
    """Unknown k of one linear system.

    It orders after every variable of the space and is never registered
    there, so it cannot clash with a problem's own names; each system makes
    its own and never mixes them with another's.
    """
    return VarId(PARAMETER, f"c{k}", space.variable_count + k)


def _ansatz_polynomial(space: JetSpace, monos: Sequence[Monomial],
                       unknowns: List[VarId]) -> Expr:
    """A fresh linear combination of monomials with new parameters, each
    the last factor of its term."""
    new = [_unknown(space, len(unknowns) + k) for k in range(len(monos))]
    unknowns += new
    return Expr({mono + ((c, 1),): 1 for mono, c in zip(monos, new)})


def _affine_system(e: Expr, unknowns: Sequence[VarId]
                   ) -> Dict[Monomial, Tuple[Row, Rational]]:
    """The equation e = 0, for e affine in ``unknowns``, as sparse rows.

    Maps each monomial in the other variables, ascending by ``mono_key``,
    to (row, rhs): the row holds the monomial's coefficient of each unknown
    by column, and rhs is minus its unknown-free coefficient.
    """
    index = {c: k for k, c in enumerate(unknowns)}
    rows: Dict[Monomial, Row] = {}
    rhs: Dict[Monomial, Rational] = {}
    for mono, coeff in e.term_map().items():
        # Unknowns order after every variable of the space, so a term's
        # unknown, if any, is its last factor.
        if not mono or mono[-1][0] not in index:
            rows.setdefault(mono, {})
            rhs[mono] = -coeff
        elif mono[-1][1] == 1 and (len(mono) == 1
                                   or mono[-2][0] not in index):
            rows.setdefault(mono[:-1], {})[index[mono[-1][0]]] = coeff
        else:
            raise AssertionError(
                "internal error: expression is not affine in the unknowns")
    return {m: (rows[m], rhs.get(m, 0))
            for m in sorted(rows, key=mono_key)}


def _fill(template: Expr, values: Dict[VarId, Rational]) -> Expr:
    """A template at the unknowns' values; a missing unknown is zero.

    Every template term is one monomial times one unknown, which orders
    after every variable of the space and so is the term's last factor.
    """
    return Expr({mono[:-1]: coeff * values[mono[-1][0]]
                 for mono, coeff in template.term_map().items()
                 if values.get(mono[-1][0])})


def _check_solving_supported(L: Lagrangian):
    space = L.space
    if space.is_ode:
        return
    if len(space.independents) == 2 and len(space.dependents) == 1 \
            and L.order == 1:
        return
    raise UnsupportedProblem(
        "determining equations are solved for time-like problems of any "
        "order and for first-order problems in two independent and one "
        "dependent variable; use verification mode otherwise")


def determining_system(L: Lagrangian, ansatz: Ansatz) -> DeterminingSystem:
    """Instantiate the ansatz and collect the invariance condition.

    Every coefficient of the residual with respect to monomials in the
    non-parameter variables must vanish; each such coefficient is one
    homogeneous linear row over the fresh parameters.  Constant gauge
    monomials are never instantiated: they cannot influence the condition
    and would only add trivial additive-constant directions.
    """
    _check_solving_supported(L)
    space = L.space
    if ansatz.coeff_jet_order > L.order:
        raise ValueError(
            "coefficient jet order above the Lagrangian order is not "
            "meaningful once the equations of motion constrain the system")
    coeff_monos = _monomials_upto(space, ansatz.coeff_jet_order,
                                  ansatz.coeff_degree)
    gauge_monos = _monomials_upto(space, ansatz.resolved_gauge_jet_order(L),
                                  ansatz.gauge_degree, include_constant=False)

    unknowns: List[VarId] = []
    xi_templates: Dict[VarId, Expr] = {}
    eta_templates: Dict[VarId, Expr] = {}
    if not ansatz.suppress_xi:
        for x in space.independents:
            xi_templates[x] = _ansatz_polynomial(space, coeff_monos, unknowns)
    for u in space.dependents:
        eta_templates[u] = _ansatz_polynomial(space, coeff_monos, unknowns)
    gauge_templates = tuple(
        _ansatz_polynomial(space, gauge_monos, unknowns)
        if ansatz.include_gauge else Expr.zero()
        for _ in space.independents)

    g = Generator(xi=xi_templates, eta=eta_templates)
    residual = condition_residual(L, g, gauge_templates)
    rows = []
    for row, rhs in _affine_system(residual, unknowns).values():
        if rhs:
            raise AssertionError(
                "internal error: determining system is not homogeneous")
        rows.append(row)
    return DeterminingSystem(unknowns=unknowns, rows=rows,
                             xi_templates=xi_templates,
                             eta_templates=eta_templates,
                             gauge_templates=gauge_templates)


def solve(ds: DeterminingSystem) -> List[Dict[VarId, Rational]]:
    """Nullspace basis of the determining system as parameter assignments.

    Deterministic given the unknown ordering; each assignment lists its
    unknowns in column order and is normalized so its first value is 1.
    """
    basis = nullspace(ds.rows, len(ds.unknowns))
    return [{ds.unknowns[c]: v for c, v in vec.items()} for vec in basis]


def materialize(L: Lagrangian, ds: DeterminingSystem,
                assignments: Sequence[Dict[VarId, Rational]]
                ) -> List[NoetherSolution]:
    """Read parameter assignments out of the templates and build their laws.

    Each assignment becomes its generator and gauge by one multiply per
    template term whose parameter it sets.  Directions
    with an identically zero generator are dropped before a law is built:
    they are divergence-free gauge fields (possible for flux-vector gauges)
    carrying no symmetry content.  The law builders re-check the invariance
    condition exactly, so the solver's word is not taken.
    """
    xs, us = list(ds.xi_templates), list(ds.eta_templates)
    slots = [*ds.xi_templates.values(), *ds.eta_templates.values(),
             *ds.gauge_templates]
    out = []
    for a in assignments:
        values = [_fill(t, a) for t in slots]
        g = Generator(
            xi={x: e for x, e in zip(xs, values) if not e.is_zero},
            eta={u: e for u, e in zip(us, values[len(xs):]) if not e.is_zero})
        if not g.is_zero:
            out.append(_solution(L, g, tuple(values[len(xs) + len(us):])))
    return out


def _solution(L: Lagrangian, g: Generator,
              gauge: Tuple[Expr, ...]) -> NoetherSolution:
    """The solution with its law; NonSymmetryError unless it is a symmetry."""
    if L.space.is_ode:
        law = first_integral(L, g, gauge[0])
    else:
        law = conservation_vector(L, g, gauge)
    return NoetherSolution(generator=g, gauge=gauge, law=law)


def solve_noether(L: Lagrangian, ansatz: Ansatz) -> List[NoetherSolution]:
    """End to end: determining system, nullspace, verified solutions."""
    ds = determining_system(L, ansatz)
    return materialize(L, ds, solve(ds))


# -- verification mode --------------------------------------------------------


def find_gauge(L: Lagrangian, g: Generator, degree: int = 4,
               jet_order: Optional[int] = None) -> Optional[Tuple[Expr, ...]]:
    """Gauge term making the candidate a symmetry, or None if none exists.

    The gauge is sought as a polynomial over the independents, dependents
    and (optionally) derivatives up to ``jet_order``.  Among the affine
    family of solutions the canonical one (free directions zeroed) is
    returned, so for instance the time-translation candidate of a free field
    gets the zero gauge rather than an arbitrary divergence-free one.
    """
    return find_gauges(L, [g], degree=degree, jet_order=jet_order)[0]


def find_gauges(L: Lagrangian, generators: Sequence[Generator],
                degree: int = 4, jet_order: Optional[int] = None
                ) -> List[Optional[Tuple[Expr, ...]]]:
    """``find_gauge`` for each generator, sharing the work between them.

    The invariance residual is the candidate's residual with zero gauge
    minus the divergence of the gauge, and only the first part depends on
    the candidate.  So the candidates are grouped by gauge jet order (by
    default the Lagrangian order less one, raised to a time-like
    candidate's own derivative dependence), and each group builds its
    gauge templates and their divergence once and eliminates them once,
    with one right-hand side per candidate.
    """
    space = L.space
    groups: Dict[int, List[int]] = {}
    for k, g in enumerate(generators):
        order = jet_order
        if order is None:
            order = (max(L.order - 1, g.dependence_order)
                     if space.is_ode else 0)
        groups.setdefault(order, []).append(k)
    gauges: List[Optional[Tuple[Expr, ...]]] = [None] * len(generators)
    for order, members in groups.items():
        monos = _monomials_upto(space, order, degree, include_constant=False)
        unknowns: List[VarId] = []
        templates = [_ansatz_polynomial(space, monos, unknowns)
                     for _ in space.independents]
        divergence = condition_residual(L, Generator(), templates)
        system = {mono: (row, {})
                  for mono, (row, _) in _affine_system(divergence,
                                                       unknowns).items()}
        del divergence   # only its rows are used; keeping it raises the peak
        for k, member in enumerate(members):
            residual = condition_residual(L, generators[member])
            for mono, (_, b) in _affine_system(residual, ()).items():
                system.setdefault(mono, ({}, {}))[1][k] = b
        solutions = solve_affine_many(list(system.values()), len(unknowns),
                                      len(members))
        for member, solution in zip(members, solutions):
            if solution is not None:
                values = dict(zip(unknowns, solution))
                gauges[member] = tuple(_fill(t, values) for t in templates)
    return gauges


def verify_candidate(L: Lagrangian, g: Generator, degree: int = 4,
                     jet_order: Optional[int] = None
                     ) -> Optional[NoetherSolution]:
    """Full verification-mode pipeline for one candidate generator."""
    gauge = find_gauge(L, g, degree=degree, jet_order=jet_order)
    if gauge is None:
        return None
    return _solution(L, g, gauge)


# -- helpers for working with solution spaces ---------------------------------


def combine_solutions(L: Lagrangian, solutions: Sequence[NoetherSolution],
                      weights: Sequence[Rational]) -> NoetherSolution:
    """Rational linear combination of solutions (the set is a vector space)."""
    space = L.space
    xi: Dict[VarId, Expr] = {}
    eta: Dict[VarId, Expr] = {}
    gauge = [Expr.zero() for _ in space.independents]
    for sol, w in zip(solutions, weights):
        for x, e in sol.generator.xi.items():
            xi[x] = xi.get(x, Expr.zero()) + e * w
        for u, e in sol.generator.eta.items():
            eta[u] = eta.get(u, Expr.zero()) + e * w
        for j in range(len(space.independents)):
            gauge[j] = gauge[j] + sol.gauge[j] * w
    g = Generator(xi={x: e for x, e in xi.items() if not e.is_zero},
                  eta={u: e for u, e in eta.items() if not e.is_zero})
    return _solution(L, g, tuple(gauge))


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

    unknowns = [_unknown(space, k) for k in range(len(solutions))]
    parts = [slots(sol.generator) for sol in solutions]
    system: List[Tuple[Row, Rational]] = []
    for s, goal in enumerate(slots(target)):
        e = -goal
        for c, part in zip(unknowns, parts):
            e = e + Expr.variable(c) * part[s]
        system += _affine_system(e, unknowns).values()
    weights = solve_affine(system, len(solutions))
    if weights is None:
        return None
    return combine_solutions(L, solutions, weights)
