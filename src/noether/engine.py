"""The Noether engine: invariance condition, determining equations,
first integrals, flux vectors, and verification.

The central object is the invariance residual of a candidate symmetry and
gauge term: the action of the prolonged generator on the Lagrangian, plus
the Lagrangian times the divergence of the independent-variable
coefficients, minus the divergence of the gauge term.  The candidate is a
symmetry exactly when this polynomial vanishes identically -- no equations
of motion are involved at that stage.  Conservation laws are then read off
by iterated integration by parts, and each is accepted only when Noether's
identity Div P = Q.E(L) holds off shell.  That identity is the whole
certificate of a law built from a symmetry, so it needs no solved forms;
``verify`` reduces a divergence modulo the Euler-Lagrange equations only
for a law given without its symmetry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .expr import (Expr, Monomial, Rational, Record, VarId, mono_degree,
                   mono_key, mono_mul, rational_div)
from .jets import (Generator, JetSpace, _peel, characteristics,
                   multi_derivative, total_derivative)
from .linalg import Row, nullspace, solve_affine_many
from .variational import (ELSystem, Lagrangian, ReductionError,
                          euler_lagrange, reduce_mod_el)

# Most monomials one ansatz slot may hold: there are C(variables + degree,
# degree), and a large degree would exhaust time or memory.
MAX_SLOT_MONOMIALS = 10_000


class NonSymmetryError(ValueError):
    """Raised when asked to build a conservation law from a non-symmetry."""


@dataclass(frozen=True)
class Ansatz:
    """Shape of the polynomial search space for symmetries and gauges.

    ``coeff_jet_order`` 0 searches point symmetries; raising it admits
    generalized symmetries whose coefficients depend on derivatives (never
    beyond the Lagrangian order).  The ``verify`` command reads only the
    two gauge fields, and only on a field problem: a time-like gauge is
    integrated, so its degree and jet order are its own.  An unset
    ``gauge_jet_order`` is 0 for field problems; on a time-like one it is
    the Lagrangian order in evolutionary form (``suppress_xi``), where the
    gauge must absorb the derivative dependence the characteristics pick
    up, and one less than the Lagrangian order otherwise.
    """

    coeff_degree: int = 4
    coeff_jet_order: int = 0
    gauge_degree: int = 4
    gauge_jet_order: Optional[int] = None
    include_gauge: bool = True
    suppress_xi: bool = False

    def __post_init__(self):
        for label, value in (("ansatz degree", self.coeff_degree),
                             ("gauge degree", self.gauge_degree),
                             ("ansatz jet order", self.coeff_jet_order),
                             ("gauge jet order", self.gauge_jet_order or 0)):
            if value < 0:
                raise ValueError(f"{label} must be non-negative")

    def resolved_gauge_jet_order(self, L: Lagrangian) -> int:
        if self.gauge_jet_order is not None:
            return self.gauge_jet_order
        if not L.space.is_ode:
            return 0
        return L.order if self.suppress_xi else L.order - 1


class ConservationLaw(Record):
    """A first integral (one component) or a flux vector (one per independent)."""

    __slots__ = _fields = ("components",)

    def __init__(self, components: Tuple[Expr, ...]):
        self.components = components


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


# -- the invariance condition ------------------------------------------------


def condition_residual(L: Lagrangian, g: Generator,
                       gauge: Sequence[Expr] | None = None) -> Expr:
    """Residual of the invariance condition for (generator, gauge).

    Zero exactly when the pair is a Noether symmetry.  The sign convention
    is (symmetry side) - (gauge divergence), so a pure scaling candidate on
    a quadratic Lagrangian leaves a positive residual.  By the general
    prolongation formula (``prolong_pde``) it is the sum of D^mu(Q_i) *
    dL/du_i,mu over the Lagrangian's partials plus the sum over j of
    D_j(xi_j L - F_j), Q_i the characteristics.  ``find_gauges`` takes
    it with zero gauge: it integrates it on a time-like problem, and
    packs it as each candidate's constant column on a field problem.
    Neither the determining system (``_assemble``) nor a law (``_law``)
    is built through it: a law is accepted by Noether's identity, which
    equals this polynomial.
    """
    space = L.space
    gauge = _gauge(space, gauge)
    qs = characteristics(g, space)
    residual = Expr.zero()
    for i, v, p in L.partials:
        residual = residual + multi_derivative(qs[i], v.multi_index, space) * p
    for j, x in enumerate(space.independents):
        flux = g.xi_of(x) * L.body - gauge[j]
        residual = residual + total_derivative(flux, x, space)
    return residual


def _gauge(space: JetSpace, gauge: Sequence[Expr] | None) -> Sequence[Expr]:
    """The gauge's components, zero when it is None; ValueError unless
    there is one per independent."""
    n = len(space.independents)
    gauge = [Expr.zero()] * n if gauge is None else gauge
    if len(gauge) != n:
        raise ValueError(
            f"gauge term needs {n} component(s), got {len(gauge)}")
    return gauge


# -- conservation laws --------------------------------------------------------


def _boundary_terms(L: Lagrangian, qs: Sequence[Expr]) -> List[Expr]:
    """``boundary_terms`` of the generator whose characteristics are qs."""
    space = L.space
    b = [Expr.zero() for _ in space.independents]
    for i, v, p in L.partials:
        multi, cur = v.multi_index, p
        while any(multi):
            j, multi = _peel(multi)
            b[j] = b[j] + multi_derivative(qs[i], multi, space) * cur
            if any(multi):
                cur = -total_derivative(cur, space.independents[j], space)
    return b


def _law(L: Lagrangian, g: Generator, F: Sequence[Expr]) -> ConservationLaw:
    """Components P_j = F_j - (xi_j L + b_j), b the boundary terms, of a
    symmetry certified by Noether's identity: NonSymmetryError unless
    ``_noether_residual`` of them is the zero polynomial.  The boundary
    terms telescope, so that residual is ``condition_residual(L, g, F)``
    term for term, but it is computed from the law itself, and off shell,
    so it certifies the law on shell too.

    Both are computed on k*g and k*F, k the lcm of the coefficient
    denominators of g and F (L is never scaled, so its denominators do not
    count), and each component (or the residual of the error message) is
    divided by k once at the end.  Every step is linear in (g, F), so each
    intermediate is k times the unscaled one, with the same terms in the
    same order, and the law keeps its values, coefficient types and term
    order; but most products are of ints, not Fractions.
    """
    space = L.space
    F = _gauge(space, F)
    k = math.lcm(*(c.denominator
                   for e in (*g.xi.values(), *g.eta.values(), *F)
                   for c in e.term_map().values()))
    g = Generator(xi={x: _times(e, k) for x, e in g.xi.items()},
                  eta={u: _times(e, k) for u, e in g.eta.items()})
    qs = characteristics(g, space)
    b = _boundary_terms(L, qs)
    # Grouped as F_j - (xi_j L + b_j): the term order of each component
    # fixes the summation order of the numeric checks.
    P = tuple(_times(f, k) - (g.xi_of(x) * L.body + b_j)
              for f, x, b_j in zip(F, space.independents, b))
    residual = _noether_residual(L, qs, P)
    if not residual.is_zero:
        raise NonSymmetryError(
            f"candidate is not a Noether symmetry; residual {residual / k}")
    return ConservationLaw(tuple(p / k for p in P))


def _times(e: Expr, k: int) -> Expr:
    """e * k, k a multiple of every coefficient denominator of e, with
    int arithmetic only: n/d times k is n * (k // d)."""
    return Expr({m: c.numerator * (k // c.denominator)
                 for m, c in e.term_map().items()})


def _noether_residual(L: Lagrangian, qs: Sequence[Expr],
                      P: Sequence[Expr]) -> Expr:
    """Q.E(L) - sum_j D_j P_j, with Q = qs the characteristics of a
    generator and E(L) the raw Euler-Lagrange expressions, read from
    ``euler_lagrange(L).raw`` before any canonical form.  It is zero
    exactly when P meets Noether's identity Div P = Q.E(L) (Olver,
    *Applications of Lie Groups to Differential Equations*, Thm 4.29), and
    then P is conserved on shell."""
    residual = Expr.zero()
    for q, e in zip(qs, euler_lagrange(L).raw):
        residual = residual + q * e
    return residual - _divergence(P, L.space)


def _divergence(P: Sequence[Expr], space: JetSpace) -> Expr:
    """Div P = sum_j D_j P_j."""
    div = Expr.zero()
    for p, x in zip(P, space.independents):
        div = div + total_derivative(p, x, space)
    return div


def verify(law: ConservationLaw, el: ELSystem, space: JetSpace) -> VerificationReport:
    """Divergence of the law, reduced modulo the equations of motion."""
    div = _divergence(law.components, space)
    try:
        residual = reduce_mod_el(div, el, space)
    except ReductionError:
        return VerificationReport(ok=None, residual=div)
    return VerificationReport(ok=residual.is_zero, residual=residual)


# -- determining equations ----------------------------------------------------


class _Packing:
    """The monomials of one linear system, each packed into one int: the
    total degree in the top field, then one field per variable in
    registration order, so integer order is ``mono_key`` order and a
    product is a sum.  No monomial of the system exceeds the Lagrangian's
    degree plus ``degree``, that of a slot or right-hand side, and a field
    holds one more."""

    __slots__ = ("space", "vars", "width", "top", "unit")

    def __init__(self, L: Lagrangian, degree: int):
        self.space = space = L.space
        self.vars = vars = [*space.independents, *space.jet_vars()]
        most = max(map(mono_degree, L.body.term_map())) + degree
        self.width = width = (most + 1).bit_length()
        self.top = 1 << width * len(vars)
        self.unit = {v: self.top | 1 << width * (len(vars) - 1 - s)
                     for s, v in enumerate(vars)}

    def pack(self, terms: Dict[Monomial, Rational]) -> Dict[int, Rational]:
        return {sum(self.unit[v] * e for v, e in m): c
                for m, c in terms.items()}

    def factors(self, p: int) -> Monomial:
        """The monomial that p packs: each variable with its exponent, in
        registration order, read from the highest field down."""
        rest, width, out = p & self.top - 1, self.width, []
        while rest:
            f = (rest.bit_length() - 1) // width
            e = rest >> width * f
            rest -= e << width * f
            out.append((self.vars[len(self.vars) - 1 - f], e))
        return tuple(out)

    def monomials(self, jet_order: int, degree: int,
                  include_constant: bool = True) -> List[int]:
        """A slot's monomials of total degree <= degree over the
        independents and the jets up to ``jet_order``, ascending;
        ValueError for a negative degree or for more than
        ``MAX_SLOT_MONOMIALS`` monomials, counted as C(variables + degree,
        degree), less the constant unless it is included."""
        if degree < 0:
            raise ValueError(f"ansatz degree {degree} must be non-negative")
        vars = [*self.space.independents,
                *self.space.jet_vars(max_order=jet_order)]
        count = math.comb(len(vars) + degree, degree) - (not include_constant)
        if count > MAX_SLOT_MONOMIALS:
            raise ValueError(
                f"ansatz degree {degree} over {len(vars)} variables needs "
                f"{count} monomials per slot; the bound is "
                f"{MAX_SLOT_MONOMIALS}")
        units = [self.unit[v] for v in vars]
        lowest = 0 if include_constant else 1
        return sorted(sum(c) for d in range(lowest, degree + 1)
                      for c in itertools.combinations_with_replacement(units, d))


def _assemble(L: Lagrangian, packing: _Packing,
              slots: Sequence[Tuple[str, int, List[int]]],
              constants: Sequence[Dict[Monomial, Rational]] = ()
              ) -> Tuple[List[Row], List[Tuple[int, int]], int]:
    """Rows of the invariance residual times a scale, by packed monomial,
    ascending, built column by column, each column's (slot, packed
    monomial), and the scale.  Column k is the residual of the k-th packed
    monomial m over the slots, ("xi" | "gauge", independent, monomials) or
    ("eta", dependent, monomials): the sum over nu of D^nu(m), memoised for
    every slot, times the slot's factors: dL/du_i,mu for eta_i; -1 at nu =
    e_j for gauge j; for xi_j, dL/dx_j, L and the characteristic form's
    D^mu(-m*u_i,j) + m*u_i,mu+j, expanded by Leibniz so that its nu = 0
    term cancels.  Past the n columns, constant k, a residual's term map,
    is column n + k.  The rows are sorted once, constants included, since
    row order changes no solve.
    """
    space, n = L.space, len(L.space.independents)
    unit = packing.unit
    # By variable, what D_j adds to a packed monomial per factor, None if
    # it is zero; a jet's is found at its first use, so a D_j past the
    # working order raises ``space.derivative``'s HeadroomError only then.
    shifts: List[Dict[VarId, Optional[int]]] = [
        {x: -unit[x] if x is y else None for x in space.independents}
        for y in space.independents]
    memo: Dict[Tuple[int, Tuple[int, ...]], Dict[int, int]] = {}

    def D(p: int, multi: Tuple[int, ...]) -> Dict[int, int]:
        """D^multi of the packed monomial p, through the space's jets; its
        coefficients are positive, so none cancels."""
        if not any(multi):
            return {p: 1}
        if (p, multi) not in memo:
            memo[p, multi] = out = {}
            j, lower = _peel(multi)
            shift = shifts[j]
            for q, c in D(p, lower).items():
                for v, e in packing.factors(q):
                    s = shift.get(v, v)
                    if s is v:
                        s = shift[v] = unit[space.derivative(v, j)] - unit[v]
                    if s is not None:
                        out[q + s] = out.get(q + s, 0) + c * e
        return memo[p, multi]

    factors_by_slot = []
    for kind, j, monos in slots:
        e_j = tuple(int(a == j) for a in range(n))   # for xi_j and gauge j
        if kind == "gauge":
            factors = {e_j: Expr.constant(-1)}
        elif kind == "eta":
            factors = {v.multi_index: dl for i, v, dl in L.partials if i == j}
        else:
            factors = {(0,) * n: L.body.partial(space.independents[j]),
                       e_j: L.body}
            for i, v, dl in L.partials:
                mu = v.multi_index
                for nu in itertools.product(*(range(a + 1) for a in mu)):
                    if any(nu):   # C(mu, nu) D^nu(m) u_i,mu-nu+j, negated
                        u = Expr.variable(space.jet(i, tuple(
                            a - b + c for a, b, c in zip(mu, nu, e_j))))
                        factors[nu] = factors.get(nu, Expr.zero()) - \
                            u * dl * math.prod(map(math.comb, mu, nu))
        factors_by_slot.append(factors)
    # One scale makes every slot's columns ints: Fraction arithmetic would
    # dominate the loop, and a uniform scale changes no solution.
    scale = math.lcm(*(c.denominator for factors in factors_by_slot
                       for f in factors.values()
                       for c in f.term_map().values()))
    rows: Dict[int, Row] = {}
    k = 0
    for (*_, monos), factors in zip(slots, factors_by_slot):
        scaled = [(nu, list(packing.pack((f * scale).term_map()).items()))
                  for nu, f in factors.items()]
        for p in monos:
            col: Dict[int, int] = {}
            for nu, f in scaled:
                for a, c in D(p, nu).items():
                    for b, d in f:
                        col[a + b] = col.get(a + b, 0) + c * d
            for key, c in col.items():
                if c:
                    rows.setdefault(key, {})[k] = c
            k += 1
    for i, terms in enumerate(constants):
        for key, c in packing.pack(terms).items():
            rows.setdefault(key, {})[k + i] = c * scale
    return [rows[key] for key in sorted(rows)], [
        (s, p) for s, (*_, monos) in enumerate(slots) for p in monos], scale


def _slot_values(vec: Row, columns: Sequence[Tuple[int, int]],
                 packing: _Packing, n_slots: int) -> List[Expr]:
    """Each slot's polynomial at a sparse solution: column c is the
    coefficient of packed monomial ``columns[c][1]`` in slot
    ``columns[c][0]``.  A solution's entries ascend by column, so each
    slot's terms ascend by ``mono_key``, and only its nonzero entries are
    visited and unpacked."""
    terms: List[Dict[Monomial, Rational]] = [{} for _ in range(n_slots)]
    for c, v in vec.items():
        s, p = columns[c]
        terms[s][packing.factors(p)] = v
    return [Expr(t) for t in terms]


def _system(L: Lagrangian, ansatz: Ansatz
            ) -> Tuple[List[Row], List[Tuple[int, int]], int,
                       Sequence[VarId], int, _Packing]:
    """The determining system's rows, ints ascending by ``mono_key``, its
    column map, their scale, the independents with a xi slot, the number
    of slots (xi, then one eta per dependent and one gauge per
    independent) and the packing of its monomials.  Constant gauge
    monomials, which would only add additive-constant directions, are
    never instantiated.  With ``include_gauge`` off the gauge slots have
    degree 0, so no monomials: ``gauge_degree`` is then neither
    enumerated, bounded nor packed for.
    """
    space = L.space
    if ansatz.coeff_jet_order > L.order:
        raise ValueError(
            "coefficient jet order above the Lagrangian order is not "
            "meaningful once the equations of motion constrain the system")
    gauge_degree = ansatz.gauge_degree if ansatz.include_gauge else 0
    packing = _Packing(L, max(ansatz.coeff_degree, gauge_degree))
    coeff = packing.monomials(ansatz.coeff_jet_order, ansatz.coeff_degree)
    gauge = packing.monomials(ansatz.resolved_gauge_jet_order(L),
                              gauge_degree, include_constant=False)
    xs = () if ansatz.suppress_xi else space.independents
    slots = ([("xi", j, coeff) for j in range(len(xs))]
             + [("eta", i, coeff) for i in range(len(space.dependents))]
             + [("gauge", j, gauge) for j in range(len(space.independents))])
    return (*_assemble(L, packing, slots), xs, len(slots), packing)


def solve_noether(L: Lagrangian, ansatz: Ansatz) -> List[NoetherSolution]:
    """End to end: determining system, nullspace, verified solutions.

    Each nullspace vector is read from its columns into a generator and
    gauge.  Directions with a zero generator, divergence-free gauge fields
    with no symmetry content, are dropped before a law is built.  Each law
    is certified by Noether's identity, exactly."""
    rows, columns, _, xs, n_slots, packing = _system(L, ansatz)
    us = L.space.dependents
    out = []
    for vec in nullspace(rows, len(columns)):
        values = _slot_values(vec, columns, packing, n_slots)
        g = Generator(xi=dict(zip(xs, values)),
                      eta=dict(zip(us, values[len(xs):])))
        if not g.is_zero:
            gauge = tuple(values[len(xs) + len(us):])
            out.append(NoetherSolution(g, gauge, _law(L, g, gauge)))
    return out


# -- verification mode --------------------------------------------------------


def find_gauges(L: Lagrangian, generators: Sequence[Generator],
                degree: int = 4, jet_order: Optional[int] = None
                ) -> List[Optional[Tuple[Expr, ...]]]:
    """``find_gauge`` for each generator.

    The invariance residual is the candidate's residual R with zero gauge
    minus the divergence of the gauge.  On a time-like problem the gauge
    is then the antiderivative of R, integrated exactly by
    ``_antiderivative``; ``degree`` and ``jet_order`` cap only a field
    problem's gauge.  There the gauge columns, of ``degree`` over the jets
    up to ``jet_order`` (0 when None), are assembled once and eliminated
    once, with one constant column per candidate: its residual, packed
    like the columns.  A residual's degree is at most the Lagrangian's
    plus its generator's, so the packing is sized, and an over-bound
    degree refused, before any residual is computed.
    """
    space = L.space
    if space.is_ode:
        return [_antiderivative(L, g) for g in generators]
    if not generators:
        return []
    n = len(space.independents)
    packing = _Packing(L, max([degree, *(
        mono_degree(m) for g in generators
        for e in (*g.xi.values(), *g.eta.values()) for m in e.term_map())]))
    monos = packing.monomials(jet_order or 0, degree, include_constant=False)
    residuals = [condition_residual(L, g).term_map() for g in generators]
    rows, columns, _ = _assemble(
        L, packing, [("gauge", j, monos) for j in range(n)], residuals)
    return [None if sol is None else tuple(
        _slot_values(sol, columns, packing, n))
        for sol in solve_affine_many(rows, len(columns), len(generators))]


def _antiderivative(L: Lagrangian, g: Generator) -> Optional[Tuple[Expr]]:
    """The gauge (F,) of a time-like candidate, D_t F = R with R its
    residual with zero gauge, or None when R is no total derivative.  F
    has no constant term, so it is the one such gauge, and its degree and
    jet order are the integration's to find: no cap applies.

    R is integrated order by order, top jet first.  At order k, for each
    dependent u in turn, the coefficient A of u^(k) in R must be free of
    jets of order k and up; G, A integrated in u^(k-1), joins F, and D_t G
    leaves R.  One sweep must clear order k: repeating it could cycle, as
    on u'*v + 2*u*v'.  What is left is integrated in t, and D_t F = R
    certifies F.  No step goes past R's jet order.
    """
    space = L.space
    t = space.independents[0]
    residual = R = condition_residual(L, g)
    F = Expr.zero()
    for k in range(R.max_jet_order(), 0, -1):
        for i in range(len(space.dependents)):
            A = residual.partial(space.jet(i, (k,)))
            if A.max_jet_order() >= k:
                return None
            G = _integral(A, space.jet(i, (k - 1,)))
            F = F + G
            residual = residual - total_derivative(G, t, space)
        if residual.max_jet_order() >= k:
            return None
    F = F + _integral(residual, t)
    if total_derivative(F, t, space) != R:
        return None
    terms = F.term_map()
    return (Expr({m: terms[m] for m in sorted(terms, key=mono_key)}),)


def _integral(e: Expr, v: VarId) -> Expr:
    """The antiderivative of e in v whose every term holds v."""
    out = {}
    for m, c in e.term_map().items():
        m = mono_mul(m, ((v, 1),))
        out[m] = rational_div(c, dict(m)[v])
    return Expr(out)
