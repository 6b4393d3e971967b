"""Metamorphic oracles: inputs changed in a way whose effect on the
symmetry space theory fixes, compared across two runs of the engine.

Relabelling the dependents of a time-like problem, or the independents of
a field problem, only relabels its variational symmetries, and scaling L
by a rational c keeps them while scaling each gauge and law by c.  The
spans are compared both ways with ``match_generator``, never the bases,
which depend on the registration order."""

from fractions import Fraction

import pytest

from noether import (Ansatz, Expr, Generator, JetSpace, Lagrangian,
                     match_generator, solve_noether)
from noether.expr import INDEPENDENT

ANSATZ = Ansatz(coeff_degree=2, gauge_degree=2)


def _rational(rng, bound=4):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, bound),
                    rng.randint(1, 3))


def _lagrangian(space, order, terms):
    """L of the given order from (coefficient, [(name, exponent)]) terms."""
    body = Expr.zero()
    for c, factors in terms:
        term = Expr.constant(c)
        for name, k in factors:
            term = term * Expr.variable(space.lookup(name)) ** k
        body = body + term
    return Lagrangian(space, order, body)


def _time_like_terms(rng, deps, order):
    """A seeded L over t: a positive kinetic term per dependent at the top
    order, one cross term, and a potential linear in the dependents with a
    first-order coupling, so that translations, boosts and the time
    translation survive with gauges."""
    top = ["'" * order, "'" * (order - 1)]
    a, b = rng.sample(deps, 2)
    terms = [(Fraction(rng.randint(1, 4), 2), [(u + top[0], 2)])
             for u in deps]
    terms.append((_rational(rng), [(a + top[0], 1), (b + top[0], 1)]))
    terms += [(_rational(rng), [(u, 1)]) for u in rng.sample(deps, 2)]
    if order > 1:
        terms.append((_rational(rng), [(a + top[1], 1), (b + top[1], 1)]))
    return terms


def _field_terms(rng, inds):
    """A seeded first-order L over one field u: a wave-like quadratic form
    in the first derivatives with one cross term, and a source term."""
    a, b = rng.sample(inds, 2)
    terms = [(_rational(rng), [(f"u_{x}", 2)]) for x in inds]
    terms.append((_rational(rng), [(f"u_{a}", 1), (f"u_{b}", 1)]))
    terms.append((_rational(rng), [("u", 1)]))
    return terms


def _carry(e, src, dst):
    """``e`` over ``src``'s variables, rewritten over the variables of
    ``dst`` with the same names: a jet goes to the jet of the same
    dependent with the same count of each independent."""
    to = [dst.independent_index(dst.lookup(x.name)) for x in src.independents]

    def var(v):
        if v.kind == INDEPENDENT:
            return dst.lookup(v.name)
        dep = dst.lookup(src.dependents[v.dep_index].name)
        multi = [0] * len(to)
        for a, c in enumerate(v.multi_index):
            multi[to[a]] = c
        return dst.jet(dst.dependents.index(dep), tuple(multi))

    out = Expr.zero()
    for mono, c in e.term_map().items():
        term = Expr.constant(c)
        for v, k in mono:
            term = term * Expr.variable(var(v)) ** k
        out = out + term
    return out


def _carry_generator(g, src, dst):
    return Generator(
        xi={dst.lookup(x.name): _carry(e, src, dst) for x, e in g.xi.items()},
        eta={dst.lookup(u.name): _carry(e, src, dst)
             for u, e in g.eta.items()})


def _assert_same_span(first, second):
    """Each basis generator of one (L, solutions) pair, carried over to the
    other problem's variables, lies in the other's span, both ways."""
    (L1, sols1), (L2, sols2) = first, second
    assert len(sols1) == len(sols2) > 1
    for (La, sa), (Lb, sb) in ((first, second), (second, first)):
        for sol in sa:
            target = _carry_generator(sol.generator, La.space, Lb.space)
            assert match_generator(Lb, sb, target) is not None


def _relabelled(rng, independents, dependents, order, terms):
    """The problem's L in the given variable order and in a seeded
    non-identity permutation of its dependents (time-like) or independents
    (field), each with its solutions."""
    def build(inds, deps):
        space = JetSpace(inds, deps, max_order=2 * order + 2)
        L = _lagrangian(space, order, terms)
        return L, solve_noether(L, ANSATZ)
    names = dependents if len(independents) == 1 else independents
    perm = list(names)
    while perm == list(names):
        rng.shuffle(perm)
    if len(independents) == 1:
        return build(independents, dependents), build(independents, perm)
    return build(independents, dependents), build(perm, dependents)


def test_relabelling_the_dependents_permutes_the_generators(rng):
    for deps, order in ((["x", "y", "z"], 1), (["x", "y", "z"], 1),
                        (["x", "y"], 2)):
        _assert_same_span(*_relabelled(
            rng, ["t"], deps, order, _time_like_terms(rng, deps, order)))


def test_relabelling_the_independents_permutes_the_generators(rng):
    for _ in range(2):
        inds = ["t", "x", "y"]
        _assert_same_span(*_relabelled(rng, inds, ["u"], 1,
                                       _field_terms(rng, inds)))


@pytest.mark.parametrize("kind", ["time-like", "second order", "field"])
def test_scaling_the_lagrangian_scales_gauges_and_laws(rng, kind):
    """c*L has the generators of L.  On a time-like problem the gauge is
    fixed by its generator, so each matched gauge and law is exactly c
    times that of L; a field problem's gauge is fixed only up to a
    divergence-free field, so there the spans alone are compared."""
    if kind == "field":
        inds, deps, order = ["t", "x", "y"], ["u"], 1
        terms = _field_terms(rng, inds)
    else:
        inds, deps = ["t"], ["x", "y", "z"]
        order = 1 if kind == "time-like" else 2
        terms = _time_like_terms(rng, deps, order)
    space = JetSpace(inds, deps, max_order=2 * order + 2)
    c = _rational(rng)
    L = _lagrangian(space, order, terms)
    cL = _lagrangian(space, order, [(c * k, f) for k, f in terms])
    sols, scaled = solve_noether(L, ANSATZ), solve_noether(cL, ANSATZ)
    _assert_same_span((L, sols), (cL, scaled))
    if kind != "field":
        for sol in sols:
            match = match_generator(cL, scaled, sol.generator)
            assert match.gauge == tuple(f * c for f in sol.gauge)
            assert match.law.components == \
                tuple(p * c for p in sol.law.components)
