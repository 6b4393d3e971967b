"""Jet calculus: total derivatives, prolongation, evolutionary form."""

import itertools

import pytest

from noether import (Expr, Generator, HeadroomError, JetSpace, evolutionary_form,
                     parse, prolong_pde, total_derivative)
from noether.jets import multi_derivative

from util import closed_form_zeta, rand_expr


def D(e, space, name="x"):
    return total_derivative(e, space.lookup(name), space)


def test_total_derivative_raises_order(ode):
    assert D(parse("y", ode), ode) == parse("y'", ode)


def test_total_derivative_time_like():
    s = JetSpace(["t"], ["q"], max_order=2)
    assert total_derivative(parse("t*q", s), s.lookup("t"), s) == \
        parse("q + t*q'", s)


def test_total_derivative_of_linear_integral(ode):
    # D_x(y - x y') collapses to -x y''
    assert D(parse("y - x*y'", ode), ode) == parse("-x*y''", ode)


def test_total_derivative_headroom(ode):
    top = parse("y''''''", ode)   # at the working order already
    with pytest.raises(HeadroomError):
        D(top, ode)


@pytest.mark.parametrize("independents,dependents", [
    (["t"], ["y"]), (["t"], ["x", "y", "z"]), (["t", "x"], ["u"]),
    (["t", "x", "z"], ["u", "v"])])
def test_jet_vars_follow_sort_index(independents, dependents):
    """The registry holds the dependents and jets in ``sort_index`` order,
    so ``jet_vars`` returns them in that order for every selection."""
    space = JetSpace(independents, dependents, max_order=3)
    for dep_index in (None, *range(len(dependents))):
        for max_order in (None, *range(space.max_order + 1)):
            found = [v.sort_index
                     for v in space.jet_vars(dep_index, max_order)]
            assert found and found == sorted(set(found))


def test_commutativity_of_total_derivatives(rng, pde):
    vars = [pde.lookup(n) for n in ("t", "x", "u", "u_t", "u_x")]
    t, x = pde.independents
    for _ in range(30):
        e = rand_expr(rng, vars)
        dtx = total_derivative(total_derivative(e, t, pde), x, pde)
        dxt = total_derivative(total_derivative(e, x, pde), t, pde)
        assert dtx == dxt


def test_total_derivative_product_rule(rng, ode):
    vars = [ode.lookup(n) for n in ("x", "y", "y'")]
    x = ode.independents[0]
    for _ in range(30):
        a = rand_expr(rng, vars)
        b = rand_expr(rng, vars)
        assert total_derivative(a * b, x, ode) == \
            total_derivative(a, x, ode) * b + a * total_derivative(b, x, ode)


def test_multi_derivative_matches_nested_total_derivatives(rng):
    """D^mu equals nested D_x calls in every order, with and without a memo
    shared between the multi-indices of one expression."""
    space = JetSpace(["t", "x"], ["u", "v"], max_order=5)
    vars = [space.lookup(n) for n in ("t", "x", "u", "v", "u_t", "v_x")]
    multis = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1),
              (1, 2), (0, 3)]
    for _ in range(10):
        e = rand_expr(rng, vars)
        shared = {}
        for multi in multis:
            steps = [space.independents[j]
                     for j, count in enumerate(multi) for _ in range(count)]
            for order in set(itertools.permutations(steps)):
                nested = e
                for x in order:
                    nested = total_derivative(nested, x, space)
                assert multi_derivative(e, multi, space) == nested
                assert multi_derivative(e, multi, space, shared) == nested


def zeta(g, j, ode):
    """Order-j prolongation coefficient of y: D^j of the characteristic
    plus xi y^(j+1), by the general prolongation formula."""
    return prolong_pde(g, ode.jet(0, (j,)), ode)


def test_prolong_constant_translation(ode):
    g = Generator(xi={ode.independents[0]: Expr.one()})
    assert zeta(g, 1, ode).is_zero


def test_prolong_projective_generator(ode):
    g = Generator(xi={ode.independents[0]: parse("x^2", ode)},
                  eta={ode.dependents[0]: parse("x*y", ode)})
    assert zeta(g, 1, ode) == parse("y - x*y'", ode)


def test_prolong_second_order_coefficient(ode):
    g = Generator(xi={ode.independents[0]: parse("x^2", ode)},
                  eta={ode.dependents[0]: parse("3*x*y", ode)})
    # zeta2 = eta'' - 2 y'' xi' - y' xi'' evaluated for this generator
    assert zeta(g, 2, ode) == parse("4*y' - x*y''", ode)


def test_prolong_recursive_matches_closed_form(rng, ode):
    x, y = ode.lookup("x"), ode.lookup("y")
    for _ in range(12):
        g = Generator(xi={ode.independents[0]: rand_expr(rng, [x, y], max_degree=2)},
                      eta={ode.dependents[0]: rand_expr(rng, [x, y], max_degree=2)})
        for j in range(1, 5):
            assert zeta(g, j, ode) == \
                closed_form_zeta(g, j, ode)[ode.dependents[0]]


def test_prolong_field_extensions(pde):
    t, u = pde.independents[0], pde.dependents[0]
    u_t = pde.lookup("u_t")
    assert prolong_pde(Generator(eta={u: Expr.one()}), u_t, pde).is_zero
    assert prolong_pde(Generator(eta={u: parse("t", pde)}), u_t, pde) == Expr.one()
    stretch = Generator(xi={t: parse("t", pde)}, eta={u: parse("-u", pde)})
    assert prolong_pde(stretch, u_t, pde) == parse("-2*u_t", pde)


def test_evolutionary_form_examples():
    s = JetSpace(["t"], ["q"], max_order=3)
    shift = Generator(xi={s.independents[0]: Expr.one()})
    ev = evolutionary_form(shift, s)
    assert not ev.xi
    assert ev.eta[s.dependents[0]] == parse("-q'", s)

    p = JetSpace(["t", "x"], ["u"], max_order=2)
    dep_shift = Generator(eta={p.dependents[0]: Expr.one()})
    assert evolutionary_form(dep_shift, p).eta[p.dependents[0]] == Expr.one()


def test_evolutionary_form_scaling(ode):
    g = Generator(xi={ode.independents[0]: parse("x", ode)},
                  eta={ode.dependents[0]: parse("1/2*y", ode)})
    ev = evolutionary_form(g, ode)
    assert ev.eta[ode.dependents[0]] == parse("1/2*y - x*y'", ode)


def test_dependence_order(ode):
    g = Generator(eta={ode.dependents[0]: parse("y''", ode)})
    assert g.dependence_order == 2
    assert Generator().dependence_order == 0
