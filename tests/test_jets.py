"""Jet calculus: total derivatives, prolongation, evolutionary form."""

import itertools
from pathlib import Path

import pytest

from noether import (Expr, Generator, HeadroomError, JetSpace, characteristics,
                     euler_lagrange, evolutionary_form, load_problem, parse,
                     prolong_pde, solve_noether, total_derivative)
from noether.expr import mono_str
from noether.jets import multi_derivative

from util import closed_form_zeta, rand_expr

ROOT = Path(__file__).resolve().parent.parent


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


def _reference_registry(independents, dependents, max_order):
    """(name, dependent index, multi-index) of every variable a JetSpace
    registers, in registration order: the independents, the dependents,
    then per order and per dependent each composition of the order over
    the independents once, descending lexicographically."""
    n = len(independents)
    out = [(x, -1, ()) for x in independents]
    out += [(u, i, (0,) * n) for i, u in enumerate(dependents)]
    for order in range(1, max_order + 1):
        multis = sorted((m for m in itertools.product(range(order + 1),
                                                      repeat=n)
                         if sum(m) == order), reverse=True)
        for i, u in enumerate(dependents):
            for m in multis:
                name = (u + "'" * order if n == 1 else u + "_" + "".join(
                    x * c for x, c in zip(independents, m)))
                out.append((name, i, m))
    return out


def _registry(space):
    return [(v.name, v.dep_index, v.multi_index)
            for v in [*space.independents, *space.jet_vars()]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_composition_registers_once_descending(n):
    """For 1-4 independents and orders up to 6, each order's jets are the
    compositions of the order, each once, in descending lexicographic
    order of multi-index, and the sort indices count registrations."""
    independents = ["t", "x", "y", "z"][:n]
    for dependents in (["u"], ["u", "v"]):
        space = JetSpace(independents, dependents, max_order=6)
        assert _registry(space) == _reference_registry(
            independents, dependents, 6)
        variables = [*space.independents, *space.jet_vars()]
        assert [v.sort_index for v in variables] == \
            list(range(space.variable_count))


def test_bundled_problems_keep_their_jet_names():
    """Every bundled problem's space registers the names, in the order,
    that the reference enumeration gives."""
    paths = sorted((ROOT / "problems").glob("*.prob"))
    for path in paths:
        space = load_problem(str(path)).lagrangian.space
        assert _registry(space) == _reference_registry(
            [x.name for x in space.independents],
            [u.name for u in space.dependents], space.max_order)
    assert len(paths) == 5


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
    """D^mu equals nested D_x calls in every order."""
    space = JetSpace(["t", "x"], ["u", "v"], max_order=5)
    vars = [space.lookup(n) for n in ("t", "x", "u", "v", "u_t", "v_x")]
    multis = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1),
              (1, 2), (0, 3)]
    for _ in range(10):
        e = rand_expr(rng, vars)
        for multi in multis:
            steps = [space.independents[j]
                     for j, count in enumerate(multi) for _ in range(count)]
            for order in set(itertools.permutations(steps)):
                nested = e
                for x in order:
                    nested = total_derivative(nested, x, space)
                assert multi_derivative(e, multi, space) == nested


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

    # Already evolutionary: the zero characteristic of y is not kept.
    planar = JetSpace(["t"], ["x", "y"], max_order=4)
    x_shift = Generator(eta={planar.lookup("x"): Expr.one()})
    assert evolutionary_form(x_shift, planar) == x_shift


def test_evolutionary_form_scaling(ode):
    g = Generator(xi={ode.independents[0]: parse("x", ode)},
                  eta={ode.dependents[0]: parse("1/2*y", ode)})
    ev = evolutionary_form(g, ode)
    assert ev.eta[ode.dependents[0]] == parse("1/2*y - x*y'", ode)


def test_generator_keeps_only_nonzero_coefficients(ode):
    x, y = ode.independents[0], ode.dependents[0]
    assert Generator(xi={x: Expr.zero()}) == Generator()
    assert Generator(xi={x: Expr.zero()}, eta={y: Expr.zero()}).is_zero
    g = Generator(xi={x: Expr.zero()}, eta={y: Expr.one()})
    assert g == Generator(eta={y: Expr.one()}) and not g.xi


def test_evolutionary_form_at_the_working_order():
    """Q = eta - xi * y' takes only a first derivative, so a coefficient
    already at the working order still has its evolutionary form."""
    s = JetSpace(["x"], ["y"], max_order=4)
    g = Generator(xi={s.independents[0]: parse("y''''", s)})
    assert evolutionary_form(g, s) == \
        Generator(eta={s.dependents[0]: parse("-y'*y''''", s)})


def test_characteristics_of_the_time_translation():
    planar = JetSpace(["t"], ["x", "y"], max_order=4)
    g = Generator(xi={planar.independents[0]: Expr.one()})
    assert characteristics(g, planar) == \
        [parse("-x'", planar), parse("-y'", planar)]


def test_dependence_order(ode):
    g = Generator(eta={ode.dependents[0]: parse("y''", ode)})
    assert g.dependence_order == 2
    assert Generator().dependence_order == 0


def _term_orders(build, shifts=16):
    """The term orders ``build()`` gives across heap layouts: between
    calls, growing lists of tuples stay alive, so each new space's
    variables sit at other addresses."""
    orders, keep = set(), []
    for shift in range(shifts):
        keep.append([(i, i, i) for i in range(37 * shift)])
        orders.add(tuple(tuple(mono_str(m) for m in e.term_map())
                         for e in build()))
    return orders


def test_total_derivative_term_order_does_not_follow_addresses():
    """D_x visits variables in registration order, not in the order of a
    set hashed by identity."""
    def build():
        space = JetSpace(["x"], ["y", "z"], max_order=4)
        return [D(parse("y*y' + z*z'' + y*z' + y''*z", space), space)]
    assert len(_term_orders(build)) == 1


def test_euler_lagrange_and_law_term_orders_do_not_follow_addresses():
    path = str(Path(__file__).resolve().parent / "data"
               / "coupled_second_order.prob")

    def build():
        problem = load_problem(path)
        el = euler_lagrange(problem.lagrangian)
        laws = solve_noether(problem.lagrangian, problem.ansatz)
        return [*el.equations, *el.solved_forms.values(),
                *(c for s in laws for c in s.law.components)]
    assert len(_term_orders(build)) == 1
