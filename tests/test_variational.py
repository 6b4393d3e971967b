"""Euler-Lagrange synthesis, the velocity Hessian, on-shell reduction."""

import random
from pathlib import Path

import pytest

from noether import (ELSystem, Expr, JetSpace, Lagrangian, ProblemError,
                     ReductionError, euler_lagrange, load_problem, parse,
                     reduce_mod_el, total_derivative)
from noether.variational import _hessian_matrix, _normalize

from util import SEED, rand_expr, rand_nonzero_expr, reference_normalize

ROOT = Path(__file__).resolve().parent.parent


def test_el_free_particle(free_particle, ode):
    el = euler_lagrange(free_particle)
    ypp = ode.lookup("y''")
    assert el.equations == [parse("y''", ode)]
    assert el.solved_forms == {ypp: Expr.zero()}


def test_el_second_order(chain, ode):
    el = euler_lagrange(chain)
    assert el.equations == [parse("y''''", ode)]
    assert el.solved_forms == {ode.lookup("y''''"): Expr.zero()}


def test_el_quartic_field(quartic_field, pde):
    el = euler_lagrange(quartic_field)
    assert el.equations == [parse("u_tt + u_x^2*u_xx", pde)]
    assert el.solved_forms == {pde.lookup("u_tt"): parse("-u_x^2*u_xx", pde)}


def test_el_coupled_system(planar):
    el = euler_lagrange(planar)
    s = planar.space
    assert el.solved_forms == {s.lookup("x''"): Expr.zero(),
                               s.lookup("y''"): Expr.zero()}


def test_el_nonconstant_leading_coefficient():
    s = JetSpace(["t"], ["q"], max_order=4)
    cubic = Lagrangian(s, 1, parse("1/3*q'^3", s))
    el = euler_lagrange(cubic)
    assert not el.reducible
    assert el.equations == [parse("-2*q'*q''", s)]


def test_hessian_planar(planar):
    matrix = _hessian_matrix(planar)
    assert matrix[0][0] == Expr.one()
    assert matrix[0][1].is_zero
    assert matrix[1][0].is_zero
    assert matrix[1][1] == Expr.one()


def test_hessian_single(free_particle):
    assert _hessian_matrix(free_particle) == [[Expr.one()]]


def test_hessian_degenerate():
    s = JetSpace(["t"], ["q"], max_order=2)
    assert _hessian_matrix(Lagrangian(s, 1, parse("q'", s))) == [[Expr.zero()]]


def test_hessian_rejects_higher_order(chain):
    with pytest.raises(ValueError, match="first-order"):
        _hessian_matrix(chain)


def test_reduce_field_equation(quartic_field, pde):
    el = euler_lagrange(quartic_field)
    assert reduce_mod_el(parse("u_tt + u_x^2*u_xx", pde), el, pde).is_zero


def test_reduce_prolonged_derivatives(free_particle, ode):
    el = euler_lagrange(free_particle)
    assert reduce_mod_el(parse("y'''", ode), el, ode).is_zero
    assert reduce_mod_el(parse("y'", ode), el, ode) == parse("y'", ode)


def test_reduce_mixed_field_derivatives(quartic_field, pde):
    el = euler_lagrange(quartic_field)
    # u_ttx reduces through the x-derivative of the solved form
    reduced = reduce_mod_el(parse("u_ttx", pde), el, pde)
    assert reduced == parse("-2*u_x*u_xx^2 - u_x^2*u_xxx", pde)


def test_reduce_is_idempotent(rng, quartic_field, pde):
    el = euler_lagrange(quartic_field)
    vars = [pde.lookup(n) for n in ("t", "x", "u", "u_t", "u_x", "u_tt", "u_tx")]
    for _ in range(20):
        e = rand_nonzero_expr(rng, vars, max_degree=2)
        once = reduce_mod_el(e, el, pde)
        assert reduce_mod_el(once, el, pde) == once


def test_reduce_unavailable_raises():
    s = JetSpace(["t"], ["q"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("1/3*q'^3", s)))
    with pytest.raises(ReductionError):
        reduce_mod_el(parse("q''", s), el, s)


def test_null_lagrangian_property(rng, ode):
    """A total derivative has identically vanishing Euler-Lagrange equations."""
    x = ode.independents[0]
    vars0 = [ode.lookup(n) for n in ("x", "y")]
    vars1 = vars0 + [ode.lookup("y'")]
    for vars, order in ((vars0, 1), (vars1, 2)):
        for _ in range(15):
            g = rand_nonzero_expr(rng, vars, max_degree=3)
            body = total_derivative(g, x, ode)
            if body.is_zero:
                continue
            el = euler_lagrange(Lagrangian(ode, order, body))
            assert all(eq.is_zero for eq in el.equations)


def test_lagrangian_validation(ode):
    with pytest.raises(ValueError):
        Lagrangian(ode, 1, Expr.zero())
    with pytest.raises(ValueError):
        Lagrangian(ode, 1, parse("y''", ode))


def test_raw_euler_lagrange_stays_on_the_record(free_particle, ode):
    """The raw E(L) rides on the ELSystem, outside ``==`` and ``repr``."""
    el = euler_lagrange(free_particle)
    assert el.raw == [parse("-y''", ode)]
    assert el == ELSystem(ode, el.equations, el.solved_forms)
    assert repr(el) == repr(ELSystem(ode, el.equations, el.solved_forms))
    assert ELSystem(ode, el.equations, el.solved_forms).raw is None


def _layout(e):
    """Each term's monomial, coefficient type and value, in term order."""
    return [(m, type(c), c) for m, c in e.term_map().items()]


def _assert_reference_normal_form(el):
    equations, solved = reference_normalize(el.raw)
    assert [_layout(e) for e in el.equations] == \
        [_layout(e) for e in equations]
    if solved is None:
        assert el.solved_forms is None
    else:
        assert [(h, _layout(f)) for h, f in el.solved_forms.items()] == \
            [(h, _layout(f)) for h, f in solved.items()]
    return solved is not None


def _loadable():
    for path in sorted(ROOT.glob("problems/*.prob")) + sorted(
            ROOT.glob("tests/data/*.prob")):
        try:
            yield load_problem(str(path))
        except ProblemError:
            pass


def test_normal_form_matches_the_split_on_every_file():
    problems = list(_loadable())
    assert len(problems) >= 10
    for problem in problems:
        _assert_reference_normal_form(euler_lagrange(problem.lagrangian))


def test_normal_form_matches_the_split_on_random_lagrangians():
    """Order 1-2, 1-2 dependents, 1-2 independents.  Half the bodies get
    a term c/2*u^2 for each top jet u, so both outcomes occur often."""
    rng = random.Random(SEED)
    outcomes = set()
    for trial in range(120):
        order = rng.choice((1, 2))
        deps = ["y", "z"][:rng.choice((1, 2))]
        space = JetSpace(["t", "x"][:rng.choice((1, 2))], deps,
                         max_order=2 * order + 2)
        vars = list(space.independents) + space.jet_vars(max_order=order)
        body = rand_expr(rng, vars, max_terms=5, max_degree=3)
        if trial % 2:
            for v in space.jet_vars(max_order=order):
                if v.order == order:
                    body = body + Expr.variable(v) ** 2 * rng.choice(
                        (1, 2, -3)) / 2
        if body.is_zero:
            continue
        el = euler_lagrange(Lagrangian(space, order, body))
        outcomes.add(_assert_reference_normal_form(el))
    assert outcomes == {True, False}


def test_unsolvable_normal_forms_match_the_split():
    s = JetSpace(["t"], ["q"], max_order=4)
    cubic = euler_lagrange(Lagrangian(s, 1, parse("1/3*q'^3", s)))
    assert not _assert_reference_normal_form(cubic)

    two = JetSpace(["t"], ["y", "z"], max_order=4)
    no_jet = euler_lagrange(Lagrangian(two, 1, parse("1/2*y'^2 + y*z", two)))
    assert no_jet.raw[1] == parse("y", two)
    assert not _assert_reference_normal_form(no_jet)

    shared = [parse("3*y'' + z", two), parse("2*y'' - z", two)]
    el = _normalize(two, shared)
    assert el.raw is shared
    assert not _assert_reference_normal_form(el)
    assert el.equations == [parse("y'' + 1/3*z", two), shared[1]]
