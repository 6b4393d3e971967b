"""Euler-Lagrange synthesis, Hessian analysis, on-shell reduction."""

import random

import pytest

from noether import (Expr, JetSpace, Lagrangian, ReductionError, euler_lagrange,
                     hessian, parse, reduce_mod_el, total_derivative)

from util import (SEED, deadline, rand_expr, rand_nonzero_expr,
                  reference_det)


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
    rep = hessian(planar)
    assert rep.matrix[0][0] == Expr.one()
    assert rep.matrix[0][1].is_zero
    assert rep.matrix[1][0].is_zero
    assert rep.matrix[1][1] == Expr.one()
    assert rep.regular


def test_hessian_single(free_particle):
    rep = hessian(free_particle)
    assert rep.matrix == [[Expr.one()]]
    assert rep.regular


def test_hessian_degenerate():
    s = JetSpace(["t"], ["q"], max_order=2)
    rep = hessian(Lagrangian(s, 1, parse("q'", s)))
    assert rep.matrix == [[Expr.zero()]]
    assert not rep.regular


def test_hessian_rejects_higher_order(chain):
    with pytest.raises(ValueError):
        hessian(chain)


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


def _chain(n):
    """sum 1/2*q_k'^2 + sum q_k'*q_(k+1)': a tridiagonal velocity Hessian."""
    names = [f"q{k}" for k in range(n)]
    s = JetSpace(["t"], names, max_order=2)
    body = " + ".join([f"1/2*{q}'^2" for q in names]
                      + [f"{a}'*{b}'" for a, b in zip(names, names[1:])])
    return Lagrangian(s, 1, parse(body, s))


def test_hessian_determinant_is_not_factorial():
    # Cofactor expansion without shared minors takes 10! products here.
    # The tridiagonal determinant obeys D_n = D_(n-1) - D_(n-2): D_10 = -1.
    with deadline(5):
        rep = hessian(_chain(10))
    assert rep.determinant == Expr.constant(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_hessian_determinant_matches_cofactor_oracle(n):
    rng = random.Random(SEED + n)
    names = [f"q{k}" for k in range(n)]
    s = JetSpace(["t"], names, max_order=2)
    qs = list(s.dependents)
    vels = [s.lookup(f"{q}'") for q in names]
    body = Expr.zero()
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.8:
                coeff = rand_expr(rng, qs, max_terms=2, max_degree=1)
                body = body + coeff * Expr.variable(vels[i]) \
                    * Expr.variable(vels[j])
    rep = hessian(Lagrangian(s, 1, body + Expr.variable(vels[0]) ** 2))
    assert rep.determinant == reference_det(rep.matrix)
