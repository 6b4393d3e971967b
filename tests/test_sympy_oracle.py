"""SymPy as an independent oracle for the Euler-Lagrange expressions.

SymPy is a test-only dependency: without it these tests are skipped."""

import random
from fractions import Fraction

import pytest

from noether import Expr, JetSpace, Lagrangian, euler_lagrange

from util import SEED, rand_expr

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402


def _draw(rng):
    """A seeded polynomial Lagrangian of order 1 or 2 in one or two
    dependents, with rational coefficients; one in five is a field
    problem over (t, x).  Each dependent's top-order jet is present."""
    independents = ["t", "x"] if rng.random() < 0.2 else ["t"]
    dependents = ["u", "v"][:rng.randint(1, 2)]
    order = rng.randint(1, 2)
    space = JetSpace(independents, dependents, max_order=2 * order + 2)
    vars = [*space.independents, *space.jet_vars(max_order=order)]
    body = rand_expr(rng, vars)
    for i in range(len(dependents)):
        top = space.jet(i, (order,) + (0,) * (len(independents) - 1))
        body = body + Expr.constant(Fraction(rng.randint(1, 5), 2)) \
            * Expr.variable(top) ** 2
    return Lagrangian(space, order, body)


def _to_sympy(e, space, ts, fs):
    """``e`` as a SymPy expression: each jet (i, mu) becomes the
    derivative of the function fs[i] mu_j times by ts[j]."""
    def var(v):
        if v in space.independents:
            return ts[space.independent_index(v)]
        f = fs[v.dep_index]
        pairs = [(t, k) for t, k in zip(ts, v.multi_index) if k]
        return sympy.Derivative(f, *pairs) if pairs else f
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(var(v) ** k for v, k in mono))
                       for mono, c in e.term_map().items()))


def test_euler_lagrange_matches_sympy():
    rng = random.Random(SEED)
    shapes = set()
    for _ in range(30):
        L = _draw(rng)
        space = L.space
        ts = sympy.symbols([x.name for x in space.independents])
        fs = [sympy.Function(u.name)(*ts) for u in space.dependents]
        want = euler_equations(_to_sympy(L.body, space, ts, fs), fs, ts)
        got = euler_lagrange(L).raw
        assert len(want) == len(got) == len(fs)
        for eq, raw in zip(want, got):
            difference = _to_sympy(raw, space, ts, fs) - (eq.lhs - eq.rhs)
            assert sympy.expand(difference.doit()) == 0
        shapes.add((len(space.independents), len(space.dependents),
                    L.order))
    assert len(shapes) >= 6
