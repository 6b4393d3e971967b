"""SymPy as an independent oracle for the Euler-Lagrange expressions, for
Noether's identity and for the nullity of the determining systems.

SymPy is a test-only dependency: without it these tests are skipped."""

import random
from fractions import Fraction

import pytest

from noether import (Ansatz, Expr, JetSpace, Lagrangian, euler_lagrange,
                     load_problem)
from noether.engine import _system
from noether.linalg import nullspace

from util import LOADABLE, ROOT, SEED, bundled_solutions, rand_expr

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


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


def test_every_law_meets_noether_identity_in_sympy():
    """Every law ``solve_noether`` returns on the bundled and tests/data
    problems at their own [ansatz], rebuilt in SymPy from the engine's
    generator and law: with Q_i = eta_i - sum_j xi_j u_i,j and E(L) from
    ``euler_equations``, Q.E(L) - sum_j D_j P_j expands to 0.  Six of
    wave_2plus1's 19 laws, drawn with a fixed seed, stand for that file,
    the costliest to expand."""
    rng = random.Random(SEED)
    checked = 0
    for path, problem, solutions in bundled_solutions():
        space = problem.space
        ts = sympy.symbols([x.name for x in space.independents])
        fs = [sympy.Function(u.name)(*ts) for u in space.dependents]

        def to_sympy(e):
            return _to_sympy(e, space, ts, fs)
        E = [eq.lhs - eq.rhs for eq in euler_equations(
            to_sympy(problem.lagrangian.body), fs, ts)]
        if path.endswith("wave_2plus1.prob"):
            solutions = rng.sample(solutions, 6)
        for sol in solutions:
            g = sol.generator
            Q = [to_sympy(g.eta_of(u)) - sum(
                to_sympy(g.xi_of(x)) * sympy.diff(f, t)
                for x, t in zip(space.independents, ts))
                for u, f in zip(space.dependents, fs)]
            div = sum(sympy.diff(to_sympy(p), t)
                      for p, t in zip(sol.law.components, ts))
            identity = sum(q * e for q, e in zip(Q, E)) - div
            assert sympy.expand(identity) == 0, (path, str(g.eta))
            checked += 1
    assert checked == 72 - 19 + 6


def test_search_nullity_matches_sympy_rank():
    """The search's nullspace on each determining system has n - rank
    vectors, n its unknowns and the rank SymPy's over QQ: on every
    loadable file at coefficient and gauge degree 2, in point form and in
    evolutionary form at jet order 1.  The rows are the solver's own,
    from ``_system``."""
    for path in LOADABLE:
        L = load_problem(str(ROOT / path)).lagrangian
        for ansatz in (Ansatz(coeff_degree=2, gauge_degree=2),
                       Ansatz(coeff_degree=2, gauge_degree=2,
                              coeff_jet_order=1, suppress_xi=True)):
            rows, columns = _system(L, ansatz)[:2]
            n = len(columns)
            matrix = DomainMatrix(
                {i: {c: QQ(v) for c, v in row.items()}
                 for i, row in enumerate(rows)}, (len(rows), n), QQ)
            assert len(nullspace(rows, n)) == n - matrix.rank(), \
                (path, ansatz)
