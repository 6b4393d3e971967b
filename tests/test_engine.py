"""The Noether engine: residuals, determining systems, laws, verification."""

from fractions import Fraction
from pathlib import Path

import pytest

from noether import (Ansatz, Expr, Generator, JetSpace, Lagrangian,
                     NonSymmetryError, UnsupportedProblem, combine_solutions,
                     condition_residual, conservation_vector,
                     determining_system, euler_lagrange, evolutionary_form,
                     find_gauge, find_gauges, first_integral,
                     hessian_relation_check, load_problem, match_generator,
                     parse, reduce_mod_el, solve, solve_noether, verify,
                     verify_candidate)
from noether.engine import materialize

from util import first_integral_closed_form, is_canonical, on_shell_zero

ROOT = Path(__file__).resolve().parent.parent


def gen(space, xi=None, eta=None):
    """Generator from coefficient strings keyed by variable name."""
    return Generator(
        xi={space.lookup(k): parse(v, space) for k, v in (xi or {}).items()},
        eta={space.lookup(k): parse(v, space) for k, v in (eta or {}).items()})


# -- invariance condition -----------------------------------------------------


def test_residual_translation_is_symmetry(free_particle, ode):
    assert condition_residual(free_particle, gen(ode, xi={"x": "1"})).is_zero


def test_residual_homogeneity_is_not_noether(free_particle, ode):
    res = condition_residual(free_particle, gen(ode, eta={"y": "y"}))
    assert res == parse("y'^2", ode)


def test_residual_field_shift_with_flux(quartic_field, pde):
    g = gen(pde, eta={"u": "t"})
    flux = [parse("u", pde), Expr.zero()]
    assert condition_residual(quartic_field, g, flux).is_zero


def test_residual_gauge_dimension_checked(free_particle, ode):
    with pytest.raises(ValueError, match="component"):
        condition_residual(free_particle, gen(ode, xi={"x": "1"}),
                           [Expr.zero(), Expr.zero()])


# -- determining systems -------------------------------------------------------


def test_free_particle_dimensions(free_particle):
    assert len(solve_noether(free_particle, Ansatz())) == 5
    assert len(solve_noether(free_particle, Ansatz(include_gauge=False))) == 3


def test_chain_dimension(chain):
    assert len(solve_noether(chain, Ansatz())) == 7


def test_planar_dimension(planar):
    assert len(solve_noether(planar, Ansatz())) == 8


def test_zero_row_system_basis():
    from noether.linalg import nullspace
    basis = nullspace([], 4)
    assert len(basis) == 4
    assert basis == [{k: 1} for k in range(4)]


def test_small_ansatz_empty_nullspace(free_particle):
    # degree-0 coefficients without gauge admit only translations; degree 0
    # with gauge off and no constant solutions in eta would still find some,
    # so pin the genuinely empty case: no gauge, nothing fits at degree 0
    sols = solve_noether(free_particle, Ansatz(coeff_degree=0))
    assert {str(s.generator.xi_of(free_particle.space.independents[0]))
            for s in sols} == {"0", "1"}


def test_unsupported_configuration_raises():
    space = JetSpace(["t", "x"], ["u"], max_order=6)
    second = Lagrangian(space, 2, parse("1/2*u_tt^2", space))
    with pytest.raises(UnsupportedProblem):
        determining_system(second, Ansatz())


def test_ansatz_slot_count_matches_binomial(planar):
    # The bound counts C(variables + degree, degree) monomials per slot;
    # that must be what is built.  planar has t, x, y and x', y' at order 1.
    from math import comb

    from noether.engine import _monomials_upto
    for order, n_vars in ((0, 3), (1, 5)):
        for degree in range(4):
            for constant in (True, False):
                monos = _monomials_upto(planar.space, order, degree, constant)
                assert len(monos) == len(set(monos)) == \
                    comb(n_vars + degree, degree) - (not constant)


def test_ansatz_beyond_the_slot_bound_is_refused(free_particle, ode):
    # Over x and y, degree 139 gives C(141, 139) = 9870 monomials and
    # degree 140 gives 10011, just past the bound of 10000.
    from noether.engine import MAX_SLOT_MONOMIALS, _monomials_upto
    assert MAX_SLOT_MONOMIALS == 10_000
    assert len(_monomials_upto(ode, 0, 139)) == 9870
    with pytest.raises(ValueError, match="ansatz degree 140 over 2"):
        determining_system(free_particle, Ansatz(coeff_degree=140))
    with pytest.raises(ValueError, match="ansatz degree 200 over 2"):
        find_gauge(free_particle, gen(ode, eta={"y": "1"}), degree=200)
    with pytest.raises(ValueError, match="degree -1 must be non-negative"):
        find_gauge(free_particle, gen(ode, eta={"y": "1"}), degree=-1)


def test_solver_output_is_deterministic(free_particle):
    ds1 = determining_system(free_particle, Ansatz())
    ds2 = determining_system(free_particle, Ansatz())
    assert [sorted((v.name, c) for v, c in a.items()) for a in solve(ds1)] == \
        [sorted((v.name, c) for v, c in a.items()) for a in solve(ds2)]


# -- the classical tables -------------------------------------------------------


FREE_TABLE = [
    # generator (xi, eta), gauge, integral
    (("0", "1"), "0", "-y'"),
    (("0", "x"), "y", "y - x*y'"),
    (("1", "0"), "0", "1/2*y'^2"),
    (("x", "1/2*y"), "0", "1/2*x*y'^2 - 1/2*y*y'"),
    (("x^2", "x*y"), "1/2*y^2", "1/2*y^2 - x*y*y' + 1/2*x^2*y'^2"),
]


def test_free_particle_span_matches_table(free_particle, ode):
    sols = solve_noether(free_particle, Ansatz())
    for (xi_s, eta_s), gauge_s, law_s in FREE_TABLE:
        target = gen(ode, xi={"x": xi_s}, eta={"y": eta_s})
        m = match_generator(free_particle, sols, target)
        assert m is not None
        assert m.gauge[0] == parse(gauge_s, ode)
        assert m.law.components[0] == parse(law_s, ode)


CHAIN_TABLE = [
    (("0", "1"), "0", "y'''"),
    (("0", "x"), "0", "x*y''' - y''"),
    (("0", "x^2"), "2*y'", "x^2*y''' - 2*x*y'' + 2*y'"),
    (("0", "x^3"), "6*x*y' - 6*y", "x^3*y''' - 3*x^2*y'' + 6*x*y' - 6*y"),
    (("1", "0"), "0", "1/2*y''^2 - y'*y'''"),
    (("x", "3/2*y"), "0",
     "1/2*x*y''^2 - x*y'*y''' - 1/2*y'*y'' + 3/2*y*y'''"),
    (("x^2", "3*x*y"), "2*y'^2",
     "2*y'^2 + 1/2*x^2*y''^2 - x^2*y'*y''' + 3*x*y*y''' - x*y'*y'' - 3*y*y''"),
]


def test_chain_span_matches_table(chain, ode):
    sols = solve_noether(chain, Ansatz())
    el = euler_lagrange(chain)
    for (xi_s, eta_s), gauge_s, law_s in CHAIN_TABLE:
        target = gen(ode, xi={"x": xi_s}, eta={"y": eta_s})
        m = match_generator(chain, sols, target)
        assert m is not None
        assert m.gauge[0] == parse(gauge_s, ode)
        assert m.law.components[0] == parse(law_s, ode)
        report = verify(m.law, el, ode)
        assert report.ok and report.residual.is_zero


def test_chain_integrals_against_closed_form(chain, ode):
    """The synthesized integrals equal the direct double-sum expansion."""
    for (xi_s, eta_s), gauge_s, _ in CHAIN_TABLE:
        g = gen(ode, xi={"x": xi_s}, eta={"y": eta_s})
        f = parse(gauge_s, ode)
        law = first_integral(chain, g, f)
        assert law.components[0] == first_integral_closed_form(chain, g, f)


def test_chain_laws_conserved_by_direct_substitution(chain, ode):
    """On-shell vanishing via plain substitution, independent of the reducer."""
    solved = {ode.lookup("y''''"): Expr.zero()}
    from noether import total_derivative
    for _, _, law_s in CHAIN_TABLE:
        dI = total_derivative(parse(law_s, ode), ode.independents[0], ode)
        assert on_shell_zero(dI, ode, solved)


PLANAR_TABLE = [
    ({"t": "1"}, {}, "0"),
    ({"t": "t"}, {"x": "1/2*x", "y": "1/2*y"}, "0"),
    ({"t": "t^2"}, {"x": "t*x", "y": "t*y"}, "1/2*x^2 + 1/2*y^2"),
    ({}, {"x": "y", "y": "-x"}, "0"),
    ({}, {"x": "1"}, "0"),
    ({}, {"x": "t"}, "x"),
    ({}, {"y": "1"}, "0"),
    ({}, {"y": "t"}, "y"),
]


def test_planar_span_and_gauge_structure(planar):
    space = planar.space
    sols = solve_noether(planar, Ansatz())
    for xi_s, eta_s, gauge_s in PLANAR_TABLE:
        target = gen(space, xi=xi_s, eta=eta_s)
        m = match_generator(planar, sols, target)
        assert m is not None, (xi_s, eta_s)
        assert m.gauge[0] == parse(gauge_s, space)


def test_planar_rejects_unweighted_dilation(planar):
    """t dt + x dx + y dy fails the invariance condition (the weight on the
    dependent variables must be one half)."""
    space = planar.space
    bad = gen(space, xi={"t": "t"}, eta={"x": "x", "y": "y"})
    assert not condition_residual(planar, bad).is_zero
    sols = solve_noether(planar, Ansatz())
    assert match_generator(planar, sols, bad) is None


# -- first integrals ------------------------------------------------------------


def test_first_integral_translations(free_particle, chain, ode):
    shift = gen(ode, eta={"y": "1"})
    assert first_integral(free_particle, shift, Expr.zero()).components[0] == \
        parse("-y'", ode)
    assert first_integral(chain, shift, Expr.zero()).components[0] == \
        parse("y'''", ode)


def test_first_integral_cubic_shift(chain, ode):
    g = gen(ode, eta={"y": "x^3"})
    f = parse("6*x*y' - 6*y", ode)
    assert first_integral(chain, g, f).components[0] == \
        parse("x^3*y''' - 3*x^2*y'' + 6*x*y' - 6*y", ode)


def test_first_integral_refuses_non_symmetry(free_particle, ode):
    with pytest.raises(NonSymmetryError):
        first_integral(free_particle, gen(ode, eta={"y": "y"}), Expr.zero())


# -- flux vectors ---------------------------------------------------------------


FIELD_CANDIDATES = {
    "time shift": ({"t": "1"}, {}, ("0", "0"),
                   ("1/2*u_t^2 - 1/12*u_x^4", "1/3*u_t*u_x^3")),
    "space shift": ({"x": "1"}, {}, ("0", "0"),
                    ("u_t*u_x", "1/4*u_x^4 - 1/2*u_t^2")),
    "field shift": ({}, {"u": "1"}, ("0", "0"), ("-u_t", "-1/3*u_x^3")),
    "galilean": ({}, {"u": "t"}, ("u", "0"), ("u - t*u_t", "-1/3*t*u_x^3")),
}


def test_flux_vectors(quartic_field, pde):
    el = euler_lagrange(quartic_field)
    for name, (xi_s, eta_s, flux_s, law_s) in FIELD_CANDIDATES.items():
        g = gen(pde, xi=xi_s, eta=eta_s)
        flux = tuple(parse(c, pde) for c in flux_s)
        law = conservation_vector(quartic_field, g, flux)
        assert law.components == tuple(parse(c, pde) for c in law_s), name
        report = verify(law, el, pde)
        assert report.ok and report.residual.is_zero


def test_flux_divergence_by_direct_substitution(quartic_field, pde):
    from noether import total_derivative
    solved = {pde.lookup("u_tt"): parse("-u_x^2*u_xx", pde)}
    t, x = pde.independents
    for name, (_, _, _, law_s) in FIELD_CANDIDATES.items():
        comps = tuple(parse(c, pde) for c in law_s)
        div = total_derivative(comps[0], t, pde) + \
            total_derivative(comps[1], x, pde)
        assert on_shell_zero(div, pde, solved), name


def test_flux_vector_refuses_non_symmetry(quartic_field, pde):
    with pytest.raises(NonSymmetryError):
        conservation_vector(quartic_field, gen(pde, eta={"u": "u"}),
                            (Expr.zero(), Expr.zero()))


def test_pde_solving_mode(quartic_field, pde):
    """Direct solving is supported for one dependent and two independents."""
    sols = solve_noether(quartic_field, Ansatz(coeff_degree=2, gauge_degree=2))
    assert len(sols) == 5
    t, x, u = pde.independents[0], pde.independents[1], pde.dependents[0]
    for g in (Generator(xi={t: Expr.one()}),
              Generator(xi={x: Expr.one()}),
              Generator(eta={u: Expr.one()}),
              Generator(eta={u: parse("t", pde)})):
        assert match_generator(quartic_field, sols, g) is not None
    # the only local stretching is the weighted combination of the two
    # individually nonlocal ones
    scaling = Generator(xi={t: parse("t", pde), x: parse("3/5*x", pde)},
                        eta={u: parse("1/5*u", pde)})
    assert condition_residual(quartic_field, scaling).is_zero
    assert match_generator(quartic_field, sols, scaling) is not None


def test_verify_indeterminate_without_solved_forms():
    s = JetSpace(["t"], ["q"], max_order=4)
    cubic = Lagrangian(s, 1, parse("1/3*q'^3", s))
    el = euler_lagrange(cubic)
    from noether import ConservationLaw
    law = ConservationLaw("first-integral", (parse("q'^2", s),))
    report = verify(law, el, s)
    assert report.ok is None
    assert report.residual == parse("2*q'*q''", s)


def test_verify_reports(free_particle, ode):
    el = euler_lagrange(free_particle)
    from noether import ConservationLaw
    good = ConservationLaw("first-integral", (parse("1/2*y'^2", ode),))
    rep = verify(good, el, ode)
    assert rep.ok and rep.residual.is_zero
    bad = ConservationLaw("first-integral", (parse("y", ode),))
    rep = verify(bad, el, ode)
    assert rep.ok is False
    assert rep.residual == parse("y'", ode)


# -- verification mode (gauge fitting) -------------------------------------------


def test_find_gauge_local_candidates(quartic_field, pde):
    g4 = gen(pde, eta={"u": "t"})
    assert find_gauge(quartic_field, g4) == (parse("u", pde), Expr.zero())
    g1 = gen(pde, xi={"t": "1"})
    assert find_gauge(quartic_field, g1) == (Expr.zero(), Expr.zero())


def test_find_gauge_rejects_nonlocal(quartic_field, pde):
    g5 = gen(pde, xi={"t": "t"}, eta={"u": "-u"})
    g6 = gen(pde, xi={"x": "x"}, eta={"u": "2*u"})
    assert find_gauge(quartic_field, g5) is None
    assert find_gauge(quartic_field, g6) is None
    # widening the flux to first derivatives does not rescue them
    assert find_gauge(quartic_field, g5, jet_order=1) is None
    assert find_gauge(quartic_field, g6, jet_order=1) is None


def test_find_gauge_ode(free_particle, ode):
    g2 = gen(ode, eta={"y": "x"})
    assert find_gauge(free_particle, g2) == (parse("y", ode),)


def test_verify_candidate_pipeline(quartic_field, pde):
    sol = verify_candidate(quartic_field, gen(pde, eta={"u": "t"}))
    assert sol is not None
    assert sol.gauge == (parse("u", pde), Expr.zero())
    assert verify_candidate(quartic_field,
                            gen(pde, xi={"t": "t"}, eta={"u": "-u"})) is None


@pytest.mark.parametrize("path,admitted", [
    ("problems/free_particle.prob", {4: "AAAAA", 0: "ARAAR"}),
    ("problems/quartic_field.prob", {4: "AAAARR", 0: "AAARRR"}),
    # gauge jet orders 0, 1, 1, 0
    ("tests/data/verify_batch.prob", {4: "AARA", 0: "ARRA"}),
])
@pytest.mark.parametrize("degree", [4, 0])
def test_find_gauges_matches_find_gauge(path, admitted, degree):
    problem = load_problem(str(ROOT / path))
    L = problem.lagrangian
    gens = [g for _, g in problem.candidates]
    gauges = find_gauges(L, gens, degree=degree)
    assert gauges == [find_gauge(L, g, degree=degree) for g in gens]
    assert "".join("R" if f is None else "A" for f in gauges) \
        == admitted[degree]
    for g, f in zip(gens, gauges):
        if f is not None:
            assert condition_residual(L, g, f).is_zero
            if degree == 0:   # no gauge monomials at all
                assert all(c.is_zero for c in f)


def test_find_gauges_empty(free_particle):
    assert find_gauges(free_particle, []) == []


def test_solver_unknowns_stay_out_of_the_space(free_particle, ode):
    count = ode.variable_count
    sols = solve_noether(free_particle, Ansatz())
    find_gauge(free_particle, gen(ode, eta={"y": "x"}))
    find_gauges(free_particle, [gen(ode, eta={"y": "1"}),
                                gen(ode, eta={"y": "y'"})])
    match_generator(free_particle, sols, gen(ode, xi={"x": "1"}))
    assert ode.variable_count == count
    assert ode.lookup("c0") is None
    with pytest.raises(ValueError, match="unknown variable"):
        parse("c0", ode)


def test_problem_may_name_a_variable_c0():
    space = JetSpace(["x"], ["c0"], max_order=4)
    L = Lagrangian(space, 1, parse("1/2*c0'^2", space))
    sols = solve_noether(L, Ansatz())
    assert len(sols) == 5
    shift = match_generator(L, sols, gen(space, eta={"c0": "x"}))
    assert shift.gauge == (parse("c0", space),)


# -- structural properties --------------------------------------------------------


def test_solution_space_linearity(rng, free_particle):
    sols = solve_noether(free_particle, Ansatz())
    for _ in range(10):
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in sols]
        combo = combine_solutions(free_particle, sols, weights)
        assert condition_residual(free_particle, combo.generator,
                                  combo.gauge).is_zero


def test_law_scaling_linearity(free_particle, ode):
    g = gen(ode, xi={"x": "x^2"}, eta={"y": "x*y"})
    f = parse("1/2*y^2", ode)
    base = first_integral(free_particle, g, f).components[0]
    c = Fraction(3, 7)
    scaled = first_integral(free_particle, g.scaled(c), f * c).components[0]
    assert scaled == base * c


def test_hessian_relation_on_table(free_particle, ode):
    for (xi_s, eta_s), gauge_s, law_s in FREE_TABLE:
        g = gen(ode, xi={"x": xi_s}, eta={"y": eta_s})
        assert hessian_relation_check(free_particle, g, parse(law_s, ode))


def test_hessian_relation_perturbation_fails(free_particle, ode):
    # the check is a velocity-gradient identity, so the perturbation must
    # touch the velocity dependence to be detectable
    g = gen(ode, xi={"x": "1"})
    integral = parse("1/2*y'^2 + y'", ode)
    assert not hessian_relation_check(free_particle, g, integral)


def test_hessian_relation_blind_to_velocity_free_shift(free_particle, ode):
    # adding a velocity-free term leaves every velocity gradient unchanged,
    # so the identity still holds
    g = gen(ode, xi={"x": "1"})
    integral = parse("1/2*y'^2 + y", ode)
    assert hessian_relation_check(free_particle, g, integral)


def test_hessian_relation_domain(chain, free_particle, ode):
    with pytest.raises(ValueError, match="first-order"):
        hessian_relation_check(chain, gen(ode, xi={"x": "1"}), Expr.zero())
    with pytest.raises(ValueError, match="derivative dependence"):
        hessian_relation_check(free_particle, gen(ode, eta={"y": "y''"}),
                               Expr.zero())


def test_hessian_relation_planar(planar):
    sols = solve_noether(planar, Ansatz())
    for sol in sols:
        assert hessian_relation_check(planar, sol.generator,
                                      sol.law.components[0])


# -- evolutionary form ------------------------------------------------------------


def test_boyer_equivalence_per_generator(free_particle, ode):
    """Each point symmetry and its evolutionary form give the same law
    modulo the equations of motion."""
    el = euler_lagrange(free_particle)
    for (xi_s, eta_s), gauge_s, _ in FREE_TABLE:
        g = gen(ode, xi={"x": xi_s}, eta={"y": eta_s})
        point_law = first_integral(free_particle, g, parse(gauge_s, ode))
        ev = evolutionary_form(g, ode)
        gauge = find_gauge(free_particle, ev)
        assert gauge is not None
        ev_law = first_integral(free_particle, ev, gauge[0])
        diff = point_law.components[0] - ev_law.components[0]
        assert reduce_mod_el(diff, el, ode).is_zero


def test_evolutionary_search_spans_point_laws(free_particle, ode):
    """The suppressed-xi search space contains all point-symmetry laws
    modulo the equations of motion."""
    from noether.linalg import solve_affine
    from noether.expr import mono_key
    el = euler_lagrange(free_particle)
    ev_sols = solve_noether(free_particle,
                            Ansatz(coeff_jet_order=1, suppress_xi=True))
    point_sols = solve_noether(free_particle, Ansatz())
    reduced = [reduce_mod_el(s.law.components[0], el, ode) for s in ev_sols]

    def in_span(target):
        target = reduce_mod_el(target, el, ode)
        monos = set(target.term_map())
        for r in reduced:
            monos |= set(r.term_map())
        monos = sorted(monos, key=mono_key)
        index = {m: i for i, m in enumerate(monos)}
        rows = [dict() for _ in monos]
        rhs = [Fraction(0)] * len(monos)
        for col, r in enumerate(reduced):
            for m, c in r.term_map().items():
                rows[index[m]][col] = c
        for m, c in target.term_map().items():
            rhs[index[m]] = c
        return solve_affine(list(zip(rows, rhs)), len(reduced)) is not None

    for sol in point_sols:
        assert in_span(sol.law.components[0])


# -- stored coefficient types ---------------------------------------------------

# Every loadable problem file; tests/data/unknown_variable.prob is invalid
# input by design.
LOADABLE = sorted(str(p.relative_to(ROOT))
                  for p in [*(ROOT / "problems").glob("*.prob"),
                            *(ROOT / "tests/data").glob("*.prob")]
                  if p.name != "unknown_variable.prob")


@pytest.mark.parametrize("path", LOADABLE)
def test_coefficients_are_int_or_true_fraction(path):
    """Every coefficient the pipeline stores is an int, or a Fraction only
    when it is not integral; a float would mean an inexact division."""
    problem = load_problem(str(ROOT / path))
    L = problem.lagrangian
    el = euler_lagrange(L)
    exprs = [L.body, *el.equations, *(el.solved_forms or {}).values()]
    ds = determining_system(L, problem.ansatz)
    assignments = solve(ds)
    numbers = [v for row in ds.rows for v in row.values()]
    numbers += [v for a in assignments for v in a.values()]
    for sol in materialize(L, ds, assignments):
        exprs += [*sol.generator.xi.values(), *sol.generator.eta.values(),
                  *sol.gauge, *sol.law.components]
    gens = [g for _, g in problem.candidates]
    for gauge in find_gauges(L, gens, degree=problem.ansatz.gauge_degree):
        exprs += gauge or ()
    numbers += [c for e in exprs for c in e.term_map().values()]
    assert numbers and all(is_canonical(c) for c in numbers), \
        sorted({type(c).__name__ for c in numbers if not is_canonical(c)})
