"""The Noether engine: residuals, determining systems, laws, verification."""

import traceback
from fractions import Fraction
from pathlib import Path

import pytest

from noether import (Ansatz, Expr, Generator, HeadroomError, JetSpace,
                     Lagrangian, NonSymmetryError,
                     boundary_terms, characteristics, condition_residual,
                     conservation_vector, determining_system, euler_lagrange,
                     evolutionary_form, find_gauge, find_gauges,
                     first_integral, hessian_relation_check, load_problem,
                     match_generator, parse, prolong_pde, reduce_mod_el,
                     solve, solve_noether, total_derivative, verify,
                     verify_candidate)
from noether.engine import _Packing, _system
from noether.expr import mono_degree
from noether.linalg import nullspace

import ladder
from util import (LOADABLE, bundled_solutions, constant_columns, deadline,
                  field_files, first_integral_closed_form, fresh_unknowns,
                  is_canonical, linear_gauges, monomials_upto,
                  multiplier_system, on_shell_zero, prolongation_residual,
                  rand_expr, rand_nonzero_expr, recursive_prolong,
                  scanning_fill, split_rows, template_gauge_systems,
                  template_rows)

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


def test_prolongation_matches_the_recursion(rng):
    """``prolong_pde`` at every jet below the top order and
    ``condition_residual`` with a random gauge equal the recursion that
    they replaced, for random point and jet-order-1 generators on random
    Lagrangians, in the working order ``load_problem`` gives them.  At the
    top order, a nonzero xi needs a jet one order higher."""
    cases = [(["t"], ["q"], 1), (["t"], ["q"], 2), (["t"], ["x", "y"], 1),
             (["t"], ["x", "y"], 2), (["t", "x"], ["u"], 1)]
    for independents, dependents, order in cases:
        space = JetSpace(independents, dependents, max_order=2 * order + 2)
        n = len(space.independents)
        lower = list(space.independents) + space.jet_vars(max_order=order)
        body = rand_nonzero_expr(rng, lower) + \
            Expr.variable(space.jet(0, (order,) + (0,) * (n - 1))) ** 2
        L = Lagrangian(space, order, body)
        for jet_order in (0, 1):
            vars = list(space.independents) + \
                space.jet_vars(max_order=jet_order)
            for _ in range(4):
                g = Generator(
                    xi={x: rand_expr(rng, vars) for x in space.independents},
                    eta={u: rand_expr(rng, vars) for u in space.dependents})
                gauge = [rand_expr(rng, lower) for _ in range(n)]
                assert condition_residual(L, g, gauge) == \
                    prolongation_residual(L, g, gauge)
                memo = {}
                for v in space.jet_vars(max_order=space.max_order - 1):
                    assert prolong_pde(g, v, space) == recursive_prolong(
                        g, v.dep_index, v.multi_index, space, memo)
        top = space.jet(0, (space.max_order,) + (0,) * (n - 1))
        u = space.dependents[0]
        stretch = Generator(eta={u: Expr.variable(u)})
        assert prolong_pde(stretch, top, space) == Expr.variable(top)
        translation = Generator(xi={space.independents[0]: Expr.one()})
        assert recursive_prolong(translation, 0, top.multi_index,
                                 space).is_zero
        with pytest.raises(HeadroomError):
            prolong_pde(translation, top, space)


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


def test_second_order_field_is_searched():
    """A field problem of order 2 is searched like any other shape: its
    basis is the oracle's nullspace of the template rows, less the
    gauge-only directions, and each generator found admits a gauge."""
    space = JetSpace(["t", "x"], ["u"], max_order=6)
    second = Lagrangian(space, 2, parse("1/2*u_tt^2", space))
    ds = determining_system(second, Ansatz())
    _check_search(second, Ansatz(), ds, template_rows(second, ds))


def test_ansatz_slot_count_matches_binomial(planar):
    # The bound counts C(variables + degree, degree) monomials per slot;
    # that must be what is built.  planar has t, x, y and x', y' at order 1.
    from math import comb

    for order, n_vars in ((0, 3), (1, 5)):
        for degree in range(4):
            packing = _Packing(planar, degree)
            for constant in (True, False):
                monos = packing.monomials(order, degree, constant)
                assert len(monos) == len(set(monos)) == \
                    comb(n_vars + degree, degree) - (not constant)


def test_ansatz_beyond_the_slot_bound_is_refused(free_particle,
                                                 quartic_field, pde):
    # Over x and y, degree 139 gives C(141, 139) = 9870 monomials and
    # degree 140 gives 10011, just past the bound of 10000.  A field
    # gauge slot lies over t, x and u; a time-like gauge has no slot.
    from noether.engine import MAX_SLOT_MONOMIALS
    assert MAX_SLOT_MONOMIALS == 10_000
    assert len(_Packing(free_particle, 139).monomials(0, 139)) == 9870
    with pytest.raises(ValueError, match="ansatz degree 140 over 2"):
        _Packing(free_particle, 140).monomials(0, 140)
    with pytest.raises(ValueError, match="ansatz degree 140 over 2"):
        determining_system(free_particle, Ansatz(coeff_degree=140))
    with pytest.raises(ValueError, match="ansatz degree 200 over 3"):
        find_gauge(quartic_field, gen(pde, eta={"u": "1"}), degree=200)
    with pytest.raises(ValueError, match="degree -1 must be non-negative"):
        find_gauge(quartic_field, gen(pde, eta={"u": "1"}), degree=-1)


def test_over_bound_gauge_degree_computes_no_residual(quartic_field, pde,
                                                       monkeypatch):
    """On a field problem, ``find_gauges`` sizes its packing from the
    candidates' coefficient degrees, so it refuses an over-bound gauge
    degree before any candidate's residual is computed."""
    import noether.engine as engine

    def residual(*args):
        raise AssertionError("condition_residual ran")

    monkeypatch.setattr(engine, "condition_residual", residual)
    with pytest.raises(ValueError, match=r"ansatz degree 200 over 3 .*"
                                         r"the bound is 10000"):
        find_gauges(quartic_field, [gen(pde, eta={"u": "1"})], degree=200)


@pytest.mark.parametrize("jet_order", [0, 1, 2])
@pytest.mark.parametrize("shape", [
    (["t"], ["y"]), (["t"], ["x", "y"]), (["t"], ["x", "y", "z"]),
    (["t", "x"], ["u"])])
def test_packed_monomials_match_tuple_enumerator(shape, jet_order):
    """Unpacked, a slot's packed monomials are the tuple monomials, in
    ``mono_key`` order, each once."""
    space = JetSpace(*shape, max_order=4)
    body = Expr.zero()
    for v in space.jet_vars(max_order=1):
        body = body + Expr.variable(v) ** 2
    L = Lagrangian(space, 1, body)
    for degree in range(7):
        packing = _Packing(L, degree)
        for constant in (True, False):
            got = [tuple(packing.factors(p))
                   for p in packing.monomials(jet_order, degree, constant)]
            want = monomials_upto(space, jet_order, degree, constant)
            assert got == want
            assert len(set(got)) == len(got)


def _solution_cases():
    for path in LOADABLE:
        problem = load_problem(str(ROOT / path))
        yield problem.lagrangian, problem.ansatz
    planar = load_problem(str(ROOT / "problems/free_particle_2d.prob"))
    yield planar.lagrangian, Ansatz(coeff_degree=5, coeff_jet_order=1,
                                    gauge_degree=5)


def test_solutions_match_scanning_oracle():
    """Each solution read straight from the nullspace columns equals the
    templates of the public record filled at the matching assignment:
    the same generators and gauges, term order and coefficient types."""

    def shape(e):
        return [(m, c, type(c)) for m, c in e.term_map().items()]

    cases = 0
    for L, ansatz in _solution_cases():
        ds = determining_system(L, ansatz)
        want = []
        for a in solve(ds):
            xi = {x: scanning_fill(t, a) for x, t in ds.xi_templates.items()}
            eta = {u: scanning_fill(t, a)
                   for u, t in ds.eta_templates.items()}
            gauge = [scanning_fill(t, a) for t in ds.gauge_templates]
            xi = {x: e for x, e in xi.items() if not e.is_zero}
            eta = {u: e for u, e in eta.items() if not e.is_zero}
            if xi or eta:
                want.append((xi, eta, gauge))
        got = solve_noether(L, ansatz)
        assert len(got) == len(want)
        for sol, (xi, eta, gauge) in zip(got, want):
            assert list(sol.generator.xi) == list(xi)
            assert list(sol.generator.eta) == list(eta)
            assert [shape(e) for e in sol.generator.xi.values()] == \
                [shape(e) for e in xi.values()]
            assert [shape(e) for e in sol.generator.eta.values()] == \
                [shape(e) for e in eta.values()]
            assert [shape(e) for e in sol.gauge] == [shape(e) for e in gauge]
        cases += bool(want)
    assert cases == len(LOADABLE) + 1


def test_command_paths_make_no_solver_unknowns(monkeypatch, capsys):
    """``symmetries``, ``integrals`` and ``verify`` solve on packed
    monomials alone: no ``PARAMETER`` variable is ever constructed."""
    from noether import cli
    from noether.expr import PARAMETER, VarId
    made = []
    init = VarId.__init__

    def counting(self, kind, *args, **kwargs):
        made.append(kind)
        init(self, kind, *args, **kwargs)
    monkeypatch.setattr(VarId, "__init__", counting)
    verified = 0
    for path in LOADABLE:
        commands = ["symmetries", "integrals"]
        if load_problem(str(ROOT / path)).candidates:
            commands.append("verify")
            verified += 1
        for command in commands:
            assert cli.main([command, str(ROOT / path), "--json",
                             "--deterministic"]) in (0, 1)
    capsys.readouterr()
    assert verified >= 3
    assert made and PARAMETER not in made
    determining_system(load_problem(str(ROOT / LOADABLE[0])).lagrangian,
                       Ansatz())
    assert PARAMETER in made


def test_rows_refuse_what_is_not_linear_homogeneous(ode):
    c0, c1 = fresh_unknowns(ode, 2)
    y = Expr.variable(ode.lookup("y"))
    a, b = Expr.variable(c0), Expr.variable(c1)
    assert split_rows(y * a + b * 2 + y * b, [c0, c1]) == \
        {(): {1: 2}, ((ode.lookup("y"), 1),): {0: 1, 1: 1}}
    assert list(split_rows(y * y * b + a, [c0, c1])) == \
        [(), ((ode.lookup("y"), 2),)]
    for e in (a + y, a + Expr.one(), a * a, a * b, y * a * b):
        with pytest.raises(AssertionError, match="linear and homogeneous"):
            split_rows(e, [c0, c1])


def _random_lagrangian(rng, independents, dependents, order):
    """A seeded polynomial Lagrangian of exactly the given order, with
    Fraction coefficients, on a space with the loader's headroom."""
    space = JetSpace(independents, dependents, max_order=2 * order + 2)
    jets = space.jet_vars(max_order=order)
    highest = [v for v in jets if v.order == order]
    while True:
        body = (rand_expr(rng, [*space.independents, *jets], max_degree=3)
                + Expr.variable(rng.choice(highest)) ** 2
                * Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        if body.max_jet_order() == order:
            return Lagrangian(space, order, body)


def _assembly_cases(rng):
    """(Lagrangian, ansatz) pairs: every loadable file with its own ansatz
    and three variants, the planar ladder, seeded random Lagrangians and
    Lagrangians of high degree."""
    for path in LOADABLE:
        problem = load_problem(str(ROOT / path))
        L, a = problem.lagrangian, problem.ansatz
        yield L, a
        yield L, Ansatz(coeff_degree=2, coeff_jet_order=L.order,
                        suppress_xi=True)
        yield L, Ansatz(coeff_degree=2, include_gauge=False)
        yield L, Ansatz(coeff_degree=2, coeff_jet_order=1, gauge_degree=3)
    planar = load_problem(str(ROOT / "problems/free_particle_2d.prob"))
    for d in range(2, 6):
        yield planar.lagrangian, Ansatz(coeff_degree=d, coeff_jet_order=1,
                                        gauge_degree=d)
    shapes = [(["t"], ["y"], 1), (["t"], ["x", "y"], 1), (["t"], ["y"], 2),
              (["t"], ["x", "y"], 2), (["t", "x"], ["u"], 1),
              (["t", "x"], ["u"], 2), (["t", "x"], ["u", "v"], 1),
              (["t", "x", "y"], ["u"], 1), (["t", "x"], ["u", "v"], 2),
              (["t", "x", "y"], ["u", "v"], 1)]
    for independents, dependents, order in shapes * 3:
        L = _random_lagrangian(rng, independents, dependents, order)
        yield L, Ansatz(coeff_degree=rng.randint(0, 2),
                        coeff_jet_order=rng.randint(0, min(order, 1)),
                        gauge_degree=rng.randint(0, 3),
                        include_gauge=rng.random() < 0.8,
                        suppress_xi=rng.random() < 0.3)
    space = JetSpace(["t"], ["y"], max_order=4)
    # Too narrow a field would reorder or merge the rows of the first.
    for text in ("1/2*y'^2 + y^30 + t^30", "1/2*y'^2 - 2/3*t*y^29*y'"):
        L = Lagrangian(space, 1, parse(text, space))
        yield L, Ansatz(coeff_degree=2)
        yield L, Ansatz(coeff_degree=1, coeff_jet_order=1, gauge_degree=31)


def _check_search(L, ansatz, ds, rows):
    """``solve_noether`` gives one solution per basis vector of the
    nullspace of ``rows``, the oracle's rows of ``ds``, whose generator
    columns are not all zero; each law is accepted by Noether's identity
    alone, and ``find_gauges`` fits a gauge to every generator found in
    the search's own gauge space."""
    import noether.engine as engine
    from noether.linalg import nullspace
    n_gen = sum(map(len, [*ds.xi_templates.values(),
                          *ds.eta_templates.values()]))
    want = sum(min(vec) < n_gen for vec in nullspace(rows, len(ds.unknowns)))
    identity, identities = engine._noether_residual, []

    def counting(*args):
        identities.append(args)
        return identity(*args)

    def refused(*args):
        raise AssertionError("a law was built through condition_residual")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_noether_residual", counting)
        mp.setattr(engine, "condition_residual", refused)
        sols = solve_noether(L, ansatz)
    assert len(sols) == len(identities) == want
    gauges = find_gauges(L, [s.generator for s in sols],
                         degree=ansatz.gauge_degree,
                         jet_order=ansatz.resolved_gauge_jet_order(L))
    assert None not in gauges


def test_assembly_matches_template_rows(rng):
    """The rows assembled column by column equal, row for row and with
    equal entry types, those split from the templates' residual; on every
    shape, each solution of those rows is found and certified."""
    cases = 0
    for L, ansatz in _assembly_cases(rng):
        ds = determining_system(L, ansatz)
        want = template_rows(L, ds)
        assert ds.rows == want
        assert [{c: type(v) for c, v in row.items()} for row in ds.rows] == \
            [{c: type(v) for c, v in row.items()} for row in want]
        _check_search(L, ansatz, ds, want)
        cases += 1
    assert cases == 4 * len(LOADABLE) + 4 + 30 + 4


def test_solver_rows_are_ints_scaled_back_for_the_record(rng):
    """``_system`` hands the solvers rows of ints, the residual's rows times
    one scale; ``determining_system`` divides each entry back, so its rows
    keep their values, canonical types and key order."""

    def canonical(f):
        return f.numerator if f.denominator == 1 else f

    scales = []
    for L, ansatz in _assembly_cases(rng):
        rows, _, scale, *_ = _system(L, ansatz)
        assert all(v.__class__ is int for row in rows for v in row.values())
        want = [[(c, canonical(Fraction(v, scale))) for c, v in row.items()]
                for row in rows]
        got = determining_system(L, ansatz).rows
        assert [list(row.items()) for row in got] == want
        assert [[type(v) for v in row.values()] for row in got] == \
            [[type(v) for _, v in row] for row in want]
        scales.append(scale)
    assert len(scales) == 4 * len(LOADABLE) + 4 + 30 + 4
    assert 1 in scales and max(scales) > 2


def test_assembly_refuses_a_derivative_past_the_working_order():
    """A D^nu inside the assembly that reaches past the space's working
    order raises HeadroomError there, in the search and in a field
    problem's gauge solve, with the jet space's own message, and none for
    an empty slot.  A time-like gauge solve assembles nothing and reads no
    jet order."""
    ode = JetSpace(["t"], ["y"], max_order=4)
    free = Lagrangian(ode, 1, parse("1/2*y'^2", ode))
    tight = JetSpace(["t"], ["y"], max_order=1)
    pde = JetSpace(["t", "x"], ["u"], max_order=2)
    wave = Lagrangian(pde, 1, parse("1/2*u_t^2 - 1/2*u_x^2", pde))
    calls = [
        (lambda: solve_noether(free, Ansatz(coeff_degree=1, gauge_degree=1,
                                            gauge_jet_order=4)), 5, 4,
         "_assemble"),
        (lambda: determining_system(free, Ansatz(gauge_jet_order=4)), 5, 4,
         "_assemble"),
        (lambda: solve_noether(
            Lagrangian(tight, 1, parse("1/2*y'^2", tight)),
            Ansatz(coeff_degree=1, coeff_jet_order=1, include_gauge=False)),
         2, 1, "_assemble"),
        (lambda: find_gauges(wave, [gen(pde, eta={"u": "1"})], degree=1,
                             jet_order=2), 3, 2, "_assemble")]
    for call, order, working, where in calls:
        with pytest.raises(HeadroomError) as err:
            call()
        assert str(err.value) == \
            f"derivative order {order} exceeds working order {working}"
        assert where in [frame.name for frame
                         in traceback.extract_tb(err.tb)]
    for L, space, name in ((free, ode, "y"), (wave, pde, "u")):
        assert find_gauges(L, [gen(space, eta={name: "1"})], degree=0,
                           jet_order=4) == [(Expr.zero(),) * len(
                               space.independents)]


def test_gauge_systems_match_template_path(monkeypatch, tmp_path):
    """On a field problem, ``find_gauges`` eliminates, row for row, the
    system split from the gauge templates' divergence and the candidates'
    residuals, each candidate's residual in its own constant column."""
    import noether.engine as engine
    eliminate, seen = engine.solve_affine_many, []
    monkeypatch.setattr(engine, "solve_affine_many",
                        lambda rows, n_cols, n_rhs: seen.append(
                            (rows, n_cols)) or eliminate(rows, n_cols, n_rhs))
    cases = []
    for path in field_files(tmp_path):
        problem = load_problem(str(path))
        cases.append((problem.lagrangian,
                      [g for _, g in problem.candidates], 4))
    pde = JetSpace(["t", "x"], ["u"], max_order=4)
    quartic = Lagrangian(pde, 1, parse("1/12*u_x^4 + 1/2*u_t^2", pde))
    # Residuals of degree up to 13 and 32 over gauges of degree 2 and 4.
    gens = [Generator(eta={pde.dependents[0]: parse(text, pde)})
            for text in ("u^9*u_t + t*u_x^9", "u^20*t^9", "u")]
    cases += [(quartic, gens, 2), (quartic, gens, 4)]
    for L, gens, degree in cases:
        seen.clear()
        find_gauges(L, gens, degree=degree)
        want = [(constant_columns(system, n_cols), n_cols) for system, n_cols
                in template_gauge_systems(L, gens, degree)]
        assert len(seen) == 1 and seen == want
        assert [{c: type(v) for c, v in row.items()}
                for rows, _ in seen for row in rows] == \
            [{c: type(v) for c, v in row.items()}
             for rows, _ in want for row in rows]
    assert len(cases) == 5


def _time_like_candidates(rng, tmp_path):
    """(Lagrangian, candidates) for every time-like bundled and
    ``tests/data`` file, its candidates being its own, the generators its
    search finds and two seeded random ones; for the bench's verify file
    at seeds 1-5; and for the free particle with eta = y'^5, whose gauge
    5/6*y'^6 has degree 6 and jet order 1, and eta = x*y'^2, whose
    residual 2*x*y'^2*y'' + y'^3 is no total derivative."""
    for _, problem, solutions in bundled_solutions():
        L = problem.lagrangian
        if not L.space.is_ode:
            continue
        vars = [*L.space.independents, *L.space.jet_vars(max_order=L.order)]
        drawn = [Generator(xi={x: rand_expr(rng, vars, 2, 2)
                               for x in L.space.independents},
                           eta={u: rand_expr(rng, vars, 3, 3)
                                for u in L.space.dependents})
                 for _ in range(2)]
        yield L, [*(g for _, g in problem.candidates),
                  *(s.generator for s in solutions), *drawn]
    for seed in range(1, 6):
        jobs = ladder.prepare("verify", seed, tmp_path / str(seed))
        job, = [job for job in jobs if job.seeded]
        problem = load_problem(str(tmp_path / str(seed) / job.path))
        yield problem.lagrangian, [g for _, g in problem.candidates]
    ode = JetSpace(["x"], ["y"], max_order=4)
    yield (Lagrangian(ode, 1, parse("1/2*y'^2", ode)),
           [gen(ode, eta={"y": "y'^5"}), gen(ode, eta={"y": "x*y'^2"})])


def test_time_like_gauges_match_the_linear_system(rng, tmp_path):
    """On a time-like problem the gauge is the antiderivative of the
    candidate's residual, found under no cap.  At gauge degrees 2, 4 and
    6, at the default jet order and at jet order 0: where the linear
    system over that gauge slot finds a gauge, ``find_gauges`` returns it
    with the same terms in the same order; where it finds none,
    ``find_gauges`` returns None or a gauge beyond the slot, in degree or
    in jet order."""
    counts = {"equal": 0, "none": 0, "beyond": 0}
    for L, gens in _time_like_candidates(rng, tmp_path):
        got = find_gauges(L, gens)
        for degree in (2, 4, 6):
            for jet_order in (None, 0):
                want = linear_gauges(L, gens, degree, jet_order)
                for g, F, W in zip(gens, got, want):
                    if W is not None:
                        assert F == W
                        assert [list(e.term_map()) for e in F] == \
                            [list(e.term_map()) for e in W]
                        counts["equal"] += 1
                    elif F is None:
                        counts["none"] += 1
                    else:
                        f, = F
                        order = (max(L.order - 1, g.dependence_order)
                                 if jet_order is None else jet_order)
                        assert (max(map(mono_degree, f.term_map())) > degree
                                or f.max_jet_order() > order)
                        counts["beyond"] += 1
    assert counts["equal"] >= 300 and counts["none"] >= 100 \
        and counts["beyond"] >= 20, counts


def test_a_residual_that_is_no_total_derivative_is_refused_at_once(
        monkeypatch):
    """u'*v + 2*u*v' is no total derivative.  One sweep over u and v at
    order 1 leaves -u'*v, so sweeping again would never end; one sweep
    per order refuses it."""
    import noether.engine as engine
    space = JetSpace(["t"], ["u", "v"], max_order=4)
    L = Lagrangian(space, 1, parse("1/2*u'^2 + 1/2*v'^2", space))
    monkeypatch.setattr(engine, "condition_residual",
                        lambda L, g: parse("u'*v + 2*u*v'", space))
    with deadline(1):
        assert find_gauges(L, [Generator()], degree=6) == [None]


def test_a_residual_nonlinear_in_its_top_jet_is_refused_there():
    """y''^2, the residual of eta = y on L = 1/2*y''^2, is nonlinear in
    its top jet, so it is no total derivative.  With no room above that
    jet, it is refused before anything is integrated in it: its
    integral's total derivative would need y'''."""
    space = JetSpace(["t"], ["y"], max_order=2)
    L = Lagrangian(space, 2, parse("1/2*y''^2", space))
    g = gen(space, eta={"y": "y"})
    assert condition_residual(L, g) == parse("y''^2", space)
    assert find_gauges(L, [g]) == linear_gauges(L, [g]) == [None]


@pytest.mark.parametrize("lagrangian,order,eta", [
    ("1/2*y'^2", 1, "y'''"), ("1/2*y''^2", 2, "y''''")])
def test_candidate_at_headroom_is_integrated(tmp_path, lagrangian, order,
                                             eta):
    """A candidate at the top of the order its file allows has a residual
    at the working order: its integration stays within that order, and
    gives the linear system's verdicts."""
    edge = tmp_path / "edge.prob"
    edge.write_text(f"[problem]\nindependents = x\ndependents = y\n"
                    f"lagrangian = {lagrangian}\norder = {order}\n\n"
                    f"[generators]\nG1 = eta: {eta}\nG2 = eta: 1\n")
    problem = load_problem(str(edge))
    L, gens = problem.lagrangian, [g for _, g in problem.candidates]
    assert condition_residual(L, gens[0]).max_jet_order() == \
        L.space.max_order
    for degree in (2, 4):
        assert find_gauges(L, gens, degree=degree) == \
            linear_gauges(L, gens, degree)


def test_find_gauges_with_high_degree_candidates():
    """Candidates whose residuals reach degree 30, and gauges of degree
    28, keep the verdicts and gauges of the template path, which needs
    gauge degree 28 for them; the integration needs no gauge degree."""
    ode = JetSpace(["t"], ["y"], max_order=4)
    t, y = ode.independents[0], ode.dependents[0]

    def g(xi=None, eta=None):
        return Generator(xi={t: parse(xi, ode)} if xi else {},
                         eta={y: parse(eta, ode)} if eta else {})

    def strs(gauges):
        return [gauge and [str(e) for e in gauge] for gauge in gauges]

    free = Lagrangian(ode, 1, parse("1/2*y'^2", ode))
    gens = [g(eta="y^20*t^9"), g(eta="t"), g(xi="t^2", eta="t*y"),
            g(eta="y")]
    for degree in (4, 30):
        assert strs(find_gauges(free, gens, degree=degree)) == \
            [None, ["y"], ["1/2*y^2"], None]
    # L = 1/2*y'^2 + D_t(y^20*t^9)
    shifted = Lagrangian(ode, 1, parse(
        "1/2*y'^2 + 20*y^19*y'*t^9 + 9*y^20*t^8", ode))
    gens = [g(eta="1"), g(eta="y^20*t^9"), g(xi="1")]
    for degree in (28, 27):
        assert strs(find_gauges(shifted, gens, degree=degree)) == \
            [["20*t^9*y^19"], None, ["9*t^8*y^20"]]


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


def test_a_wrong_boundary_term_is_refused(monkeypatch):
    """A law off by a term that is not conserved fails Noether's identity.
    With the dependent variable added to boundary term 0, the oscillator's
    search would return 1/2*q^2 + 1/2*q'^2 - q if only the invariance
    residual were checked, and the field's search failed an internal
    assertion: both refuse the law as a non-symmetry."""
    from noether import engine
    original = engine._boundary_terms

    def wrong(L, qs):
        b = original(L, qs)
        b[0] = b[0] + Expr.variable(L.space.dependents[0])
        return b
    monkeypatch.setattr(engine, "_boundary_terms", wrong)
    for name in ("harmonic_oscillator", "quartic_field"):
        problem = load_problem(str(ROOT / "problems" / f"{name}.prob"))
        with pytest.raises(NonSymmetryError, match="not a Noether symmetry"):
            solve_noether(problem.lagrangian, problem.ansatz)


def test_noether_identity_is_the_invariance_residual(rng):
    """On every bundled and tests/data Lagrangian that loads, for seeded
    random generators (point, jet order 1, and generalised up to the
    headroom ``load_problem`` allows, such as eta_y: y''' at order 1) and
    random gauges F, the law P_j = F_j - (xi_j L + b_j) has Q.E(L) - Div P
    equal to ``condition_residual(L, g, F)``: the same term map with the
    same coefficient types.  The law builders refuse each non-symmetry
    with the message that residual gives."""
    from noether.engine import _noether_residual

    def typed(e):
        return {m: (c, type(c)) for m, c in e.term_map().items()}

    paths = [*sorted((ROOT / "problems").glob("*.prob")),
             *sorted((ROOT / "tests" / "data").glob("*.prob"))]
    refused = 0
    for path in paths:
        if path.name == "unknown_variable.prob":   # refused at load
            continue
        L = load_problem(str(path)).lagrangian
        space, xs = L.space, L.space.independents
        headroom = space.max_order - L.order
        gauge_vars = [*xs, *space.jet_vars(max_order=space.max_order - 1)]
        for jet_order in sorted({0, 1, headroom}):
            vars = [*xs, *space.jet_vars(max_order=jet_order)]
            for _ in range(5):
                g = Generator(
                    xi={x: rand_expr(rng, vars) for x in xs},
                    eta={u: rand_expr(rng, vars) for u in space.dependents})
                F = [rand_expr(rng, gauge_vars) for _ in xs]
                b = boundary_terms(L, g)
                P = [f - (g.xi_of(x) * L.body + b_j)
                     for f, x, b_j in zip(F, xs, b)]
                expected = condition_residual(L, g, F)
                residual = _noether_residual(L, characteristics(g, space), P)
                assert typed(residual) == typed(expected), path.name
                if expected.is_zero:
                    continue
                with pytest.raises(NonSymmetryError) as err:
                    if space.is_ode:
                        first_integral(L, g, F[0])
                    else:
                        conservation_vector(L, g, F)
                assert str(err.value) == ("candidate is not a Noether "
                                          f"symmetry; residual {expected}")
                refused += 1
    assert refused > 100   # of 135 draws: most are not symmetries


def _divergence_product_is_null(L, g):
    """Whether E(Q.E(L)) vanishes identically, Q_i = eta_i - sum_j xi_j
    u_i,j the characteristic of g: the printed product is parsed again as
    the body of a Lagrangian over a jet space with room for its
    Euler-Lagrange expressions, twice its jet order (Anco and Bluman, Eur.
    J. Appl. Math. 13, 2002)."""
    space, n = L.space, len(L.space.independents)
    product = Expr.zero()
    for i, (u, e) in enumerate(zip(space.dependents, euler_lagrange(L).raw)):
        q = g.eta_of(u)
        for j, x in enumerate(space.independents):
            u_j = space.jet(i, tuple(int(a == j) for a in range(n)))
            q = q - g.xi_of(x) * Expr.variable(u_j)
        product = product + q * e
    if product.is_zero:
        return True
    order = max(product.max_jet_order(), 1)
    room = JetSpace([x.name for x in space.independents],
                    [u.name for u in space.dependents], max_order=2 * order)
    body = Lagrangian(room, order, parse(str(product), room))
    return all(e.is_zero for e in euler_lagrange(body).raw)


def test_every_law_has_a_divergence_product():
    """Anco-Bluman: Q.E(L) is a total divergence, so its own Euler-Lagrange
    expressions E_u(Q.E(L)) vanish identically, for the characteristic Q_i
    = eta_i - sum_j xi_j u_i,j of every law ``solve_noether`` returns on
    the bundled and tests/data problems at their own [ansatz].  The check
    reads only the generator, not the law."""
    checked = 0
    for path, problem, solutions in bundled_solutions():
        for sol in solutions:
            g = sol.generator
            assert _divergence_product_is_null(problem.lagrangian, g), \
                (path, str(g.eta), str(g.xi))
            checked += 1
    assert checked == 72


def test_time_like_verify_accepts_exactly_the_null_divergence_products(
        rng, tmp_path):
    """A time-like ``verify`` accepts a candidate, ``find_gauges`` giving
    it a gauge, exactly when E(Q.E(L)) vanishes identically, whatever the
    degree and jet order of that gauge: on every candidate of
    ``_time_like_candidates``, eta = y'^5 (gauge 5/6*y'^6) and eta =
    x*y'^2 on the free particle among them.  The oracle reads only the
    generator and never integrates."""
    counts = {True: 0, False: 0}
    for L, gens in _time_like_candidates(rng, tmp_path):
        for g, F in zip(gens, find_gauges(L, gens)):
            null = _divergence_product_is_null(L, g)
            assert (F is not None) == null, (str(g.xi), str(g.eta))
            counts[null] += 1
    assert counts[True] >= 60 and counts[False] >= 20, counts


def test_listed_characteristics_span_the_multiplier_nullspace():
    """The search finds every characteristic of its coefficient ansatz:
    in evolutionary form at coefficient degree 2 and jet order L.order,
    with the gauge at degree deg L + 1 and jet order 2*L.order - 1, the
    rank of the listed characteristics equals the nullity of the
    multiplier system E(Q.E(L)) = 0 over the same Q ansatz, which holds no
    gauge unknowns.  The rank, not the count: field problems list one
    characteristic with gauges that differ by a divergence-free field."""
    total = 0
    for path in LOADABLE:
        L = load_problem(str(ROOT / path)).lagrangian
        rows, unknowns = multiplier_system(L, 2, L.order)
        nullity = len(nullspace(rows, len(unknowns)))
        degree = max(map(mono_degree, L.body.term_map()))
        ansatz = Ansatz(coeff_degree=2, coeff_jet_order=L.order,
                        gauge_degree=degree + 1,
                        gauge_jet_order=2 * L.order - 1, suppress_xi=True)
        columns, listed = {}, []
        for sol in solve_noether(L, ansatz):
            qs = characteristics(sol.generator, L.space)
            listed.append({columns.setdefault((i, mono), len(columns)): c
                           for i, q in enumerate(qs)
                           for mono, c in q.term_map().items()})
        assert len(columns) - len(nullspace(listed, len(columns))) \
            == nullity, path
        total += nullity
    assert total == 79


@pytest.mark.parametrize("d,expected", [(1, 55), (2, 73)])
def test_listed_point_generators_span_the_point_multiplier_nullspace(
        d, expected):
    """The point search finds every variational point symmetry of its
    ansatz: at coefficient degree d and jet order 0, with the gauge at
    degree d + deg L and jet order 2*L.order - 1, the rank of the listed
    (xi, eta) equals the nullity of the multiplier system E(Q.E(L)) = 0,
    Q_i = eta_i - sum_j xi_j u_i,j over the same xi and eta templates.
    This runs the xi slots and their Leibniz factors, which the
    evolutionary-form search never builds."""
    total = 0
    for path in LOADABLE:
        L = load_problem(str(ROOT / path)).lagrangian
        rows, unknowns = multiplier_system(L, d, 0, point=True)
        nullity = len(nullspace(rows, len(unknowns)))
        degree = max(map(mono_degree, L.body.term_map()))
        ansatz = Ansatz(coeff_degree=d, coeff_jet_order=0,
                        gauge_degree=d + degree,
                        gauge_jet_order=2 * L.order - 1)
        columns, listed = {}, []
        for sol in solve_noether(L, ansatz):
            g = sol.generator
            listed.append({columns.setdefault((kind, v, mono), len(columns)): c
                           for kind, coeffs in (("xi", g.xi), ("eta", g.eta))
                           for v, e in coeffs.items()
                           for mono, c in e.term_map().items()})
        assert len(columns) - len(nullspace(listed, len(columns))) \
            == nullity, path
        total += nullity
    assert total == expected


def test_law_equals_the_unscaled_formula(rng):
    """``_law`` works on k*g and k*F, k an lcm of denominators, and
    divides each component by k at the end; the law equals the unscaled
    F_j - (xi_j L + b_j) in value, coefficient type and term order.  On
    ``solve_noether``'s basis for every loadable file, and on seeded
    rational combinations of it with the gauge ``find_gauge`` fits, as
    ``verify`` builds them."""
    from noether.engine import _law

    def typed(P):
        return [[(m, c, type(c)) for m, c in p.term_map().items()]
                for p in P]

    def combined(exprs, weights):
        return sum((e * w for e, w in zip(exprs, weights)), Expr.zero())

    cases = 0
    for path in LOADABLE:
        problem = load_problem(str(ROOT / path))
        L, ansatz = problem.lagrangian, problem.ansatz
        xs, us = L.space.independents, L.space.dependents
        sols = solve_noether(L, ansatz)
        pairs = [(s.generator, s.gauge) for s in sols]
        for _ in range(3 if sols else 0):
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in sols]
            gens = [s.generator for s in sols]
            g = Generator(
                xi={x: combined([h.xi_of(x) for h in gens], weights)
                    for x in xs},
                eta={u: combined([h.eta_of(u) for h in gens], weights)
                     for u in us})
            if not g.is_zero:
                pairs.append((g, find_gauge(
                    L, g, degree=ansatz.gauge_degree,
                    jet_order=ansatz.resolved_gauge_jet_order(L))))
        for g, F in pairs:
            b = boundary_terms(L, g)
            want = [f - (g.xi_of(x) * L.body + b_j)
                    for f, x, b_j in zip(F, xs, b)]
            assert typed(_law(L, g, F).components) == typed(want), path
            cases += 1
    assert cases > 100


def test_pde_solving_mode(quartic_field, pde):
    """The quartic field's search at degree 2: five basis laws, which span
    its local symmetries and the one local stretching."""
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
    law = ConservationLaw((parse("q'^2", s),))
    report = verify(law, el, s)
    assert report.ok is None
    assert report.residual == parse("2*q'*q''", s)


def test_verify_reports(free_particle, ode):
    el = euler_lagrange(free_particle)
    from noether import ConservationLaw
    good = ConservationLaw((parse("1/2*y'^2", ode),))
    rep = verify(good, el, ode)
    assert rep.ok and rep.residual.is_zero
    bad = ConservationLaw((parse("y", ode),))
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
    # A time-like gauge is integrated, so no gauge degree changes it.
    ("problems/free_particle.prob", {4: "AAAAA", 0: "AAAAA"}),
    ("problems/quartic_field.prob", {4: "AAAARR", 0: "AAARRR"}),
    ("tests/data/verify_batch.prob", {4: "AARA", 0: "AARA"}),
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
            if degree == 0 and not L.space.is_ode:   # no gauge monomials
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
    """A random rational combination of the basis generators is matched,
    with the same combination of the basis gauges, and is a symmetry."""
    sols = solve_noether(free_particle, Ansatz())
    space = free_particle.space
    x, y = space.independents[0], space.dependents[0]
    for _ in range(10):
        weights = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in sols]

        def combined(part):
            return sum((part(s) * w for s, w in zip(sols, weights)),
                       Expr.zero())
        xi = combined(lambda s: s.generator.xi_of(x))
        eta = combined(lambda s: s.generator.eta_of(y))
        target = Generator(xi={x: xi}, eta={y: eta})
        combo = match_generator(free_particle, sols, target)
        assert combo.generator == target
        assert combo.gauge == (combined(lambda s: s.gauge[0]),)
        assert condition_residual(free_particle, combo.generator,
                                  combo.gauge).is_zero


@pytest.mark.parametrize("path,f,gauge_degree,count", [
    ("problems/harmonic_oscillator.prob", "t*q", 3, 1),
    ("problems/free_particle_2d.prob", "t*x*y", 4, 8),
    ("problems/quartic_field.prob", "t*u^2", 4, 5),
])
def test_null_lagrangian_keeps_the_generators(path, f, gauge_degree, count):
    """L and L' = L + D_t f have the same Euler-Lagrange expressions
    (Olver, Thm 4.7), so the same generators: a symmetry of L with gauge F
    is one of L' with gauge F + pr v(f), whose degree is the coefficient
    degree, 2, plus deg f - 1.  Each search's generators lie in the
    other's span, matched both ways by ``match_generator``."""
    L = load_problem(str(ROOT / path)).lagrangian
    space = L.space
    null = total_derivative(parse(f, space), space.independents[0], space)
    L_null = Lagrangian(space, L.order, L.body + null)
    ansatz = Ansatz(coeff_degree=2, gauge_degree=gauge_degree)
    sols, sols_null = solve_noether(L, ansatz), solve_noether(L_null, ansatz)
    assert len(sols) == len(sols_null) == count
    for lagrangian, basis, others in ((L_null, sols_null, sols),
                                      (L, sols, sols_null)):
        for sol in others:
            matched = match_generator(lagrangian, basis, sol.generator)
            assert matched is not None
            assert matched.generator == sol.generator


def test_null_lagrangian_in_every_direction_keeps_the_generators(rng):
    """As above with a seeded f = (f_1, ..., f_n), one non-constant
    component per independent over the independents and dependents, and
    L' = L + sum_j D_j f_j, on every loadable file.  A symmetry of L with
    gauge F is one of L' with gauge F plus a shift: pr v(f) on a time-like
    problem, and on a field problem pr v(f_i) + sum_j (xi_i D_j f_j -
    xi_j D_j f_i), which holds first derivatives.  The gauge ansatz holds
    every shift and no more: degree 1 + deg f on a time-like problem, and
    2 + deg f at jet order 1 on a field problem."""
    for path in LOADABLE:
        L = load_problem(str(ROOT / path)).lagrangian
        space = L.space
        fs = []
        for _ in space.independents:
            f = Expr.zero()
            while f.is_constant:
                f = rand_expr(rng, [*space.independents, *space.dependents])
            fs.append(f)
        null = Expr.zero()
        for f, x in zip(fs, space.independents):
            null = null + total_derivative(f, x, space)
        assert not null.is_zero
        L_null = Lagrangian(space, L.order, L.body + null)
        degree = max(mono_degree(m) for f in fs for m in f.term_map())
        ansatz = Ansatz(coeff_degree=2,
                        gauge_degree=degree + (1 if space.is_ode else 2),
                        gauge_jet_order=None if space.is_ode else 1)
        sols = solve_noether(L, ansatz)
        sols_null = solve_noether(L_null, ansatz)
        assert sols and sols_null
        for lagrangian, basis, others in ((L_null, sols_null, sols),
                                          (L, sols, sols_null)):
            for sol in others:
                matched = match_generator(lagrangian, basis, sol.generator)
                assert matched is not None, path
                assert matched.generator == sol.generator


def test_law_scaling_linearity(free_particle, ode):
    g = gen(ode, xi={"x": "x^2"}, eta={"y": "x*y"})
    f = parse("1/2*y^2", ode)
    base = first_integral(free_particle, g, f).components[0]
    c = Fraction(3, 7)
    g_c = Generator(xi={x: e * c for x, e in g.xi.items()},
                    eta={u: e * c for u, e in g.eta.items()})
    scaled = first_integral(free_particle, g_c, f * c).components[0]
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
    modulo the equations of motion.  On every loadable time-like file, the
    characteristics of the point search lie in the span of the
    evolutionary search's, by exact rank.  The evolutionary search runs at
    its default gauge jet order, which must absorb the derivative
    dependence the characteristics pick up: a gauge one order lower misses
    point laws on every one of these files."""
    from noether.linalg import solve_affine_many
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
        # The last column, the negated target, is the constant.
        for col, r in enumerate([*reduced, -target]):
            for m, c in r.term_map().items():
                rows[index[m]][col] = c
        return solve_affine_many(rows, len(reduced), 1)[0] is not None

    for sol in point_sols:
        assert in_span(sol.law.components[0])

    def rank(columns):
        index, rows = {}, []
        for col, qs in enumerate(columns):
            for i, q in enumerate(qs):
                for m, c in q.term_map().items():
                    if (i, m) not in index:
                        index[(i, m)] = len(rows)
                        rows.append({})
                    rows[index[(i, m)]][col] = c
        return len(columns) - len(nullspace(rows, len(columns)))

    checked = 0
    for path in LOADABLE:
        L = load_problem(str(ROOT / path)).lagrangian
        if not L.space.is_ode:
            continue
        point = solve_noether(L, Ansatz(coeff_degree=2, gauge_degree=4))
        evolutionary = solve_noether(L, Ansatz(
            coeff_degree=3, coeff_jet_order=L.order, gauge_degree=5,
            suppress_xi=True))
        ev = [characteristics(s.generator, L.space) for s in evolutionary]
        both = ev + [characteristics(s.generator, L.space) for s in point]
        assert point, path
        assert rank(ev) == rank(both), path
        checked += 1
    assert checked == 9


# -- stored coefficient types ---------------------------------------------------

@pytest.mark.parametrize("path", LOADABLE)
def test_coefficients_are_int_or_true_fraction(path):
    """Every coefficient the pipeline stores is an int, or a Fraction only
    when it is not integral; a float would mean an inexact division."""
    problem = load_problem(str(ROOT / path))
    L = problem.lagrangian
    el = euler_lagrange(L)
    exprs = [L.body, *el.equations, *(el.solved_forms or {}).values()]
    ds = determining_system(L, problem.ansatz)
    numbers = [v for row in ds.rows for v in row.values()]
    numbers += [v for a in solve(ds) for v in a.values()]
    for sol in solve_noether(L, problem.ansatz):
        exprs += [*sol.generator.xi.values(), *sol.generator.eta.values(),
                  *sol.gauge, *sol.law.components]
    gens = [g for _, g in problem.candidates]
    for gauge in find_gauges(L, gens, degree=problem.ansatz.gauge_degree):
        exprs += gauge or ()
    numbers += [c for e in exprs for c in e.term_map().values()]
    assert numbers and all(is_canonical(c) for c in numbers), \
        sorted({type(c).__name__ for c in numbers if not is_canonical(c)})


def test_law_builders_refuse_the_other_kind_of_problem(free_particle,
                                                       quartic_field):
    with pytest.raises(ValueError) as caught:
        first_integral(quartic_field, Generator(), Expr.zero())
    assert str(caught.value) == \
        "first_integral applies to single-independent problems"
    with pytest.raises(ValueError) as caught:
        conservation_vector(free_particle, Generator(), [Expr.zero()])
    assert str(caught.value) == "conservation_vector applies to PDE problems"


@pytest.mark.parametrize("field, message", [
    ("coeff_degree", "ansatz degree must be non-negative"),
    ("gauge_degree", "gauge degree must be non-negative"),
    ("coeff_jet_order", "ansatz jet order must be non-negative"),
    ("gauge_jet_order", "gauge jet order must be non-negative"),
])
def test_ansatz_refuses_a_negative_field(field, message):
    with pytest.raises(ValueError) as caught:
        Ansatz(**{field: -1})
    assert str(caught.value) == message
