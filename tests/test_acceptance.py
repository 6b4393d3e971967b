"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either a classical result reproduced by hand
(translation/scaling/projective symmetries of free particles and of the
second-order chain Lagrangian, the quartic field's four local laws, the
Lorentz, conformal, phase and Galilean symmetries of criterion 9) or is
pinned against an independent oracle implemented in ``util``: the
closed-form prolongation sum, the direct double-sum first-integral
expansion, and on-shell checks by plain substitution.  Exact equality means
canonical-form equality over the rationals; no tolerances apply to the
symbolic criteria.  The numeric criterion uses the stated defaults:
relative drift at most 1e-8 over horizon 10 at step 1e-3.
"""

import time
from fractions import Fraction
from pathlib import Path

from noether import (Ansatz, ConservationLaw, Expr, JetSpace, Lagrangian,
                     NumericConfig, drift_report, euler_lagrange, find_gauge,
                     integrate_el, load_problem, match_generator, parse,
                     seeded_initial_conditions, solve_noether, verify,
                     verify_candidate)

import test_engine
import test_expr
import test_jets
import test_variational
from test_engine import CHAIN_TABLE, FIELD_CANDIDATES, FREE_TABLE, PLANAR_TABLE, gen
from util import on_shell_zero


def _report(name, started):
    print(f"PASS {name} ({time.monotonic() - started:.2f}s)")


def test_criterion_1_free_particle_full_basis():
    started = time.monotonic()
    space = JetSpace(["x"], ["y"], max_order=4)
    L = Lagrangian(space, 1, parse("1/2*y'^2", space))
    sols = solve_noether(L, Ansatz())
    assert len(sols) == 5
    for (xi_s, eta_s), gauge_s, law_s in FREE_TABLE:
        target = gen(space, xi={"x": xi_s}, eta={"y": eta_s})
        m = match_generator(L, sols, target)
        assert m is not None, f"generator ({xi_s}, {eta_s}) not in span"
        assert m.law.components[0] == parse(law_s, space)
    # the projective symmetry's integral is the perfect square
    proj = match_generator(L, sols, gen(space, xi={"x": "x^2"},
                                        eta={"y": "x*y"}))
    half = Fraction(1, 2)
    square = (parse("y - x*y'", space) ** 2) * half
    assert proj.law.components[0] == square
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report("criterion 1: free particle 5-dimensional basis, exact table",
            started)


def test_criterion_2_gauge_omission():
    started = time.monotonic()
    space = JetSpace(["x"], ["y"], max_order=4)
    L = Lagrangian(space, 1, parse("1/2*y'^2", space))
    sols = solve_noether(L, Ansatz(include_gauge=False))
    assert len(sols) == 3
    expected = {("1", "0"), ("0", "1"), ("x", "1/2*y")}
    for xi_s, eta_s in expected:
        target = gen(space, xi={"x": xi_s}, eta={"y": eta_s})
        assert match_generator(L, sols, target) is not None
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _report("criterion 2: gauge omission leaves a 3-dimensional basis",
            started)


def test_criterion_3_second_order_chain():
    started = time.monotonic()
    space = JetSpace(["x"], ["y"], max_order=6)
    L = Lagrangian(space, 2, parse("1/2*y''^2", space))
    el = euler_lagrange(L)
    sols = solve_noether(L, Ansatz())
    assert len(sols) == 7
    # gauge functions of the quadratic, cubic and projective entries; the
    # quadratic-shift gauge is 2y' (its printed variant 2xy' fails the
    # invariance condition identically and cannot be a gauge for x^2 d_y)
    gauges = {("0", "x^2"): "2*y'", ("0", "x^3"): "6*x*y' - 6*y",
              ("x^2", "3*x*y"): "2*y'^2"}
    matched = {}
    for (xi_s, eta_s), gauge_s, law_s in CHAIN_TABLE:
        target = gen(space, xi={"x": xi_s}, eta={"y": eta_s})
        m = match_generator(L, sols, target)
        assert m is not None
        matched[(xi_s, eta_s)] = m
        assert m.gauge[0] == parse(gauge_s, space)
        assert m.law.components[0] == parse(law_s, space)
        # every synthesized integral is exactly conserved on shell
        report = verify(m.law, el, space)
        assert report.ok and report.residual.is_zero
        from noether import total_derivative
        dI = total_derivative(m.law.components[0], space.independents[0], space)
        assert on_shell_zero(dI, space, {space.lookup("y''''"): Expr.zero()})
    for key, gauge_s in gauges.items():
        assert matched[key].gauge[0] == parse(gauge_s, space)
    # the first two integrals in their classical printed form
    assert matched[("0", "1")].law.components[0] == parse("y'''", space)
    assert matched[("0", "x")].law.components[0] == parse("x*y''' - y''", space)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    _report("criterion 3: second-order chain, 7 symmetries, exact gauges "
            "and integrals", started)


def test_criterion_4_planar_free_particle():
    started = time.monotonic()
    space = JetSpace(["t"], ["x", "y"], max_order=4)
    L = Lagrangian(space, 1, parse("1/2*x'^2 + 1/2*y'^2", space))
    sols = solve_noether(L, Ansatz())
    assert len(sols) == 8
    # sl(2): time translation, dilation, conformal; so(2): rotation;
    # four solution symmetries.  The quadratic gauge carries equal weights
    # on x^2 and y^2; the boosts carry the linear gauges x and y.
    for xi_s, eta_s, gauge_s in PLANAR_TABLE:
        target = gen(space, xi=xi_s, eta=eta_s)
        m = match_generator(L, sols, target)
        assert m is not None, (xi_s, eta_s)
        assert m.gauge[0] == parse(gauge_s, space)
    conformal = match_generator(
        L, sols, gen(space, xi={"t": "t^2"}, eta={"x": "t*x", "y": "t*y"}))
    fx = conformal.gauge[0].partial(space.lookup("x")).partial(space.lookup("x"))
    fy = conformal.gauge[0].partial(space.lookup("y")).partial(space.lookup("y"))
    assert fx == fy  # equal quadratic weights in the gauge
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s"
    _report("criterion 4: planar free particle, 8 symmetries with the "
            "expected gauge structure", started)


def test_criterion_5_field_verification_mode():
    started = time.monotonic()
    space = JetSpace(["t", "x"], ["u"], max_order=4)
    L = Lagrangian(space, 1, parse("1/12*u_x^4 + 1/2*u_t^2", space))
    el = euler_lagrange(L)
    solved = {space.lookup("u_tt"): parse("-u_x^2*u_xx", space)}
    laws = {}
    for name, (xi_s, eta_s, flux_s, law_s) in FIELD_CANDIDATES.items():
        g = gen(space, xi=xi_s, eta=eta_s)
        sol = verify_candidate(L, g)
        assert sol is not None, f"{name} should admit a local flux gauge"
        assert sol.gauge == tuple(parse(c, space) for c in flux_s)
        assert sol.law.components == tuple(parse(c, space) for c in law_s)
        report = verify(sol.law, el, space)
        assert report.ok and report.residual.is_zero
        from noether import total_derivative
        div = total_derivative(sol.law.components[0], space.independents[0], space) + \
            total_derivative(sol.law.components[1], space.independents[1], space)
        assert on_shell_zero(div, space, solved)
        laws[name] = sol.law
    # the galilean gauge is exactly (u, 0)
    g4 = gen(space, eta={"u": "t"})
    assert find_gauge(L, g4) == (parse("u", space), Expr.zero())
    # the field-shift law equals the classical printed one up to overall
    # sign (the sign is forced by linearity: scaling the generator scales
    # the law, so a +shift generator cannot yield the +sign convention)
    printed = (parse("u_t", space), parse("1/3*u_x^3", space))
    got = laws["field shift"].components
    assert got == tuple(-c for c in printed)
    # the two stretching candidates admit no local polynomial flux gauge,
    # even when the flux may depend on first derivatives
    for xi_s, eta_s in (({"t": "t"}, {"u": "-u"}), ({"x": "x"}, {"u": "2*u"})):
        g = gen(space, xi=xi_s, eta=eta_s)
        assert verify_candidate(L, g) is None
        assert find_gauge(L, g, jet_order=1) is None
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s"
    _report("criterion 5: field verification mode, four local laws, two "
            "nonlocal rejections", started)


def test_criterion_6_property_suite(rng, ode, pde, free_particle, chain,
                                    planar, quartic_field):
    started = time.monotonic()
    test_expr.test_ring_axioms_property(rng, ode)
    test_expr.test_partial_product_rule_property(rng, ode)
    test_jets.test_commutativity_of_total_derivatives(rng, pde)
    test_jets.test_prolong_recursive_matches_closed_form(rng, ode)
    test_variational.test_null_lagrangian_property(rng, ode)
    test_engine.test_solution_space_linearity(rng, free_particle)
    test_engine.test_hessian_relation_on_table(free_particle, ode)
    test_engine.test_hessian_relation_planar(planar)
    _report("criterion 6: property suite (ring axioms, product rule, "
            "commuting derivatives, prolongation closed form, null "
            "Lagrangian, linearity, Hessian identity)", started)


def test_criterion_7_evolutionary_equivalence(free_particle, ode):
    started = time.monotonic()
    test_engine.test_boyer_equivalence_per_generator(free_particle, ode)
    test_engine.test_evolutionary_search_spans_point_laws(free_particle, ode)
    _report("criterion 7: evolutionary-form search reproduces all five "
            "point-symmetry laws modulo the dynamics", started)


def test_criterion_8_numeric_cross_check():
    started = time.monotonic()
    cfg = NumericConfig(step=1e-3, horizon=10.0, tolerance=1e-8, seed=42)
    problems = []
    s1 = JetSpace(["x"], ["y"], max_order=4)
    problems.append(Lagrangian(s1, 1, parse("1/2*y'^2", s1)))
    s2 = JetSpace(["x"], ["y"], max_order=6)
    problems.append(Lagrangian(s2, 2, parse("1/2*y''^2", s2)))
    s3 = JetSpace(["t"], ["x", "y"], max_order=4)
    problems.append(Lagrangian(s3, 1, parse("1/2*x'^2 + 1/2*y'^2", s3)))
    s4 = JetSpace(["t"], ["q"], max_order=4)
    problems.append(Lagrangian(s4, 1, parse("1/2*q'^2 - 1/2*q^2", s4)))
    checked = 0
    for L in problems:
        el = euler_lagrange(L)
        laws = [s.law for s in solve_noether(L, Ansatz())]
        assert laws
        for ic in seeded_initial_conditions(el, cfg.seed)[:5]:
            traj = integrate_el(el, cfg, ic)
            assert not traj.truncated
            report = drift_report(laws, traj, cfg)
            assert all(report.passes), report.drifts
            checked += len(laws)
    assert checked >= 4 * 5
    # the deliberately non-conserved probe fails
    el = euler_lagrange(problems[0])
    probe = ConservationLaw((parse("y", s1),))
    ic = seeded_initial_conditions(el, cfg.seed)[0]
    report = drift_report([probe], integrate_el(el, cfg, ic), cfg)
    assert report.passes == [False]
    _report(f"criterion 8: numeric drift <= 1e-8 for {checked} verified "
            "integral evaluations; probe rejected", started)


def test_criterion_9_classical_field_symmetries():
    """Searches beyond one dependent, two independents and order 1 give
    the classical symmetries: the 2+1 wave equation's Lorentz boost and
    special conformal map, the Schroedinger pair's phase and Galilean
    boost, and the Euler-Bernoulli beam's scaling."""
    started = time.monotonic()
    data = Path(__file__).resolve().parent / "data"
    wave = load_problem(str(data / "wave_2plus1.prob"))
    pair = load_problem(str(data / "schrodinger_pair.prob"))
    space = JetSpace(["t", "x"], ["u"], max_order=6)
    beam = Lagrangian(space, 2, parse("1/2*u_t^2 - 1/2*u_xx^2", space))
    cases = [
        (wave.lagrangian, wave.ansatz, 19, [
            ({"t": "x", "x": "t"}, {}, ("0", "0", "0")),
            ({"t": "t^2+x^2+y^2", "x": "2*t*x", "y": "2*t*y"},
             {"u": "-t*u"}, ("-1/2*u^2", "0", "0"))]),
        (pair.lagrangian, pair.ansatz, 9, [
            ({}, {"u": "v", "v": "-u"}, ("0", "0")),
            ({"x": "t"}, {"u": "1/2*x*v", "v": "-1/2*x*u"}, ("0", "0"))]),
        (beam, Ansatz(coeff_degree=2, gauge_degree=2), 7, [
            ({"t": "t", "x": "1/2*x"}, {"u": "1/4*u"}, ("0", "0"))]),
    ]
    matched = 0
    for L, ansatz, count, table in cases:
        sols = solve_noether(L, ansatz)
        assert len(sols) == count
        for xi_s, eta_s, gauge_s in table:
            m = match_generator(L, sols, gen(L.space, xi=xi_s, eta=eta_s))
            assert m is not None, (xi_s, eta_s)
            assert m.gauge == tuple(parse(f, L.space) for f in gauge_s)
            matched += 1
    assert matched == 5
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 9 took {elapsed:.2f}s"
    _report("criterion 9: Lorentz, conformal, phase, Galilean and beam "
            "scaling symmetries on new problem shapes", started)
