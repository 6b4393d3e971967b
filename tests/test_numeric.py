"""Numeric cross-validation: compilation, integration, drift measurement."""

import ast
import math
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import pytest

from noether import (Ansatz, ConservationLaw, ELSystem, Expr, JetSpace,
                     Lagrangian, NumericConfig, Trajectory, check_integrals,
                     drift_report, euler_lagrange, integrate_el, load_problem,
                     parse, seeded_initial_conditions, solve_noether)
from noether.numeric import MAX_STEPS, state_variables

from util import (SEED, rand_expr, rand_nonzero_expr, reference_drift,
                  reference_integrate)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"


def _same_floats(xs, ys) -> bool:
    """Equal bit for bit, or both NaN: ``==`` would let -0.0 match 0.0."""
    return len(xs) == len(ys) and all(
        struct.pack("<d", x) == struct.pack("<d", y)
        or (math.isnan(x) and math.isnan(y)) for x, y in zip(xs, ys))


def _two_row_drift(e, variables, point):
    """drift_report of ``e`` on the rows 0 and ``point``, which is
    |e(point) - e(0)| / max(1, |e(0)|)."""
    traj = Trajectory(variables=tuple(variables),
                      rows=[(0.0,) * len(variables),
                            tuple(point[v] for v in variables)])
    return drift_report([e], traj, NumericConfig()).drifts[0]


def test_compile_simple(ode):
    x, y, yp = (ode.lookup(n) for n in ("x", "y", "y'"))
    point = {x: 1.0, y: 3.0, yp: 2.0}
    assert _two_row_drift(parse("1/2*y'^2", ode), [x, y, yp], point) == 2.0
    assert _two_row_drift(Expr.zero(), [x, y, yp], point) == 0.0
    point[yp] = 1.0
    assert _two_row_drift(parse("y - x*y'", ode), [x, y, yp], point) == 2.0


def test_compile_matches_exact_evaluation(rng, ode):
    """The generated drift equals the direct monomial loop bit for bit
    (the operation-order rule) and exact evaluation to rounding."""
    vars = [ode.lookup(n) for n in ("x", "y", "y'", "y''")]
    origin = dict.fromkeys(vars, Fraction(0))
    for _ in range(25):
        e = rand_expr(rng, vars)
        point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for v in vars}
        samples = [dict.fromkeys(vars, 0.0),
                   {v: float(q) for v, q in point.items()}]
        drift = _two_row_drift(e, vars, samples[1])
        assert drift == reference_drift(e, samples)
        first = e.evaluate(origin)
        exact = abs(e.evaluate(point) - first) / max(1, abs(first))
        assert drift == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        NumericConfig(step=0.0)
    with pytest.raises(ValueError):
        NumericConfig(step=1.0, horizon=5.0)
    with pytest.raises(ValueError):
        NumericConfig(tolerance=0.0)


@pytest.mark.parametrize("field", ["step", "horizon", "tolerance"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NumericConfig(**{field: value})


def test_config_rejects_overflowing_step_count():
    # Both floats are finite; their quotient overflows to inf.
    with pytest.raises(ValueError) as caught:
        NumericConfig(step=1e-300, horizon=1e300)
    assert str(caught.value) == "horizon / step must be finite"


def test_config_rejects_too_many_steps():
    # The step count bounds time, and integrate_el's memory.
    with pytest.raises(ValueError, match="horizon / step"):
        NumericConfig(step=1e-9)
    assert NumericConfig(step=10.0 / MAX_STEPS).step == 1e-5


def test_linear_trajectory_is_exact(free_particle, ode):
    el = euler_lagrange(free_particle)
    cfg = NumericConfig()
    y, yp = ode.dependents[0], ode.lookup("y'")
    traj = integrate_el(el, cfg, {y: 0.0, yp: 1.0})
    assert not traj.truncated
    assert len(traj.rows) == 10001
    for row in traj.rows[:: 1000]:
        assert row[traj.variables.index(y)] == pytest.approx(row[0], abs=1e-12)


def test_cubic_trajectory_coefficients(chain, ode):
    el = euler_lagrange(chain)
    cfg = NumericConfig()
    names = ["y", "y'", "y''", "y'''"]
    ic = {ode.lookup(n): 1.0 for n in names}
    traj = integrate_el(el, cfg, ic)
    y = traj.variables.index(ode.lookup("y"))
    for row in traj.rows[:: 2500]:
        t = row[0]
        expected = 1.0 + t + t * t / 2.0 + t ** 3 / 6.0
        assert row[y] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_oscillator_energy_drift():
    s = JetSpace(["t"], ["q"], max_order=4)
    L = Lagrangian(s, 1, parse("1/2*q'^2 - 1/2*q^2", s))
    el = euler_lagrange(L)
    cfg = NumericConfig()
    q, qd = s.dependents[0], s.lookup("q'")
    traj = integrate_el(el, cfg, {q: 1.0, qd: 0.0})
    # closed-form check of the trajectory itself
    for row in traj.rows[:: 1000]:
        assert row[traj.variables.index(q)] == pytest.approx(math.cos(row[0]),
                                                             abs=1e-9)
    energy = ConservationLaw((parse("1/2*q'^2 + 1/2*q^2", s),))
    report = drift_report([energy], traj, cfg)
    assert report.passes == [True]
    assert report.drifts[0] < 1e-8


def test_drift_detects_non_integral(free_particle, ode):
    el = euler_lagrange(free_particle)
    cfg = NumericConfig()
    traj = integrate_el(el, cfg, {ode.dependents[0]: 0.0,
                                  ode.lookup("y'"): 1.0})
    probe = ConservationLaw((parse("y", ode),))
    report = drift_report([probe], traj, cfg)
    assert report.passes == [False]
    assert report.drifts[0] == pytest.approx(10.0, rel=1e-6)


def test_all_verified_integrals_drift_within_tolerance(free_particle):
    el = euler_lagrange(free_particle)
    cfg = NumericConfig()
    laws = [s.law for s in solve_noether(free_particle, Ansatz())]
    for ic in seeded_initial_conditions(el, cfg.seed)[:5]:
        report = drift_report(laws, integrate_el(el, cfg, ic), cfg)
        assert all(report.passes)


def test_halving_step_does_not_double_drift(free_particle, ode):
    """Order sanity: a finer step never makes a verified law drift much more."""
    el = euler_lagrange(free_particle)
    laws = [s.law for s in solve_noether(free_particle, Ansatz())]
    coarse = NumericConfig(step=2e-3)
    fine = NumericConfig(step=1e-3)
    ic = seeded_initial_conditions(el, 42)[0]
    rep_coarse = drift_report(laws, integrate_el(el, coarse, ic), coarse)
    rep_fine = drift_report(laws, integrate_el(el, fine, ic), fine)
    for dc, df in zip(rep_coarse.drifts, rep_fine.drifts):
        assert df <= 2.0 * dc + 1e-12


def test_blowup_truncates_trajectory():
    s = JetSpace(["t"], ["q"], max_order=4)
    L = Lagrangian(s, 1, parse("1/2*q'^2 + 1/4*q^4", s))
    el = euler_lagrange(L)
    traj = integrate_el(el, NumericConfig(),
                        {s.dependents[0]: 5.0, s.lookup("q'"): 5.0})
    assert traj.truncated
    assert len(traj.rows) < 10001


def test_missing_initial_condition_rejected(free_particle, ode):
    el = euler_lagrange(free_particle)
    with pytest.raises(ValueError, match="missing"):
        integrate_el(el, NumericConfig(), {ode.dependents[0]: 1.0})


def test_integration_requires_solved_forms():
    s = JetSpace(["t"], ["q"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("1/3*q'^3", s)))
    with pytest.raises(ValueError):
        integrate_el(el, NumericConfig(), {})


def _assert_matches_reference(el, cfg, ic, integrals):
    """Generated RK4 rows and drifts equal the dict-based reference's, both
    along a kept trajectory and from the loop that keeps no rows."""
    traj = integrate_el(el, cfg, ic)
    samples, truncated = reference_integrate(el, cfg, ic)
    assert traj.truncated == truncated
    assert len(traj.rows) == len(samples)
    assert all(_same_floats(row, [env[v] for v in traj.variables])
               for row, env in zip(traj.rows, samples))
    drifts = [reference_drift(e, samples) for e in integrals]
    report = drift_report(integrals, traj, cfg)
    assert _same_floats(report.drifts, drifts), (report.drifts, drifts)
    assert report.truncated == truncated
    [fused] = check_integrals(integrals, el, cfg, [ic])
    assert _same_floats(fused.drifts, drifts), (fused.drifts, drifts)
    assert fused.passes == report.passes
    assert fused.truncated == truncated
    return traj


@pytest.mark.parametrize("name", ["free_particle", "free_particle_2d",
                                  "harmonic_oscillator", "second_order_chain"])
def test_bundled_problems_match_reference(name):
    problem = load_problem(PROBLEMS / f"{name}.prob")
    el = euler_lagrange(problem.lagrangian)
    cfg = NumericConfig(horizon=0.5)
    laws = [s.law.components[0]
            for s in solve_noether(problem.lagrangian, problem.ansatz)]
    assert laws
    ics = seeded_initial_conditions(el, SEED)[:2]
    for ic in ics:
        _assert_matches_reference(el, cfg, ic, laws)
    # One call with both conditions reports on each as a call of its own.
    for ic, report in zip(ics, check_integrals(laws, el, cfg, ics),
                          strict=True):
        [alone] = check_integrals(laws, el, cfg, [ic])
        assert _same_floats(report.drifts, alone.drifts)
        assert (report.passes, report.truncated) == (alone.passes,
                                                      alone.truncated)


@pytest.mark.parametrize("dof", [1, 2])
def test_random_potentials_match_reference(dof):
    """1/2*|q'|^2 - V(t, q) with seeded random polynomial V."""
    rng = random.Random(SEED + dof)
    names = ["q", "p"][:dof]
    s = JetSpace(["t"], names, max_order=4)
    t = s.independents[0]
    qs = list(s.dependents)
    velocities = [s.lookup(f"{n}'") for n in names]
    kinetic = parse(" + ".join(f"1/2*{n}'^2" for n in names), s)
    cfg = NumericConfig(horizon=0.5)
    for _ in range(4):
        V = rand_nonzero_expr(rng, [t] + qs, max_terms=5, max_degree=4)
        el = euler_lagrange(Lagrangian(s, 1, kinetic - V))
        ic = {v: rng.uniform(-1.0, 1.0) for v in qs + velocities}
        probes = [kinetic + V] + [rand_nonzero_expr(rng, [t] + qs + velocities)
                                  for _ in range(3)]
        _assert_matches_reference(el, cfg, ic, probes)


def test_blowup_truncates_like_reference():
    s = JetSpace(["t"], ["q"], max_order=4)
    body = parse("1/2*q'^2 + 1/4*q^4", s)
    el = euler_lagrange(Lagrangian(s, 1, body))
    ic = {s.dependents[0]: 5.0, s.lookup("q'"): 5.0}
    traj = _assert_matches_reference(el, NumericConfig(), ic,
                                     [parse("1/2*q'^2 - 1/4*q^4", s)])
    assert traj.truncated


def test_infinite_row_truncates_like_reference():
    """q'' = 10**6 q grows by products alone, which reach inf without
    raising: the finiteness test, not an exception, ends the run."""
    s = JetSpace(["t"], ["q"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("1/2*q'^2 + 500000*q^2", s)))
    ic = {s.dependents[0]: 1.0, s.lookup("q'"): 0.0}
    traj = _assert_matches_reference(el, NumericConfig(), ic,
                                     [parse("q", s), parse("q'", s)])
    assert traj.truncated
    assert len(traj.rows) < 10001


def test_time_overflow_alone_truncates():
    """x' = y' = 0 (L = x*y') keeps the states finite while t, after 12
    steps of 1.75e308/11.5, overflows to inf: only the ``(t - t)`` term of
    the finiteness test sees it, so it must stay, and both entry points
    report the run truncated after the last finite row."""
    s = JetSpace(["t"], ["x", "y"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("x*y'", s)))
    assert all(e.is_zero for e in el.solved_forms.values())
    cfg = NumericConfig(step=1.75e308 / 11.5, horizon=1.75e308)
    assert round(cfg.horizon / cfg.step) == 12
    ic = {s.dependents[0]: 1.0, s.dependents[1]: 2.0}
    traj = integrate_el(el, cfg, ic)
    assert traj.truncated
    assert len(traj.rows) == 12
    assert all(map(math.isfinite, traj.rows[-1]))
    assert traj.rows[-1][1:] == (1.0, 2.0)
    [report] = check_integrals(
        [ConservationLaw((parse("x", s),))], el, cfg, [ic])
    assert report.truncated and report.drifts == [0.0]


def test_overflowing_integral_drift_matches_reference():
    s = JetSpace(["t"], ["y"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("1/2*y'^2 + y^3", s)))
    energy = parse("1/2*y'^2 - y^3", s)
    cfg = NumericConfig()
    drifts = []
    for ic in seeded_initial_conditions(el, cfg.seed):
        traj = _assert_matches_reference(el, cfg, ic, [energy])
        drifts += drift_report([energy], traj, cfg).drifts
    assert math.inf in drifts


def test_large_law_compiles_and_evaluates():
    """An integral of more than 3000 terms: one ``acc +=`` per term keeps
    it compilable, and its value matches exact evaluation."""
    rng = random.Random(SEED)
    s = JetSpace(["t"], ["q"], max_order=4)
    variables = sorted([s.independents[0], s.dependents[0], s.lookup("q'")],
                       key=lambda v: v.sort_index)
    terms = {}
    for a in range(15):
        for b in range(15):
            for c in range(15):
                mono = tuple((v, k) for v, k in zip(variables, (a, b, c)) if k)
                if mono:
                    terms[mono] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    law = Expr(terms)
    assert len(law) >= 3000
    point = {v: Fraction(rng.randint(1, 9), 10) for v in variables}
    traj = Trajectory(variables=tuple(variables),
                      rows=[(0.0, 0.0, 0.0),
                            tuple(float(point[v]) for v in variables)])
    report = drift_report([law], traj, NumericConfig())
    exact = law.evaluate(point)
    assert report.drifts[0] == pytest.approx(float(exact), rel=1e-12)


def test_numcheck_compiles_each_source_once(monkeypatch, capsys):
    """free_particle's five integrals and its RK4 step make one generated
    loop, written and compiled once and run from each of the five initial
    conditions."""
    import builtins
    import json

    from noether import numeric
    from noether.cli import main

    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(numeric, name, wrapper, raising=False)

    counted("_rk4_lines", numeric._rk4_lines)
    counted("_run_function", numeric._run_function)
    counted("compile", builtins.compile)
    assert main(["numcheck", str(PROBLEMS / "free_particle.prob"),
                 "--json", "--deterministic"]) == 0
    assert len(json.loads(capsys.readouterr().out)["numeric"]["runs"]) == 5
    assert sorted(calls) == ["_rk4_lines", "_run_function", "compile"]


def test_every_entry_point_compiles_only_run_sources(monkeypatch,
                                                     free_particle, ode):
    """integrate_el, check_integrals and drift_report share one generator:
    each compiles one source, a ``run`` written from the one template."""
    import builtins

    from noether import numeric

    compiled = []

    def recording_compile(source, filename, *args, **kwargs):
        compiled.append((filename, source))
        return builtins.compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(numeric, "compile", recording_compile, raising=False)
    el = euler_lagrange(free_particle)
    cfg = NumericConfig(horizon=0.1)
    ic = {ode.dependents[0]: 0.3, ode.lookup("y'"): 0.7}
    laws = [parse("y - x*y'", ode), parse("y'", ode)]
    drift_report(laws, integrate_el(el, cfg, ic), cfg)
    check_integrals(laws, el, cfg, [ic])
    header = numeric._RUN.split("{", 1)[0]
    assert len(compiled) == 3
    for filename, source in compiled:
        assert filename == "<noether.numeric.run>"
        assert source.startswith(header) and source.count("def ") == 1


def test_step_size_is_part_of_the_compiled_source():
    # A shared compiled step must not carry the step of an earlier run.
    L = load_problem(str(PROBLEMS / "harmonic_oscillator.prob")).lagrangian
    el = euler_lagrange(L)
    ic = seeded_initial_conditions(el, SEED)[0]
    for h in (1e-3, 2e-3, 1e-3):
        cfg = NumericConfig(step=h, horizon=20 * h)
        traj = _assert_matches_reference(el, cfg, ic, [])
        assert traj.rows[1][0] == h


@pytest.mark.parametrize("y0", [1e200, 1.3e154], ids=["row0", "later"])
def test_overflow_gives_that_law_alone_infinite_drift(y0, free_particle, ode):
    """y^2 overflows on row 0 (y = 1e200) or only once y has grown past
    about 1.34e154; the other law keeps its finite drift."""
    el = euler_lagrange(free_particle)
    cfg = NumericConfig()
    ic = {ode.dependents[0]: y0, ode.lookup("y'"): 1e152}
    laws = [parse("y^2", ode), parse("y'", ode)]
    _assert_matches_reference(el, cfg, ic, laws)
    [report] = check_integrals(laws, el, cfg, [ic])
    assert report.drifts == [math.inf, 0.0]
    assert report.passes == [False, True]
    assert not report.truncated


NAN, INF = math.nan, math.inf


def _edge_drifts(ode, laws, rows):
    """drift_report of ``laws`` (parsed over x, y, y') on the given rows,
    checked bit for bit against ``reference_drift`` on the same rows."""
    variables = (ode.lookup("x"), ode.lookup("y"), ode.lookup("y'"))
    integrals = [parse(law, ode) for law in laws]
    drifts = drift_report(integrals, Trajectory(variables, rows),
                          NumericConfig()).drifts
    samples = [dict(zip(variables, row)) for row in rows]
    expected = [reference_drift(e, samples) for e in integrals]
    assert _same_floats(drifts, expected), (drifts, expected)
    return drifts


def test_drift_skips_nan_rows(ode):
    rows = [(0.0, 1.0, 2.0), (0.1, NAN, 2.5), (0.2, 1.5, NAN),
            (0.3, 0.5, 2.0)]
    drifts = _edge_drifts(ode, ["y", "y^2 - y'", "y*y'", "3"], rows)
    assert drifts[0] == 0.5 and drifts[3] == 0.0


def test_drift_of_infinite_rows(ode):
    rows = [(0.0, 1.0, 2.0), (0.1, INF, 2.0), (0.2, -INF, 2.0)]
    drifts = _edge_drifts(ode, ["y", "y'", "y^2", "-y^3 + y'"], rows)
    assert drifts == [INF, 0.0, INF, INF]


@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)],
                         ids=["negative-first", "positive-first"])
def test_drift_of_signed_zeros_is_positive_zero(zeros, ode):
    a, b = zeros
    rows = [(0.0, a, b), (0.1, b, a), (0.2, a, a), (0.3, b, b)]
    drifts = _edge_drifts(
        ode, ["y", "-y", "y'", "y - y'", "-y^3", "y^2*y' - y'"], rows)
    assert all(struct.pack("<d", d) == struct.pack("<d", 0.0)
               for d in drifts), drifts


@pytest.mark.parametrize("first", [INF, -INF, NAN])
def test_drift_from_a_non_finite_first_value(first, ode):
    rows = [(0.0, first, 1.0), (0.1, 1.0, 1.0), (0.2, 2.0, 1.0)]
    drifts = _edge_drifts(ode, ["y", "y'", "y*y'", "y^2 - y"], rows)
    assert drifts == [INF, 0.0, INF, INF]


@pytest.mark.parametrize("rows", [
    [(0.0, 1e200, 1.0), (0.1, 1.0, 2.0), (0.2, 1.0, 3.0)],
    # y^2 * y' is inf * 0.0 on the overflowing row: NaN, yet still inf.
    [(0.0, 1.0, 1.0), (0.1, 1e200, 0.0), (0.2, 2.0, 3.0)]],
    ids=["row0", "later"])
def test_shared_overflowing_power_fails_only_its_laws(rows, ode):
    """y^2 overflows; both laws holding it get infinite drift, and y'
    keeps folding finite values."""
    assert _edge_drifts(ode, ["y^2*y' + y", "y^2", "y'"], rows) == [
        INF, INF, 2.0]


def _random_integrals(rng, variables):
    """1-4 polynomials whose terms come from one shared pool of monomials,
    so that integrals share powers, with coefficients drawn from 1, -1,
    1/2, -1/2, 2 and random rationals."""
    pool = {()}
    while len(pool) < 7:
        chosen = sorted(rng.sample(variables, rng.randint(1, len(variables))),
                        key=lambda v: v.sort_index)
        pool.add(tuple((v, rng.randint(1, 4)) for v in chosen))
    pool = sorted(pool, key=str)
    coeffs = [1, -1, Fraction(1, 2), Fraction(-1, 2), 2]
    return [Expr({m: rng.choice(coeffs + [Fraction(rng.randint(1, 99)
                                                    * rng.choice((-1, 1)),
                                                    rng.randint(1, 99))])
                  for m in rng.sample(pool, rng.randint(1, len(pool)))})
            for _ in range(rng.randint(1, 4))]


def _random_magnitude(rng):
    """0.0 now and then, else a float of either sign, mostly within 1e3 of
    1 and otherwise up to about 1e160: x ** 2 overflows past about
    1.34e154, x ** 4 past 1.16e77."""
    draw = rng.random()
    if draw < 0.1:
        return 0.0
    exponent = (rng.uniform(-3.0, 3.0) if draw < 0.7
                else rng.uniform(3.0, 160.0))
    return rng.choice((-1.0, 1.0)) * 10.0 ** exponent


def test_random_integrals_drift_like_reference_bit_for_bit(free_particle, ode):
    """Seeded: drift_report on random rows, and check_integrals from random
    initial conditions, equal reference_drift bit for bit, overflowing
    powers included."""
    rng = random.Random(SEED)
    variables = [ode.lookup("x"), ode.lookup("y"), ode.lookup("y'")]
    overflowed = finite = 0
    for _ in range(60):
        integrals = _random_integrals(rng, variables)
        rows = [tuple(_random_magnitude(rng) for _ in variables)
                for _ in range(rng.randint(1, 8))]
        drifts = drift_report(integrals, Trajectory(tuple(variables), rows),
                              NumericConfig()).drifts
        samples = [dict(zip(variables, row)) for row in rows]
        expected = [reference_drift(e, samples) for e in integrals]
        assert _same_floats(drifts, expected), (integrals, rows)
        overflowed += math.inf in drifts
        finite += any(0.0 < d < math.inf for d in drifts)
    el = euler_lagrange(free_particle)
    cfg = NumericConfig(horizon=0.05)
    for _ in range(8):
        ic = {v: _random_magnitude(rng) for v in variables[1:]}
        _assert_matches_reference(el, cfg, ic,
                                  _random_integrals(rng, variables))
    assert overflowed > 10 and finite > 10, (overflowed, finite)


def test_fold_has_no_abs_and_each_power_once_per_row(monkeypatch,
                                                     free_particle, ode):
    """The generated fold keeps running extremes instead of ``abs(acc -
    first)``, and evaluates each distinct ``x ** k`` that its integrals
    share once for the first row and once per row in the loop."""
    import builtins

    from noether import numeric

    sources = []

    def recording_compile(source, *args, **kwargs):
        sources.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(numeric, "compile", recording_compile, raising=False)
    laws = [parse(law, ode) for law in
            ("y^2 + x^3*y'^2", "y^2*y' - x^3", "y'^2 - y", "-y")]
    el = euler_lagrange(free_particle)
    cfg = NumericConfig(horizon=0.1)
    ic = {ode.dependents[0]: 0.3, ode.lookup("y'"): 0.7}
    traj = integrate_el(el, cfg, ic)
    drift_report(laws, traj, cfg)
    check_integrals(laws, el, cfg, [ic])
    assert len(sources) == 3
    for source in sources[1:]:   # the first is integrate_el's: no integrals
        assert "abs(" not in source
        for part in source.split("\n    for ", 1):
            powers = re.findall(r"\w+ \*\* \d+\.0", part)
            assert sorted(powers) == ["s0 ** 2.0", "s1 ** 2.0",
                                      "t ** 3.0"], part


def _arithmetic_literals(source):
    """Each number that is an operand of an arithmetic operation in
    ``source``: of a binary or unary operator or an augmented assignment."""
    operands = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            operands += [node.left, node.right]
        elif isinstance(node, ast.UnaryOp):
            operands.append(node.operand)
        elif isinstance(node, ast.AugAssign):
            operands.append(node.value)
    return [n.value for n in operands if isinstance(n, ast.Constant)]


def test_generated_arithmetic_has_only_float_literals(monkeypatch,
                                                      free_particle, ode):
    """Every literal operand of the generated loop is a float (``2.0 *
    k2``, ``x ** 2.0``), so float-by-float ``*`` takes the interpreter's
    float path: on each time-like bundled problem with its own laws, and
    on the free particle with this module's literal and seeded random
    laws, through all three entry points."""
    import builtins

    from noether import numeric

    sources = []

    def recording_compile(source, *args, **kwargs):
        sources.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(numeric, "compile", recording_compile, raising=False)
    rng = random.Random(SEED)
    cases = []
    for name in ("free_particle", "free_particle_2d", "harmonic_oscillator",
                 "second_order_chain"):
        problem = load_problem(PROBLEMS / f"{name}.prob")
        cases.append((problem.lagrangian, [
            s.law for s in solve_noether(problem.lagrangian,
                                         problem.ansatz)]))
    variables = [ode.lookup("x"), ode.lookup("y"), ode.lookup("y'")]
    cases.append((free_particle, [parse(law, ode) for law in (
        "y^2 + x^3*y'^2", "y^2*y' - x^3", "y'^2 - y", "-y", "y - x*y'")]))
    cases += [(free_particle, _random_integrals(rng, variables))
              for _ in range(10)]
    cfg = NumericConfig(horizon=0.01)
    for L, laws in cases:
        el = euler_lagrange(L)
        ic = dict.fromkeys(state_variables(el), 0.5)
        drift_report(laws, integrate_el(el, cfg, ic), cfg)
        check_integrals(laws, el, cfg, [ic])
    literals = [c for source in sources for c in _arithmetic_literals(source)]
    assert {type(c) for c in literals} == {float}
    assert 2.0 in literals and 3.0 in literals


def test_check_memory_does_not_grow_with_steps(free_particle, ode):
    """check_integrals keeps no rows: its peak allocation at 10**5 steps is
    that at 10**4 steps, where kept rows would add megabytes."""
    import tracemalloc

    el = euler_lagrange(free_particle)
    laws = [parse("y - x*y'", ode), parse("y'", ode)]
    ic = {ode.dependents[0]: 0.3, ode.lookup("y'"): 0.7}
    configs = [NumericConfig(step=1e-3), NumericConfig(step=1e-4)]
    for cfg in configs:   # compile both loops before measuring
        check_integrals(laws, el, cfg, [ic])
    peaks = []
    tracemalloc.start()
    try:
        for cfg in configs:
            tracemalloc.reset_peak()
            check_integrals(laws, el, cfg, [ic])
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * 1024, peaks


def test_step_does_only_float_work(monkeypatch, free_particle, chain):
    """For y'' = 0 and y'''' = 0 every slope copies a state or is zero, so
    the generated step assigns no ``k<k>_<j>``, ``acc``, ``tm`` or ``tn``
    and no stage value of y, which no slope reads, and computes the one
    ``s<j> + 0.0`` of the zero-slope state once."""
    import builtins

    from noether import numeric

    sources = []

    def recording_compile(source, *args, **kwargs):
        sources.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(numeric, "compile", recording_compile, raising=False)
    for L, top in ((free_particle, 1), (chain, 3)):
        el = euler_lagrange(L)
        integrate_el(el, NumericConfig(horizon=0.1),
                     dict.fromkeys(state_variables(el), 0.5))
        step = sources[-1].split("for _ in source:\n", 1)[1]
        assigned = re.findall(r"^ +(\w+) = ", step, re.M)
        assert not [name for name in assigned
                    if re.fullmatch(r"k\d+_\d+|acc|tm|tn|[abc]0", name)], step
        assert "acc" not in step and "tm" not in step, step
        zeros = re.findall(r"\w+ \+ 0\.0(?!\d)", step)
        assert zeros == [f"s{top} + 0.0"], step


def _signed_zero_conditions(el):
    """All -0.0, then -0.0 in every other state and seeded values between,
    starting at the first state and at the second."""
    states = state_variables(el)
    rng = random.Random(SEED)
    values = [rng.uniform(-1.0, 1.0) for _ in states]
    return [dict.fromkeys(states, -0.0)] + [
        {v: -0.0 if j % 2 == parity else values[j]
         for j, v in enumerate(states)} for parity in (0, 1)]


@pytest.mark.parametrize("path", [
    *(PROBLEMS / f"{name}.prob" for name in (
        "free_particle", "free_particle_2d", "harmonic_oscillator",
        "second_order_chain")),
    DATA / "coupled_second_order.prob"], ids=lambda p: p.stem)
def test_signed_zero_states_match_reference(path):
    """A zero slope's stage values and update are ``s + 0.0``, which turns
    a -0.0 state into +0.0 as the reference's ``s + 0.5 * h * 0.0`` does;
    rows and drifts agree bit for bit from states of -0.0."""
    problem = load_problem(path)
    el = euler_lagrange(problem.lagrangian)
    laws = [s.law.components[0]
            for s in solve_noether(problem.lagrangian, problem.ansatz)]
    for ic in _signed_zero_conditions(el):
        _assert_matches_reference(el, NumericConfig(horizon=0.05), ic, laws)


def test_step_with_nothing_to_compute_matches_reference():
    """L = x*y' gives x' = 0 and y' = 0: no slope reads a state, the step
    has no stage to compute, and each update is still ``s + 0.0``."""
    s = JetSpace(["t"], ["x", "y"], max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse("x*y'", s)))
    for ic in _signed_zero_conditions(el):
        _assert_matches_reference(el, NumericConfig(horizon=0.05), ic,
                                  [parse("x + y", s)])


def test_random_mixed_systems_match_reference():
    """Seeded random Lagrangians over two or three dependents, each with a
    kinetic term of order 1 or 2, some free (zero slopes) and the rest in a
    potential V(t, q) (slopes that read t): copies, zero slopes, ``tm``
    and unread stage values in one step, bit for bit against the
    reference."""
    rng = random.Random(SEED)
    cfg = NumericConfig(horizon=0.2)
    for _ in range(8):
        names = ["q", "p", "r"][:rng.randint(2, 3)]
        s = JetSpace(["t"], names, max_order=6)
        t = s.independents[0]
        orders = [rng.randint(1, 2) for _ in names]
        free = set(rng.sample(names, rng.randint(1, len(names) - 1)))
        held = [n for n in names if n not in free]
        kinetic = parse(" + ".join(f"1/2*{n}{chr(39) * k}^2"
                                   for n, k in zip(names, orders)), s)
        V = (rand_nonzero_expr(rng, [t] + [s.lookup(n) for n in held],
                               max_terms=4, max_degree=3)
             + parse(f"t*{held[0]}", s))
        el = euler_lagrange(Lagrangian(s, max(orders), kinetic - V))
        forms = list(el.solved_forms.values())
        assert any(f.is_zero for f in forms)
        assert any(t in f.variables() for f in forms)
        states = state_variables(el)
        ic = {v: rng.uniform(-1.0, 1.0) for v in states}
        probes = [rand_nonzero_expr(rng, [t] + states) for _ in range(2)]
        _assert_matches_reference(el, cfg, ic, probes)


def _refused(name):
    """The system and initial condition of each numeric refusal."""
    if name == "malformed":   # y'' = y''' reads past the state
        s = JetSpace(["t"], ["y"], max_order=4)
        el = ELSystem(s, [parse("y'' - y'''", s)],
                      {s.lookup("y''"): parse("y'''", s)})
        return el, dict.fromkeys([s.lookup("y"), s.lookup("y'")], 0.0)
    independents, dependents, body, given = {
        "field": (["t", "x"], ["u"], "1/12*u_x^4 + 1/2*u_t^2", ()),
        "unsolved": (["t"], ["q"], "1/3*q'^3", ()),
        "no_equation": (["t"], ["x", "y"], "1/2*y'^2 + x*y'", ()),
        "missing": (["t"], ["y"], "1/2*y'^2", ("y",)),
    }[name]
    s = JetSpace(independents, dependents, max_order=4)
    el = euler_lagrange(Lagrangian(s, 1, parse(body, s)))
    return el, dict.fromkeys(map(s.lookup, given), 1.0)


@pytest.mark.parametrize("name,message", [
    ("field", "numeric integration supports time-like problems only"),
    ("unsolved", "explicit solved forms are required for integration"),
    ("no_equation", "no solved equation for 'x'"),
    ("missing", "initial condition missing y'"),
    ("malformed",
     "solved form for y'' references non-state variables: y'''"),
])
def test_integration_refusals_name_their_cause(name, message):
    el, ic = _refused(name)
    with pytest.raises(ValueError) as err:
        integrate_el(el, NumericConfig(), ic)
    assert str(err.value) == message


def test_numcheck_reduces_solved_forms_on_shell(tmp_path, capsys):
    """y'''' = x*x'' + x'^2 + x'' reads the solved x'' = -x*y'' - y'';
    reduced on shell it reads only the state, so numcheck integrates the
    system and each of its three integrals is conserved."""
    import json

    from noether.cli import main

    path = tmp_path / "coupled.prob"
    path.write_text("[problem]\nindependents = t\ndependents = x, y\n"
                    "lagrangian = 1/2*x'^2 + x'*y' + 1/2*y''^2 + x'*x*y'\n"
                    "order = 2\n")
    code = main(["numcheck", str(path), "--json", "--deterministic"])
    numeric = json.loads(capsys.readouterr().out)["numeric"]
    assert code == 0
    assert len(numeric["laws"]) == 3
    assert len(numeric["runs"]) == 5
    for run in numeric["runs"]:
        assert not run["truncated"]
        assert len(run["drifts"]) == 3
        assert max(run["drifts"]) <= 1e-8, run["drifts"]
