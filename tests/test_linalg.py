"""Exact sparse elimination: the multi-right-hand-side solve against the
single-right-hand-side reference, int-or-Fraction entries against the
Fraction-only reference, the column-indexed elimination against the
scanning one, and the primitive integer rows against the ``Fraction``
elimination, on seeded random rational systems.  The solve oracles take
(row, right-hand sides) pairs, and ``constant_columns`` turns each system
into the solver's rows with constant columns."""

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import noether.engine as engine
from noether import Ansatz, determining_system, find_gauges, load_problem
from noether.expr import _as_rational, rational_div
from noether.linalg import _eliminate, nullspace, solve_affine_many

from util import (SEED, constant_columns, deadline, fraction_eliminate,
                  is_canonical, reference_nullspace, reference_solve_affine,
                  scanning_nullspace, scanning_rref, scanning_solve_affine_many)


def _fraction_entry(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))


def _mixed_entry(rng):
    """Mostly ints, as in a determining system; otherwise a Fraction, which
    may be integral (4/2) and must then come out as an int."""
    if rng.random() < 0.3:
        return _fraction_entry(rng)
    return rng.choice([-3, -2, -1, 1, 2, 5])


def _dense(solutions, n_cols):
    """Sparse solutions as dense lists, once each is checked to hold only
    nonzero values in ascending column order; None stays None."""
    assert all(sol is None or (list(sol) == sorted(sol) and all(sol.values()))
               for sol in solutions)
    return [None if sol is None else [sol.get(c, 0) for c in range(n_cols)]
            for sol in solutions]


def _random_row(rng, n_cols, entry=_fraction_entry):
    cols = rng.sample(range(n_cols), rng.randint(0, n_cols))
    return {c: entry(rng) for c in cols}


def _random_system(rng, entry=_fraction_entry):
    """Rows of a seeded random system with sparse right-hand sides.

    Some rows repeat rational combinations of earlier ones, so many
    systems are rank-deficient.  Right-hand side k is either A x_k for a
    random x_k (consistent) or random entries (usually inconsistent when
    the system is rank-deficient or overdetermined).
    """
    n_cols = rng.randint(0, 6)
    rows = []
    for _ in range(rng.randint(0, 9)):
        if rows and rng.random() < 0.4:
            row = {}
            for other in rng.sample(rows, min(len(rows), 2)):
                w = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for c, v in other.items():
                    row[c] = row.get(c, Fraction(0)) + w * v
            row = {c: v for c, v in row.items() if v}
        else:
            row = _random_row(rng, n_cols, entry)
        rows.append(row)
    n_rhs = rng.randint(0, 4)
    rhs = [{} for _ in rows]
    for k in range(n_rhs):
        if rng.random() < 0.5:
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
            values = [sum((v * x[c] for c, v in row.items()), Fraction(0))
                      for row in rows]
        else:
            values = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.5
                      else Fraction(0) for _ in rows]
        for i, b in enumerate(values):
            if b or rng.random() < 0.2:   # explicit zeros are allowed
                rhs[i][k] = b
    return rows, rhs, n_cols, n_rhs


def test_multi_rhs_solve_matches_reference():
    rng = random.Random(SEED)
    seen = {"none": 0, "solved": 0, "rank_deficient": 0}
    for _ in range(200):
        rows, rhs, n_cols, n_rhs = _random_system(rng)
        got = _dense(solve_affine_many(
            constant_columns(zip(rows, rhs), n_cols), n_cols, n_rhs), n_cols)
        assert len(got) == n_rhs
        rank = n_cols - len(nullspace(rows, n_cols))
        if rank < min(len(rows), n_cols):
            seen["rank_deficient"] += 1
        for k in range(n_rhs):
            single = [(row, b.get(k, Fraction(0)))
                      for row, b in zip(rows, rhs)]
            want = reference_solve_affine(single, n_cols)
            assert got[k] == want
            alone = [(row, {0: b}) for row, b in single]
            assert _dense(solve_affine_many(
                constant_columns(alone, n_cols), n_cols, 1), n_cols) == [want]
            seen["none" if want is None else "solved"] += 1
    assert min(seen.values()) >= 20, seen


def test_multi_rhs_inconsistency_is_per_right_hand_side():
    # x0 + x1 = b, 2 x0 + 2 x1 = b': consistent exactly when b' = 2 b.
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    rows = [({0: one, 1: one}, {0: one, 1: one}),
            ({0: two, 1: two}, {0: two, 1: three}),
            ({}, {2: Fraction(5)})]
    assert _dense(solve_affine_many(constant_columns(rows, 2), 2, 4), 2) == [
        [Fraction(1), Fraction(0)], None, None, [Fraction(0), Fraction(0)]]


def test_multi_rhs_without_unknowns():
    rows = [({}, {0: Fraction(0), 1: Fraction(1)})]
    assert _dense(solve_affine_many(constant_columns(rows, 0), 0, 3), 0) == \
        [[], None, []]
    assert solve_affine_many([], 2, 0) == []


def _as_fractions(row):
    return {c: Fraction(v) for c, v in row.items()}


def test_mixed_entries_match_fraction_reference():
    rng = random.Random(SEED)
    types = set()
    for _ in range(200):
        rows, rhs, n_cols, n_rhs = _random_system(rng, _mixed_entry)
        exact = [_as_fractions(row) for row in rows]
        basis = nullspace(rows, n_cols)
        assert all(list(vec) == sorted(vec) and all(vec.values())
                   for vec in basis)
        assert ([[vec.get(c, 0) for c in range(n_cols)] for vec in basis]
                == reference_nullspace(exact, n_cols))
        got = _dense(solve_affine_many(
            constant_columns(zip(rows, rhs), n_cols), n_cols, n_rhs), n_cols)
        for k in range(n_rhs):
            single = [(row, Fraction(b.get(k, 0)))
                      for row, b in zip(exact, rhs)]
            assert got[k] == reference_solve_affine(single, n_cols)
        entries = [v for vec in basis for v in vec.values()]
        entries += [v for sol in got if sol is not None for v in sol]
        entries += [v for prow in _eliminate(rows)[0].values()
                    for v in prow.values()]
        assert all(is_canonical(v) for v in entries), entries
        types.update(type(v) for v in entries)
    assert types == {int, Fraction}


def _sparse_system(rng):
    """A seeded sparse system of up to 60 rows over up to 40 columns.

    Rows hold a few mixed int/Fraction entries, or a combination of up to
    three earlier rows, so that pivot rows gain and cancel entries during
    back-elimination and many systems are rank-deficient.  Right-hand side
    k is either A x_k or random sparse entries.
    """
    n_cols = rng.randint(1, 40)
    rows = []
    for _ in range(rng.randint(0, 60)):
        if rows and rng.random() < 0.3:
            row = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                w = _mixed_entry(rng)
                for c, v in other.items():
                    row[c] = row.get(c, 0) + w * v
            row = {c: v for c, v in row.items() if v}
        else:
            cols = rng.sample(range(n_cols), rng.randint(0, min(n_cols, 6)))
            row = {c: _mixed_entry(rng) for c in cols}
        rows.append(row)
    n_rhs = rng.randint(0, 4)
    rhs = [{} for _ in rows]
    for k in range(n_rhs):
        # Half the right-hand sides are A x for an integer x: consistent.
        x = [rng.randint(-2, 2) for _ in range(n_cols)]
        consistent = rng.random() < 0.5
        for row, b in zip(rows, rhs):
            if consistent:
                value = sum(v * x[c] for c, v in row.items())
            else:
                value = _mixed_entry(rng) if rng.random() < 0.3 else 0
            if value:
                b[k] = value
    return rows, rhs, n_cols, n_rhs


def _ordered(rows):
    """Each row's entries in stored key order, with their types; None
    stays None."""
    return [None if row is None else [(c, type(v), v) for c, v in row.items()]
            for row in rows]


def _typed(solutions):
    """Each solution's values with their types; None stays None."""
    return [sol and [(type(v), v) for v in sol] for sol in solutions]


def _reduced(pivots):
    """Each pivot row divided by its lead: its row of the reduced row
    echelon form, column -> (type, value)."""
    reduced = {}
    for lead, prow in pivots.items():
        row = {c: rational_div(v, prow[lead]) for c, v in prow.items()}
        reduced[lead] = {c: (type(q), q) for c, q in row.items()}
    return reduced


def _supports(rows):
    return [set(row) for row in rows]


def test_indexed_elimination_matches_scanning_oracle():
    """Same reduced form and pivot columns as the scanning oracle; the
    oracle takes the rows in ``_eliminate``'s order, fewest entries first,
    since that order decides which rows get stuck."""
    rng = random.Random(SEED)
    seen = {"rank_deficient": 0, "stuck": 0, "inconsistent": 0, "solved": 0}
    for _ in range(150):
        rows, rhs, n_cols, n_rhs = _sparse_system(rng)
        limit = rng.choice([None, rng.randint(0, n_cols)])
        want_stuck = []
        got, _, stuck = _eliminate(rows, limit)
        want = scanning_rref(sorted(rows, key=len), limit, want_stuck)
        assert sorted(got) == sorted(want)
        assert _reduced(got) == _reduced(want)
        assert _supports(stuck) == _supports(want_stuck)
        basis = nullspace(rows, n_cols)
        assert _ordered(basis) == _ordered(scanning_nullspace(rows, n_cols))
        system = list(zip(rows, rhs))
        solutions = solve_affine_many(constant_columns(system, n_cols),
                                      n_cols, n_rhs)
        assert (_typed(_dense(solutions, n_cols))
                == _typed(scanning_solve_affine_many(system, n_cols, n_rhs)))
        rank = n_cols - len(basis)
        seen["rank_deficient"] += rank < min(len(rows), n_cols)
        seen["stuck"] += bool(stuck)
        seen["inconsistent"] += None in solutions
        seen["solved"] += any(sol is not None for sol in solutions)
    assert min(seen.values()) >= 20, seen


def _scaled_system(rng):
    """Seeded rows over n unknown and up to three constant columns: mixed
    int and Fraction entries of either sign, so many leads are negative,
    and rows that are rational multiples of an earlier row, which reduce
    to nothing."""
    n_cols, n_const = rng.randint(1, 12), rng.randint(0, 3)
    rows = []
    for _ in range(rng.randint(0, 25)):
        if rows and rng.random() < 0.3:
            k = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            row = {c: _as_rational(k * v) for c, v in rng.choice(rows).items()}
        else:
            cols = rng.sample(range(n_cols + n_const),
                              rng.randint(1, min(5, n_cols + n_const)))
            row = {c: _mixed_entry(rng) for c in cols}
        rows.append(row)
    return rows, n_cols


def test_primitive_rows_match_fraction_elimination():
    """Each pivot row is a primitive integer row with a positive lead, and
    divided by that lead it is the ``Fraction`` elimination's row; the
    pivot columns, the column index and the stuck rows' supports agree.
    The oracle takes the rows in ``_eliminate``'s order, fewest entries
    first, since that order decides which rows get stuck."""
    rng = random.Random(SEED)
    seen = {"fraction": 0, "negative_lead": 0, "multiple": 0, "stuck": 0}
    for _ in range(200):
        rows, n_cols = _scaled_system(rng)
        limit = rng.choice([None, n_cols])
        got, holders, stuck = _eliminate(rows, limit)
        want, want_holders, want_stuck = fraction_eliminate(
            sorted(rows, key=len), limit)
        assert sorted(got) == sorted(want)
        assert _reduced(got) == _reduced(want)
        assert ({c: s for c, s in holders.items() if s}
                == {c: s for c, s in want_holders.items() if s})
        assert _supports(stuck) == _supports(want_stuck)
        for lead, prow in got.items():
            assert min(prow) == lead and prow[lead] > 0
            assert all(type(v) is int for v in prow.values())
            assert math.gcd(*prow.values()) == 1
        seen["fraction"] += any(type(v) is Fraction
                                for row in rows for v in row.values())
        seen["negative_lead"] += any(row and row[min(row)] < 0
                                     for row in rows)
        seen["multiple"] += len(rows) > len(got) + len(stuck)
        seen["stuck"] += bool(stuck)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
def test_inexact_entries_raise(bad):
    """An entry that is not an exact rational raises TypeError, in every
    position; an integral float is never truncated to an int."""
    for row in ({0: bad}, {0: 1, 1: bad}, {0: Fraction(1, 2), 1: bad},
                {0: 1, 2: bad}):
        with pytest.raises(TypeError):
            nullspace([{1: 1}, row], 2)
        with pytest.raises(TypeError):
            solve_affine_many([{1: 1}, row], 2, 1)


def test_pivot_entries_stay_short(planar):
    """Dividing each pivot row by its content keeps its entries short: on
    planar's determining rows at degree = gauge degree 7 the 3744 pivot
    entries hold at most 9 bits each and 6664 in all.  Without the
    division after back-elimination that is 11 and 8240 bits, without the
    division of a new pivot row 9 and 8039, and without either 15 and
    14118."""
    ansatz = Ansatz(coeff_degree=7, coeff_jet_order=1, gauge_degree=7)
    ds = determining_system(planar, ansatz)
    pivots, _, _ = _eliminate(ds.rows)
    bits = [abs(v).bit_length()
            for prow in pivots.values() for v in prow.values()]
    assert (len(pivots), len(bits)) == (2384, 3744)
    assert max(bits) <= 9 and sum(bits) <= 6664


def test_elimination_scales_with_the_rows_holding_a_column():
    """One free column per row: every pivot row holds one free column, so
    reading out the basis or a solution must not scan every pivot row for
    every column (quadratic in n, many seconds at this size)."""
    n = 12000
    rows = [{i: 1, n + i: 2} for i in range(n)]
    with deadline(1):
        basis = nullspace(rows, 2 * n)
        solutions = solve_affine_many(
            constant_columns([(row, {0: 1}) for row in rows], 2 * n), 2 * n, 1)
    assert len(basis) == n
    assert basis[0] == {0: 1, n: Fraction(-1, 2)}
    assert basis[-1] == {n - 1: 1, 2 * n - 1: Fraction(-1, 2)}
    assert _dense(solutions, 2 * n) == [[1] * n + [0] * n]


def _assert_row_order_is_free(rng, rows, n_cols, n_rhs, shuffles=3):
    """``nullspace`` of the unknown columns and ``solve_affine_many`` of the
    whole rows give the same vectors, with the same values, entry types
    and key order, however the rows are ordered.  Returns the solutions."""
    homogeneous = [{c: v for c, v in row.items() if c < n_cols}
                   for row in rows]

    def solve(order):
        return (_ordered(nullspace([homogeneous[i] for i in order], n_cols)),
                _ordered(solve_affine_many([rows[i] for i in order],
                                           n_cols, n_rhs)))
    want = solve(range(len(rows)))
    for _ in range(shuffles):
        assert solve(rng.sample(range(len(rows)), len(rows))) == want
    return want[1]


def _generated_verify_file(tmp_path, monkeypatch):
    """The benchmark's generated ``free_particle_3d`` verify file, seed 1,
    full size, written by ``bench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are created.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    jobs = workloads.prepare("verify", 1, "full", tmp_path, tmp_path / "work")
    job, = [job for job in jobs if job.name == "free_particle_3d"]
    return tmp_path / job.path


def test_row_order_cannot_change_a_solve(planar, monkeypatch, tmp_path):
    """The reduced row echelon form is unique for a fixed column order, so
    shuffling the rows changes no solution: on seeded sparse systems, on
    planar's determining rows (its gauge columns taken as constants) and
    on the gauge systems of a generated verify file."""
    rng = random.Random(SEED)
    seen = {"inconsistent": 0, "solved": 0}
    for _ in range(100):
        rows, rhs, n_cols, n_rhs = _sparse_system(rng)
        solutions = _assert_row_order_is_free(
            rng, constant_columns(zip(rows, rhs), n_cols), n_cols, n_rhs)
        seen["inconsistent"] += None in solutions
        seen["solved"] += any(sol is not None for sol in solutions)
    assert min(seen.values()) >= 20, seen

    ansatz = Ansatz(coeff_degree=3, coeff_jet_order=1, gauge_degree=3)
    ds = determining_system(planar, ansatz)
    n_gauge = sum(len(t.term_map()) for t in ds.gauge_templates)
    solutions = _assert_row_order_is_free(
        rng, ds.rows, len(ds.unknowns) - n_gauge, n_gauge)
    assert None in solutions and any(solutions)

    systems = []
    monkeypatch.setattr(engine, "solve_affine_many",
                        lambda *system: systems.append(system)
                        or solve_affine_many(*system))
    problem = load_problem(str(_generated_verify_file(tmp_path, monkeypatch)))
    gauges = find_gauges(problem.lagrangian, [g for _, g in problem.candidates],
                         degree=problem.ansatz.gauge_degree,
                         jet_order=problem.ansatz.gauge_jet_order)
    assert [gauge is not None for gauge in gauges] == \
        [True, True, False, False]
    assert len(systems) == 1
    solutions = _assert_row_order_is_free(rng, *systems[0])
    assert [sol is not None for sol in solutions] == [True, True, False, False]
