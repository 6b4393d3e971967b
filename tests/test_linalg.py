"""Exact sparse elimination: the multi-right-hand-side solve against the
single-right-hand-side reference, and int-or-Fraction entries against the
Fraction-only reference, on seeded random rational systems."""

import random
from fractions import Fraction

from noether.linalg import nullspace, rref, solve_affine, solve_affine_many

from util import (SEED, is_canonical, reference_nullspace,
                  reference_solve_affine)


def _fraction_entry(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))


def _mixed_entry(rng):
    """Mostly ints, as in a determining system; otherwise a Fraction, which
    may be integral (4/2) and must then come out as an int."""
    if rng.random() < 0.3:
        return _fraction_entry(rng)
    return rng.choice([-3, -2, -1, 1, 2, 5])


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
        got = solve_affine_many(list(zip(rows, rhs)), n_cols, n_rhs)
        assert len(got) == n_rhs
        rank = n_cols - len(nullspace(rows, n_cols))
        if rank < min(len(rows), n_cols):
            seen["rank_deficient"] += 1
        for k in range(n_rhs):
            single = [(row, b.get(k, Fraction(0)))
                      for row, b in zip(rows, rhs)]
            want = reference_solve_affine(single, n_cols)
            assert got[k] == want
            assert solve_affine(single, n_cols) == want
            seen["none" if want is None else "solved"] += 1
    assert min(seen.values()) >= 20, seen


def test_multi_rhs_inconsistency_is_per_right_hand_side():
    # x0 + x1 = b, 2 x0 + 2 x1 = b': consistent exactly when b' = 2 b.
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    rows = [({0: one, 1: one}, {0: one, 1: one}),
            ({0: two, 1: two}, {0: two, 1: three}),
            ({}, {2: Fraction(5)})]
    assert solve_affine_many(rows, 2, 4) == [
        [Fraction(1), Fraction(0)], None, None, [Fraction(0), Fraction(0)]]


def test_multi_rhs_without_unknowns():
    rows = [({}, {0: Fraction(0), 1: Fraction(1)})]
    assert solve_affine_many(rows, 0, 3) == [[], None, []]
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
        got = solve_affine_many(list(zip(rows, rhs)), n_cols, n_rhs)
        for k in range(n_rhs):
            single = [(row, Fraction(b.get(k, 0)))
                      for row, b in zip(exact, rhs)]
            assert got[k] == reference_solve_affine(single, n_cols)
        entries = [v for vec in basis for v in vec.values()]
        entries += [v for sol in got if sol is not None for v in sol]
        entries += [v for prow in rref(rows).values() for v in prow.values()]
        assert all(is_canonical(v) for v in entries), entries
        types.update(type(v) for v in entries)
    assert types == {int, Fraction}
