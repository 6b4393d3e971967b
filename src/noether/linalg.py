"""Exact rational linear algebra on sparse rows.

Rows are dictionaries mapping column index to a nonzero exact number: an
``int``, or a ``Fraction`` when not integral (see ``noether.expr``).  Every
result keeps that form, and every division goes through ``rational_div``,
since ``int / int`` is a float.  The elimination order is fixed by the input
row order and by always pivoting on the leftmost column, so results are
deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import Rational, _as_rational, _exact, rational_div

Row = Dict[int, Rational]


def _axpy(target: Row, factor: Rational, source: Row) -> None:
    """target -= factor * source, dropping zeros."""
    for col, val in source.items():
        s = target.get(col, 0) - factor * val
        if s:
            target[col] = _exact(s)
        else:
            target.pop(col, None)


def rref(rows: List[Row], limit: Optional[int] = None,
         stuck: Optional[List[Row]] = None) -> Dict[int, Row]:
    """Reduced row echelon form; returns pivot column -> normalized row.

    Every returned row has coefficient 1 in its pivot column and contains no
    other pivot column, so back-substitution can read answers directly.
    Columns at or past ``limit`` are carried along but never pivoted on: a
    row that reduces to entries there alone is appended to ``stuck``.
    """
    pivots: Dict[int, Row] = {}
    for row in rows:
        r = {c: _as_rational(v) for c, v in row.items()}
        # Existing pivot rows hold no pivot columns besides their own, so a
        # single sweep clears every pivot-column entry from r.
        for col in sorted(r):
            if col in r and col in pivots:
                _axpy(r, r[col], pivots[col])
        if not r:
            continue
        lead = min(r)
        if limit is not None and lead >= limit:
            stuck.append(r)
            continue
        lv = r[lead]
        if lv != 1:
            r = {c: rational_div(v, lv) for c, v in r.items()}
        for prow in pivots.values():
            if lead in prow:
                _axpy(prow, prow[lead], r)
        pivots[lead] = r
    return pivots


def nullspace(rows: List[Row], n_cols: int) -> List[Row]:
    """Basis of the solution space of the homogeneous system.

    One sparse vector per free column, in ascending column order, each
    with its entries in ascending column order and normalized so that its
    first entry is 1.
    """
    pivots = rref(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = {free: 1}
        for pcol, prow in pivots.items():
            val = prow.get(free)
            if val:
                vec[pcol] = -val
        vec = dict(sorted(vec.items()))
        first = next(iter(vec.values()))
        if first != 1:
            vec = {c: rational_div(v, first) for c, v in vec.items()}
        basis.append(vec)
    return basis


def solve_affine(rows: List[Tuple[Row, Rational]],
                 n_cols: int) -> Optional[List[Rational]]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is the canonical
    particular solution of the reduced system.
    """
    return solve_affine_many([(row, {0: rhs}) for row, rhs in rows],
                             n_cols, 1)[0]


def solve_affine_many(rows: List[Tuple[Row, Dict[int, Rational]]],
                      n_cols: int, n_rhs: int
                      ) -> List[Optional[List[Rational]]]:
    """``solve_affine`` for right-hand sides 0 .. n_rhs-1 in one elimination.

    Each row carries its right-hand sides sparsely, as {k: b_k}.  They ride
    along as columns past the unknowns, so pivots depend on A alone and
    every consistent right-hand side gets exactly the solution
    ``solve_affine`` would give it alone.  Right-hand side k is None when a
    row whose unknown part reduced to zero still has a nonzero entry k.
    """
    combined = []
    for row, rhs in rows:
        r = dict(row)
        for k, b in rhs.items():
            if b:
                r[n_cols + k] = -b
        combined.append(r)
    stuck: List[Row] = []
    pivots = rref(combined, limit=n_cols, stuck=stuck)
    inconsistent = {c for r in stuck for c in r}
    solutions: List[Optional[List[Rational]]] = []
    for rhs_col in range(n_cols, n_cols + n_rhs):
        if rhs_col in inconsistent:
            solutions.append(None)
            continue
        solution = [0] * n_cols
        for pcol, prow in pivots.items():
            solution[pcol] = -prow.get(rhs_col, 0)
        solutions.append(solution)
    return solutions
