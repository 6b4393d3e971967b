"""Exact rational linear algebra on sparse rows.

Rows are dictionaries mapping column index to a nonzero exact number: an
``int``, or a ``Fraction`` when not integral (see ``noether.expr``).  Every
result keeps that form, and every division goes through ``rational_div``,
since ``int / int`` is a float.  The elimination order is fixed by the input
row order and by always pivoting on the leftmost column, so results are
deterministic.  A system is one list of rows over n unknown columns, and
its right-hand side k is the constant column n + k: each row reads
A x + c_k = 0.

One elimination keeps a column index: ``holders[c]`` is the set of pivot
columns whose rows hold an entry in column ``c``.  It is updated wherever a
pivot row changes, an entry added when a column appears in the row and
removed when it cancels, and a new pivot row's columns are registered when
it is stored.  Back-elimination then visits only the rows holding the new
pivot column, and the read-outs of ``nullspace`` and ``solve_affine_many``
only the rows holding a free or constant column.  The visiting order
of the set cannot change a result: each pivot-row update reads only the new
row, the visited rows are exactly those holding the column, and a row's own
key order depends only on that row's own updates.  The incoming row is
reduced against the pivots without the index, since it is not yet one.
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


def _eliminate(rows: List[Row], limit: Optional[int] = None
               ) -> Tuple[Dict[int, Row], Dict[int, set[int]], List[Row]]:
    """Reduced row echelon form, pivot column -> row with 1 there and no
    other pivot column; the column index, column -> pivot columns whose
    rows hold it; and the stuck rows.  Columns at or past ``limit`` are
    carried along but never pivoted on: a row that reduces to entries
    there alone is stuck."""
    pivots: Dict[int, Row] = {}
    holders: Dict[int, set[int]] = {}
    stuck: List[Row] = []
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
        held = holders.pop(lead, ())
        for col in r:
            holders.setdefault(col, set()).add(lead)
        for p in held:
            prow = pivots[p]
            factor = prow[lead]
            for col, val in r.items():
                s = prow.get(col, 0) - factor * val
                if s:
                    if col not in prow:
                        holders[col].add(p)
                    prow[col] = _exact(s)
                else:
                    del prow[col]
                    holders[col].discard(p)
        pivots[lead] = r
    return pivots, holders, stuck


def nullspace(rows: List[Row], n_cols: int) -> List[Row]:
    """Basis of the solution space of the homogeneous system.

    One sparse vector per free column, in ascending column order, each
    with its entries in ascending column order and normalized so that its
    first entry is 1.
    """
    pivots, holders, _ = _eliminate(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = {free: 1}
        for pcol in holders.get(free, ()):
            vec[pcol] = -pivots[pcol][free]
        vec = dict(sorted(vec.items()))
        first = next(iter(vec.values()))
        if first != 1:
            vec = {c: rational_div(v, first) for c, v in vec.items()}
        basis.append(vec)
    return basis


def solve_affine_many(rows: List[Row], n_cols: int,
                      n_rhs: int) -> List[Optional[Row]]:
    """One exact solution of A x + c_k = 0 for each constant column
    n_cols + k, k in 0 .. n_rhs-1, all in one elimination.

    The constants are never pivoted on, so pivots depend on A alone and
    every consistent right-hand side gets exactly the solution it would
    get alone: free variables set to zero, the canonical particular
    solution of the reduced system.  It is sparse like a ``nullspace``
    vector: its nonzero values in ascending column order.  Right-hand side
    k is None when a row whose unknown part reduced to zero still holds
    column n_cols + k."""
    pivots, holders, stuck = _eliminate(rows, n_cols)
    inconsistent = {c for r in stuck for c in r}
    return [None if rhs_col in inconsistent else
            {p: -pivots[p][rhs_col] for p in sorted(holders.get(rhs_col, ()))}
            for rhs_col in range(n_cols, n_cols + n_rhs)]
