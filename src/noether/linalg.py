"""Exact rational linear algebra on sparse rows.

Rows are dictionaries mapping column index to a nonzero exact number: an
``int``, or a ``Fraction`` when not integral (see ``noether.expr``).  Every
result keeps that form, and every division goes through ``rational_div``,
since ``int / int`` is a float.  A system is one list of rows over n
unknown columns, and its right-hand side k is the constant column n + k:
each row reads A x + c_k = 0.

The elimination works on primitive integer rows.  The engine's rows arrive
as ints; a row holding a ``Fraction`` (a library caller's, or a gauge row
with a candidate's fractional constant) is scaled once, on entry, by the
lcm of its denominators.  To clear column c of row r with the pivot row p,
with g = gcd(p_c, r_c), r becomes (p_c/g)·r − (r_c/g)·p, and
back-elimination of the stored pivot rows works the same way.  Each pivot
row is divided by its content, the gcd of its entries, and signed so that
its leading entry is positive (Collins, J. ACM 14, 1967, on primitive
remainder sequences).  So it is a positive multiple of its row of the
reduced row echelon form, whose entry at column c is p_c / p_lead, and no
positive scale of an input row changes a result.  ``nullspace`` and
``solve_affine_many`` divide each entry out, once, at read-out.

The rows are taken fewest entries first, a stable sort, since short rows
make little fill (after Markowitz, Management Sci. 3, 1957); the pivot is
always the leftmost column.  The reduced row echelon form is unique once
the column order is fixed, so the row order changes no result, and every
result is deterministic.

One elimination keeps a column index: ``holders[c]`` is the set of pivot
columns whose rows hold an entry in column ``c``, updated wherever a pivot
row gains or loses an entry.  Back-elimination visits only the rows
holding the new pivot column, and the read-outs only the rows holding a
free or constant column.  The visiting order of the set cannot change a
result: each pivot-row update reads only the new row, the visited rows are
exactly those holding the column, and a row's own key order depends only
on that row's own updates.  The incoming row is reduced against the
pivots without the index, since it is not yet one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .expr import Rational, _as_rational, rational_div

Row = Dict[int, Rational]
# Built once: a set literal in ``_integral`` would be built for every row.
_INTS = frozenset({int})


def _integral(row: Row) -> Dict[int, int]:
    """A copy of ``row`` as ints, scaled by the lcm of its denominators.

    Entries go through ``_as_rational`` unless all are ints or Fractions,
    so a float, or anything else that is not an exact rational, raises
    TypeError and is never truncated."""
    types = set(map(type, row.values()))
    if types == _INTS:
        return dict(row)
    if not types <= {int, Fraction}:
        row = {c: _as_rational(v) for c, v in row.items()}
    m = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (m // v.denominator) for c, v in row.items()}


def _eliminate(rows: List[Row], limit: Optional[int] = None
               ) -> Tuple[Dict[int, Dict[int, int]], Dict[int, set[int]],
                          List[Dict[int, int]]]:
    """The pivot rows, pivot column -> primitive integer row with a
    positive entry there and no other pivot column; the column index,
    column -> pivot columns whose rows hold it; and the stuck rows.

    Rows are taken in a stable sort by entry count.  Pivot row p is a
    positive multiple of its reduced row echelon row, whose entry at
    column c is p[c] / p[lead].  Columns at or past ``limit`` are carried
    along but never pivoted on: a row that reduces to entries there alone
    is stuck.  A stuck row is y^T [A | c], scaled to integers, for some
    rational combination y of the input rows with y^T A = 0: a witness
    that each constant column it holds is inconsistent.  Scaling keeps its
    support, and which rows get stuck depends on the row order."""
    pivots: Dict[int, Dict[int, int]] = {}
    holders: Dict[int, set[int]] = {}
    stuck: List[Dict[int, int]] = []
    for row in sorted(rows, key=len):
        r = _integral(row)
        # Existing pivot rows hold no pivot columns besides their own, so a
        # single sweep clears every pivot-column entry from r.
        for col in sorted(r):
            if col in r and col in pivots:
                prow = pivots[col]
                pv, rv = prow[col], r[col]
                g = gcd(pv, rv)
                a, b = pv // g, rv // g
                if a != 1:
                    r = {c: a * v for c, v in r.items()}
                for c, v in prow.items():
                    s = r.get(c, 0) - b * v
                    if s:
                        r[c] = s
                    else:
                        del r[c]
        if not r:
            continue
        lead = min(r)
        if limit is not None and lead >= limit:
            stuck.append(r)
            continue
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        if g != 1:
            r = {c: v // g for c, v in r.items()}
        rl = r[lead]
        held = holders.pop(lead, ())
        for col in r:
            holders.setdefault(col, set()).add(lead)
        for p in held:
            prow = pivots[p]
            pv = prow[lead]
            g = gcd(rl, pv)
            a, b = rl // g, pv // g
            if a != 1:
                prow = {c: a * v for c, v in prow.items()}
            for col, val in r.items():
                s = prow.get(col, 0) - b * val
                if s:
                    if col not in prow:
                        holders[col].add(p)
                    prow[col] = s
                else:
                    del prow[col]
                    holders[col].discard(p)
            g = gcd(*prow.values())
            if g != 1:
                prow = {c: v // g for c, v in prow.items()}
            pivots[p] = prow
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
        # The rows holding ``free`` lead before it: the first entry is 1 or
        # -p[free] / p[lead] of the first, and u / w its inverse.
        held = sorted(holders.get(free, ()))
        u, w = (pivots[held[0]][held[0]], -pivots[held[0]][free]) \
            if held else (1, 1)
        vec = {p: rational_div(-pivots[p][free] * u, pivots[p][p] * w)
               for p in held}
        vec[free] = rational_div(u, w)
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
            {p: rational_div(-pivots[p][rhs_col], pivots[p][p])
             for p in sorted(holders.get(rhs_col, ()))}
            for rhs_col in range(n_cols, n_cols + n_rhs)]
