"""Euler-Lagrange synthesis and on-shell reduction.

The Euler operator is applied per dependent variable over distinct jet
coordinates.  Each resulting equation is solved for its distinguished
highest derivative (maximal total order, ties broken towards derivatives of
the earliest-declared independent variable), which enables substitution-based
reduction of any expression to a normal form modulo the equations of motion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .expr import JET, Expr, Record, VarId
from .jets import JetSpace, multi_derivative


class ReductionError(Exception):
    """Reduction modulo the equations of motion could not proceed."""


class Lagrangian(Record):
    """A polynomial Lagrangian of a fixed derivative order.

    ``partials`` holds each nonzero jet partial once, as (dependent index,
    jet v, dL/dv), dependent by dependent and then in registration order.
    ``_el`` holds the Euler-Lagrange system once ``euler_lagrange`` has
    derived it.  Both are derived from the other fields, so ``==`` and
    ``repr`` leave them out.
    """

    __slots__ = ("space", "order", "body", "partials", "_el")
    _fields = ("space", "order", "body")

    def __init__(self, space: JetSpace, order: int, body: Expr):
        if order < 1:
            raise ValueError("Lagrangian order must be at least 1")
        if body.is_zero:
            raise ValueError("Lagrangian body must not be identically zero")
        actual = body.max_jet_order()
        if actual > order:
            raise ValueError(
                f"Lagrangian of order {order} contains a derivative of "
                f"order {actual}")
        self.space = space
        self.order = order
        self.body = body
        present = body.variables()
        self.partials: List[Tuple[int, VarId, Expr]] = [
            (i, v, body.partial(v))
            for i in range(len(space.dependents))
            for v in space.jet_vars(i, order)
            if v in present]
        self._el: Optional[ELSystem] = None


class ELSystem(Record):
    """Euler-Lagrange equations, one per dependent variable.

    ``equations[i]`` is canonical (monic in its distinguished derivative when
    that is possible).  ``solved_forms`` maps each distinguished highest
    derivative to the expression it equals on shell; it is None when any
    equation cannot be solved that way, in which case reduction is
    unavailable and ``verify`` reports a law's raw divergence with an
    indeterminate verdict.  A law built from a symmetry needs no reduction:
    Noether's identity certifies it off shell, from ``raw``, the
    expressions E_i(L) before canonical form (None unless given).  ``raw``
    restates ``equations``, so ``==`` and ``repr`` leave it out.
    """

    __slots__ = ("space", "equations", "solved_forms", "raw")
    _fields = ("space", "equations", "solved_forms")

    def __init__(self, space: JetSpace, equations: List[Expr],
                 solved_forms: Optional[Dict[VarId, Expr]],
                 raw: Optional[List[Expr]] = None):
        self.space = space
        self.equations = equations
        self.solved_forms = solved_forms
        self.raw = raw

    @property
    def reducible(self) -> bool:
        return self.solved_forms is not None


def _jet_rank(v: VarId) -> tuple:
    """Order jets by total order, then multi-index, then dependent index."""
    return (v.order, v.multi_index, -v.dep_index)


def euler_lagrange(L: Lagrangian) -> ELSystem:
    """The Euler-Lagrange equations of a Lagrangian.

    For each dependent variable: sum over jet coordinates of
    (-1)^order * D^multi (dL/du_multi).  The record keeps these sums as
    ``raw``, for Noether's identity, and their canonical form.  The system
    is derived once per Lagrangian; every later call returns the same
    record, which callers must not change.
    """
    if L._el is None:
        space = L.space
        equations = [Expr.zero() for _ in space.dependents]
        for i, v, p in L.partials:
            sign = -1 if v.order % 2 else 1
            equations[i] = equations[i] + multi_derivative(
                p, v.multi_index, space) * sign
        L._el = _normalize(space, equations)
    return L._el


def _normalize(space: JetSpace, raw: List[Expr]) -> ELSystem:
    """Canonical forms, and solved forms when every equation has them.

    An equation is solved for its top jet when its lead, the partial by
    that jet, is a constant and no earlier equation has the same top.  It
    is then lead*top + rest, rest free of top, and its solved form
    (lead*top - eq) / lead keeps rest's term order.
    """
    solved: Dict[VarId, Expr] = {}
    normalized: List[Expr] = []
    for eq in raw:
        jets = [v for v in eq.variables() if v.kind == JET]
        if jets:
            top = max(jets, key=_jet_rank)
            lead = eq.partial(top)
            if lead.is_constant and top not in solved:
                lead = lead.constant_value()
                normalized.append(eq / lead)
                solved[top] = (Expr({((top, 1),): lead}) - eq) / lead
                continue
        normalized.append(eq)
    return ELSystem(space=space, equations=normalized,
                    solved_forms=solved if len(solved) == len(raw) else None,
                    raw=raw)


def reduce_mod_el(e: Expr, el: ELSystem, space: JetSpace) -> Expr:
    """Normal form of an expression modulo the equations of motion.

    Repeatedly substitutes every derivative that dominates a distinguished
    solved derivative (same dependent variable, componentwise at least its
    multi-index) by the appropriately differentiated solved form.  Each step
    strictly lowers the highest reducible jet, so this terminates; the guard
    only trips on malformed externally-supplied solved forms.
    """
    if not el.reducible:
        raise ReductionError("solved forms unavailable; cannot reduce")
    solved = el.solved_forms
    guard = space.variable_count + 8
    for _ in range(guard):
        reducible = []
        for v in e.variables():
            if v.kind != JET:
                continue
            for h in solved:
                if h.dep_index == v.dep_index and all(
                        a >= b for a, b in zip(v.multi_index, h.multi_index)):
                    reducible.append((v, h))
                    break
        if not reducible:
            return e
        v, h = max(reducible, key=lambda pair: _jet_rank(pair[0]))
        delta = tuple(a - b for a, b in zip(v.multi_index, h.multi_index))
        replacement = multi_derivative(solved[h], delta, space)
        e = e.substitute({v: replacement})
    raise ReductionError("reduction did not terminate; malformed solved forms")
