"""Jet-space bookkeeping: variable registry, total derivatives, prolongation.

A ``JetSpace`` owns every variable of a problem: the independent variables,
the dependent variables and all derivative coordinates up to a fixed working
order.  The registry is complete when the constructor returns and never
changes afterwards.  Registration order fixes each variable's
``sort_index``, which in turn fixes monomial ordering and printed output, so
runs are deterministic.

The working order is chosen at problem load with enough headroom for the
prolongations and reductions the problem needs; raising a derivative past
it raises ``HeadroomError`` instead of growing the registry.

A ``Generator`` holds only nonzero coefficients and is differentiated
only through its ``characteristics`` Q_i = eta_i - sum_j xi_j * u_i,j:
its prolongation at the jet (i, mu) is D^mu Q_i plus
sum_l xi_l * u_i,mu+l, with D^mu from ``multi_derivative``, as in the
engine's invariance residual and boundary terms.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Sequence, Tuple

from .expr import DEPENDENT, INDEPENDENT, JET, Expr, Record, VarId

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


class HeadroomError(ValueError):
    """A derivative would exceed the registered working order."""


class JetSpace:
    """Registry of independent, dependent and jet variables up to an order."""

    def __init__(self, independents: Sequence[str], dependents: Sequence[str],
                 max_order: int = 4):
        if max_order < 1:
            raise ValueError("max_order must be at least 1")
        names = list(independents) + list(dependents)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"bad variable name {name!r}: use letters and digits, "
                    "starting with a letter")
        self.max_order = max_order
        self._by_name: Dict[str, VarId] = {}
        self._jets: Dict[Tuple[int, Tuple[int, ...]], VarId] = {}

        self.independents: Tuple[VarId, ...] = tuple(
            self._register(INDEPENDENT, n) for n in independents)
        self.dependents: Tuple[VarId, ...] = tuple(
            self._register(DEPENDENT, n, dep_index=i,
                           multi_index=(0,) * len(self.independents))
            for i, n in enumerate(dependents))
        idx = range(len(self.independents))
        for order in range(1, max_order + 1):
            for i, dep in enumerate(self.dependents):
                # Counted per independent, the first slot largest first:
                # (2,0), (1,1), (0,2).
                for c in itertools.combinations_with_replacement(idx, order):
                    multi = tuple(map(c.count, idx))
                    self._register(JET, self._jet_name(dep, multi),
                                   dep_index=i, multi_index=multi)

    def _register(self, kind: str, name: str, dep_index: int = -1,
                  multi_index: Tuple[int, ...] = ()) -> VarId:
        if name in self._by_name:
            raise ValueError(f"variable name collision: {name!r}")
        v = VarId(kind=kind, name=name, sort_index=len(self._by_name),
                  dep_index=dep_index, multi_index=multi_index)
        self._by_name[name] = v
        if kind != INDEPENDENT:
            self._jets[(dep_index, multi_index)] = v
        return v

    def _jet_name(self, dep: VarId, multi: Tuple[int, ...]) -> str:
        if self.is_ode:
            return dep.name + "'" * sum(multi)
        suffix = "".join(ind.name * count
                         for ind, count in zip(self.independents, multi))
        return f"{dep.name}_{suffix}"

    # -- lookup ----------------------------------------------------------

    @property
    def is_ode(self) -> bool:
        return len(self.independents) == 1

    def lookup(self, name: str) -> VarId | None:
        return self._by_name.get(name)

    def jet(self, dep_index: int, multi: Tuple[int, ...]) -> VarId:
        """The jet coordinate for a dependent variable and multi-index.

        An all-zero multi-index yields the dependent variable itself.
        """
        if sum(multi) > self.max_order:
            raise HeadroomError(
                f"derivative order {sum(multi)} exceeds working order "
                f"{self.max_order}")
        try:
            return self._jets[(dep_index, tuple(multi))]
        except KeyError:
            raise ValueError(f"no dependent variable with index {dep_index}")

    def derivative(self, v: VarId, indep_index: int) -> VarId:
        """Raise a dependent/jet variable by one derivative."""
        if v.kind not in (DEPENDENT, JET):
            raise ValueError(f"cannot differentiate {v.name!r} as a jet")
        multi = list(v.multi_index)
        multi[indep_index] += 1
        return self.jet(v.dep_index, tuple(multi))

    def independent_index(self, x: VarId) -> int:
        for i, v in enumerate(self.independents):
            if v is x:
                return i
        raise ValueError(f"{x.name!r} is not an independent variable here")

    def jet_vars(self, dep_index: int | None = None,
                 max_order: int | None = None) -> List[VarId]:
        """Dependent and jet coordinates, in registration order."""
        hi = self.max_order if max_order is None else max_order
        out = []
        for (d, multi), v in self._jets.items():
            if dep_index is not None and d != dep_index:
                continue
            if sum(multi) <= hi:
                out.append(v)
        return out

    @property
    def variable_count(self) -> int:
        return len(self._by_name)


class Generator(Record):
    """A symmetry candidate: one coefficient per independent and dependent.

    ``xi`` maps independent variables to their coefficients (tau in time-like
    problems), ``eta`` maps dependent variables to theirs.  Missing entries
    mean zero, and only nonzero ones are kept, so equal generators compare
    equal.
    """

    __slots__ = _fields = ("xi", "eta")

    def __init__(self, xi: Dict[VarId, Expr] | None = None,
                 eta: Dict[VarId, Expr] | None = None):
        self.xi = {x: e for x, e in (xi or {}).items() if not e.is_zero}
        self.eta = {u: e for u, e in (eta or {}).items() if not e.is_zero}

    def xi_of(self, x: VarId) -> Expr:
        return self.xi.get(x, Expr.zero())

    def eta_of(self, u: VarId) -> Expr:
        return self.eta.get(u, Expr.zero())

    @property
    def dependence_order(self) -> int:
        orders = [e.max_jet_order() for e in self.xi.values()]
        orders += [e.max_jet_order() for e in self.eta.values()]
        return max(orders, default=0)

    @property
    def is_zero(self) -> bool:
        return not (self.xi or self.eta)


def total_derivative(e: Expr, x: VarId, space: JetSpace) -> Expr:
    """Total derivative D_x: the chain rule through every jet coordinate,
    in registration order, so the result's term order is the same in
    every run."""
    j = space.independent_index(x)
    result = e.partial(x)
    for v in sorted(e.variables(), key=lambda v: v.sort_index):
        if v.kind in (DEPENDENT, JET):
            result = result + e.partial(v) * Expr.variable(space.derivative(v, j))
    return result


def _peel(multi: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """(j, multi less one count at j), j the last independent counted.

    Every derivative recursion peels in this order, so the derivatives of
    the first independent are applied first.
    """
    j = max(i for i, c in enumerate(multi) if c > 0)
    return j, multi[:j] + (multi[j] - 1,) + multi[j + 1:]


def multi_derivative(e: Expr, multi: Tuple[int, ...], space: JetSpace) -> Expr:
    """D^multi of ``e``: D_j(D^(multi - e_j) e), j as ``_peel`` picks it."""
    if not any(multi):
        return e
    j, lower = _peel(multi)
    return total_derivative(multi_derivative(e, lower, space),
                            space.independents[j], space)


def characteristics(g: Generator, space: JetSpace) -> List[Expr]:
    """Q_i = eta_i - sum_j xi_j * u_i,j for each dependent variable."""
    out = []
    for i, dep in enumerate(space.dependents):
        q = g.eta_of(dep)
        for j, x in enumerate(space.independents):
            if x in g.xi:
                q = q - g.xi[x] * Expr.variable(space.derivative(dep, j))
        out.append(q)
    return out
