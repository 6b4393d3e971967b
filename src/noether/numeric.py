"""Floating-point cross-check of symbolic first integrals.

The Euler-Lagrange dynamics are integrated with a classical fixed-step
fourth-order Runge-Kutta scheme (determinism over adaptivity), and each
first integral is evaluated along the trajectory; a conserved quantity must
show only roundoff-level relative drift.  Flux vectors of field problems
are not validated numerically -- their divergence check is exact already.

Both loops run generated Python source, compiled once per distinct source
with ``compile()``, working on tuples of floats instead of environments:
``integrate_el`` builds one straight-line ``step(t, s0, ..., sn)`` that
does all four RK4 stages, and ``drift_report`` builds one function per
integral that walks the trajectory rows.  The source names only internal
locals (``t``, ``h``, ``s0``, ``a0``, ``k1_0``, ``acc``, ...) and float
literals (``repr`` of floats); no user-supplied identifier reaches it.

Operation-order rule: the generated code performs the floating-point
operations of a direct evaluation in the same order, so its results are
identical bit for bit.
- A polynomial is ``acc = 0.0`` followed by one ``acc += term`` statement
  per term, in ``Expr.term_map()`` order.  One flat statement per term
  also keeps large integrals compilable: a single expression nests too
  deeply.
- A term is its coefficient times its factors, left to right, each factor
  ``x ** k``.  ``** 1`` and a coefficient of 1.0 are left out, which is
  exact; ``x ** k`` is never rewritten as ``x * x``, which can round
  differently.
- The stages are written ``s + 0.5 * h * k1``, ``t + 0.5 * h``,
  ``s + h * k3`` and ``s + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .expr import INDEPENDENT, Expr, VarId
from .variational import ELSystem


# Every RK4 row is kept, so the step count bounds time and memory: 10**6
# rows of a small problem take seconds and a few hundred MB.
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class NumericConfig:
    """RK4 step, horizon, drift tolerance and initial-condition seed; the
    three floats must be finite, and ``horizon / step`` at most
    ``MAX_STEPS``."""

    step: float = 1e-3
    horizon: float = 10.0
    tolerance: float = 1e-8
    seed: int = 42

    def __post_init__(self):
        for name in ("step", "horizon", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.horizon < 10 * self.step:
            raise ValueError("horizon must cover at least ten steps")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError("horizon / step must be finite")
        if round(self.horizon / self.step) > MAX_STEPS:
            raise ValueError(f"horizon / step must be at most {MAX_STEPS}, "
                             f"got {self.horizon / self.step:.3g}")


def _term(coeff, mono, names: Dict[VarId, str]) -> str:
    """Coefficient times factors, multiplied left to right.

    A factor is ``x ** k``, or ``x`` when k is 1; a coefficient of 1.0 is
    left out.  Both omissions are exact, so the term rounds exactly as
    ``coeff * x1 ** k1 * x2 ** k2 ...`` does.
    """
    factors = [names[v] if k == 1 else f"{names[v]} ** {k}" for v, k in mono]
    c = float(coeff)
    if c != 1.0 or not factors:
        factors.insert(0, repr(c))
    return " * ".join(factors)


def _sum(e: Expr, names: Dict[VarId, str], indent: str) -> List[str]:
    """Statements that leave the float value of ``e`` in ``acc``.

    One ``acc += term`` per term, in ``term_map()`` order, from
    ``acc = 0.0``.  A single expression would nest too deeply to compile
    for large integrals.
    """
    lines = [f"{indent}acc = 0.0"]
    lines += [f"{indent}acc += {_term(c, m, names)}"
              for m, c in e.term_map().items()]
    return lines


def _positional(variables: Sequence[VarId]) -> Dict[VarId, str]:
    """Internal argument names ``s0, s1, ...``, one per position."""
    return {v: f"s{j}" for j, v in enumerate(variables)}


@functools.lru_cache(maxsize=128)
def _define(name: str, source: str):
    """The function that generated source defines, compiled once."""
    namespace: Dict = {}
    exec(compile(source, f"<noether.numeric.{name}>", "exec"), namespace)
    return namespace[name]


class CompiledExpr:
    """Float evaluator of one expression over an environment.

    It runs the code the integrator and the drift report generate (see the
    module docstring), wrapped in one function of the expression's
    variables.
    """

    def __init__(self, e: Expr):
        self.variables = tuple(sorted(e.variables(),
                                      key=lambda v: v.sort_index))
        names = _positional(self.variables)
        self._fn = _define("value", "\n".join([
            f"def value({', '.join(names.values())}):",
            *_sum(e, names, "    "),
            "    return acc"]))

    def __call__(self, env: Dict[VarId, float]) -> float:
        return self._fn(*[env[v] for v in self.variables])


@dataclass
class Trajectory:
    """RK4 states, one row of floats per step.

    ``variables`` names the columns: the independent variable first, then
    every jet coordinate up to one below the solved order, as listed by
    ``state_variables``.  ``rows[k]`` is the state after k steps.
    ``truncated`` is set when a step overflowed or produced a non-finite
    value; the rows then end at the last finite state.
    """

    variables: Tuple[VarId, ...]
    rows: List[Tuple[float, ...]]
    truncated: bool = False

    @property
    def samples(self) -> List[Dict[VarId, float]]:
        """One environment per row, built on each access."""
        return [dict(zip(self.variables, row)) for row in self.rows]


@dataclass
class NumericReport:
    drifts: List[float]
    passes: List[bool]
    tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def state_variables(el: ELSystem) -> List[VarId]:
    """The first-order state: derivatives 0..order-1 of each dependent."""
    space = el.space
    if not space.is_ode:
        raise ValueError("numeric integration supports time-like problems only")
    if not el.reducible:
        raise ValueError("explicit solved forms are required for integration")
    out: List[VarId] = []
    for i, dep in enumerate(space.dependents):
        top = max((h.order for h in el.solved_forms if h.dep_index == i),
                  default=0)
        if top == 0:
            raise ValueError(f"no solved equation for {dep.name!r}")
        for k in range(top):
            out.append(space.jet(i, (k,)))
    return out


def _step_function(t_var: VarId, states: List[VarId],
                   slopes: List, h: float):
    """Generated ``step(t, s0, ..., sn)``: all four RK4 stages, straight line.

    ``slopes[j]`` gives the derivative of state j: the index of the state
    it equals, or the solved form that computes it.  The function returns
    the next row ``(t + h, s0', ..., sn')``.  Stage k's slopes are
    ``k<k>_<j>``; the stage states are ``a<j>`` at the times ``tm`` (half
    step) and ``tn`` (full step).
    """
    n = len(states)
    lines = [f"h = {h!r}",
             f"def step(t, {', '.join(f's{j}' for j in range(n))}):"]
    stages = (("t", "s", None), ("tm", "a", "0.5 * h"),
              ("tm", "a", "0.5 * h"), ("tn", "a", "h"))
    for k, (time, prefix, inc) in enumerate(stages, start=1):
        if k == 2:
            lines.append("    tm = t + 0.5 * h")
        if k == 4:
            lines.append("    tn = t + h")
        if inc is not None:
            lines += [f"    a{j} = s{j} + {inc} * k{k - 1}_{j}"
                      for j in range(n)]
        names = {v: f"{prefix}{j}" for j, v in enumerate(states)}
        names[t_var] = time
        for j, slope in enumerate(slopes):
            if isinstance(slope, int):
                lines.append(f"    k{k}_{j} = {prefix}{slope}")
            else:
                lines += _sum(slope, names, "    ")
                lines.append(f"    k{k}_{j} = acc")
    new = [f"s{j} + h / 6.0 * (k1_{j} + 2 * k2_{j} + 2 * k3_{j} + k4_{j})"
           for j in range(n)]
    lines.append(f"    return (tn, {', '.join(new)})")
    return _define("step", "\n".join(lines))


def integrate_el(el: ELSystem, cfg: NumericConfig,
                 ic: Dict[VarId, float]) -> Trajectory:
    """Fixed-step RK4 trajectory of the first-order reduction.

    The initial condition maps every state variable to a float; the
    independent variable starts at zero.  One generated ``step`` function
    does each step on positional floats, with the operation order of the
    module docstring.  An ``OverflowError`` or ``ValueError`` inside a step,
    or a non-finite value anywhere in the new row, truncates the
    trajectory.
    """
    space = el.space
    states = state_variables(el)
    missing = [v.name for v in states if v not in ic]
    if missing:
        raise ValueError(f"initial condition missing {', '.join(missing)}")
    t_var = space.independents[0]
    index = {v: j for j, v in enumerate(states)}
    slopes: List = [None] * len(states)
    for i, dep in enumerate(space.dependents):
        h = max((v for v in el.solved_forms if v.dep_index == i),
                key=lambda v: v.order)
        rhs = el.solved_forms[h]
        bad = [v for v in rhs.variables()
               if v not in index and v.kind != INDEPENDENT]
        if bad:
            raise ValueError(
                f"solved form for {h.name} references non-state variables: "
                f"{', '.join(v.name for v in bad)}")
        slopes[index[space.jet(i, (h.order - 1,))]] = rhs
    for j, v in enumerate(states):
        if slopes[j] is None:
            slopes[j] = index[space.jet(v.dep_index, (v.order + 1,))]
    step = _step_function(t_var, states, slopes, cfg.step)

    row = (0.0, *(float(ic[v]) for v in states))
    rows = [row]
    truncated = False
    for _ in range(round(cfg.horizon / cfg.step)):
        try:
            row = step(*row)
        except (OverflowError, ValueError):
            truncated = True
            break
        if not all(map(math.isfinite, row)):
            truncated = True
            break
        rows.append(row)
    return Trajectory(variables=(t_var, *states), rows=rows,
                      truncated=truncated)


def _drift_function(e: Expr, variables: Sequence[VarId]):
    """Generated ``drift(rows)`` returning ``(first, worst)``.

    ``first`` is the value of ``e`` on row 0 and ``worst`` the largest
    ``|value - first|`` over all rows.  Like ``max()``, ``worst`` starts
    from row 0 and is replaced only where a later row's deviation is
    greater.
    """
    names = _positional(variables)
    row = ", ".join(names.values()) + ","
    return _define("drift", "\n".join([
        "def drift(rows):",
        "    it = iter(rows)",
        f"    {row} = next(it)",
        *_sum(e, names, "    "),
        "    first = acc",
        "    worst = abs(acc - first)",
        f"    for {row} in it:",
        *_sum(e, names, "        "),
        "        d = abs(acc - first)",
        "        if d > worst:",
        "            worst = d",
        "    return first, worst"]))


def drift_report(laws: Sequence, traj: Trajectory,
                 cfg: NumericConfig) -> NumericReport:
    """Relative drift of each integral along the trajectory.

    drift = max |I(t) - I(0)| / max(1, |I(0)|), evaluated at every row by
    one generated function per integral, with the operation order of the
    module docstring.  An integral whose value overflows on the trajectory
    has infinite drift, and so fails.
    """
    drifts = []
    passes = []
    for law in laws:
        integral = law.components[0] if hasattr(law, "components") else law
        fn = _drift_function(integral, traj.variables)
        try:
            first, worst = fn(traj.rows)
            drift = worst / max(1.0, abs(first))
        except OverflowError:
            drift = math.inf
        if not math.isfinite(drift):
            drift = math.inf
        drifts.append(drift)
        passes.append(drift <= cfg.tolerance)
    return NumericReport(drifts=drifts, passes=passes,
                         tolerance=cfg.tolerance)


def seeded_initial_conditions(el: ELSystem, seed: int,
                              count: int = 5) -> List[Dict[VarId, float]]:
    """Reproducible random initial conditions, uniform in [-1, 1]."""
    states = state_variables(el)
    rng = random.Random(seed)
    return [{v: rng.uniform(-1.0, 1.0) for v in states} for _ in range(count)]
