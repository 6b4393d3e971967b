"""Floating-point cross-check of symbolic first integrals.

The Euler-Lagrange dynamics are integrated with a classical fixed-step
fourth-order Runge-Kutta scheme (determinism over adaptivity), and each
first integral is evaluated along the trajectory; a conserved quantity must
show only roundoff-level relative drift.  Flux vectors of field problems
are not validated numerically -- their divergence check is exact already.

The work runs in generated Python source, compiled once per distinct
source with ``compile()``, on local floats instead of environments.  One
generator writes the whole RK4 loop as a function ``run(steps, t, s0, ...,
sn)``: each step does all four RK4 stages straight-line, tests the new row
for finiteness, and folds it into each integral's running drift.
``check_integrals`` runs it with the integrals and keeps no rows;
``integrate_el`` runs it with no integrals and keeps every row in a
``Trajectory``, and ``drift_report`` folds a kept trajectory's rows with the
same per-row drift statements.  The source names only internal locals
(``t``, ``s0``, ``a0``, ``k1_0``, ``acc``, ``first0``, ...) and float
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
  ``s + h * k3`` and ``s + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)``, with
  the step ``h`` as a float literal; the compiler folds ``0.5 * h`` and
  ``h / 6.0`` into constants by the same float operation.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .expr import INDEPENDENT, Expr, VarId
from .variational import ELSystem


# The step count bounds the time of a run, and the memory of
# ``integrate_el``, which keeps every row: 10**6 rows of a small problem
# take seconds and a few hundred MB.  ``check_integrals`` keeps none.
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
    """Drift of each integral and whether it is within ``tolerance``;
    ``truncated`` when the trajectory ended early."""

    drifts: List[float]
    passes: List[bool]
    tolerance: float
    truncated: bool = False

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


def _slopes(el: ELSystem, ic: Dict[VarId, float]):
    """The independent variable, the state and its slopes, validated.

    ``slopes[j]`` gives the derivative of state j: the index of the state
    it equals, or the solved form that computes it.
    """
    space = el.space
    states = state_variables(el)
    missing = [v.name for v in states if v not in ic]
    if missing:
        raise ValueError(f"initial condition missing {', '.join(missing)}")
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
    return space.independents[0], states, slopes


def _integral(law) -> Expr:
    """The first integral of a law, or a bare expression itself."""
    return law.components[0] if hasattr(law, "components") else law


def _drift_lines(integrals: Sequence[Expr], names: Dict[VarId, str],
                 indent: str, first_row: bool) -> List[str]:
    """Statements that fold one row into each integral's ``first<i>`` and
    ``worst<i>``.

    On the first row they set ``first<i>`` to the value and ``worst<i>``
    to ``|value - first<i>|``; on every later row ``worst<i>`` is replaced
    where the row's deviation is greater, like ``max()``, so a NaN
    deviation is skipped.  An ``OverflowError`` sets ``worst<i>`` to
    ``inf`` for that integral alone, and it stays there: no deviation
    compares greater than ``inf``.
    """
    inner = indent + "    "
    lines = []
    for i, e in enumerate(integrals):
        lines.append(f"{indent}try:")
        lines += _sum(e, names, inner)
        if first_row:
            lines += [f"{inner}first{i} = acc",
                      f"{inner}worst{i} = abs(acc - first{i})",
                      f"{indent}except OverflowError:",
                      f"{inner}first{i} = 0.0"]
        else:
            lines += [f"{inner}d = abs(acc - first{i})",
                      f"{inner}if d > worst{i}:",
                      f"{inner}    worst{i} = d",
                      f"{indent}except OverflowError:"]
        lines.append(f"{inner}worst{i} = inf")
    return lines


def _drift_pairs(integrals: Sequence[Expr]) -> str:
    return "(" + "".join(f"(first{i}, worst{i}), "
                         for i in range(len(integrals))) + ")"


_RUN = """\
inf = float('inf')
def run(steps, {row}):
    rows = {rows}
{first}
    truncated = False
    for _ in range(steps):
        try:
{stages}
        except (OverflowError, ValueError):
            truncated = True
            break
        t = tn
{combine}
        if {not_finite}:
            truncated = True
            break
{append}{fold}
    return truncated, rows, {pairs}"""


def _run_function(t_var: VarId, states: List[VarId], slopes: List,
                  h: float, integrals: Sequence[Expr], keep_rows: bool):
    """Generated ``run(steps, t, s0, ..., sn)``: the whole RK4 loop.

    Each step does all four RK4 stages straight-line on locals: stage k's
    slopes are ``k<k>_<j>``, its states ``a<j>`` at the times ``tm`` (half
    step) and ``tn`` (full step).  A row whose entries are all finite is
    accepted: it is appended to ``rows`` when ``keep_rows`` is set, and
    folded into each integral's drift (``_drift_lines``).  The function
    returns ``(truncated, rows or None, ((first, worst), ...))``.
    """
    n = len(states)
    entries = ["t", *(f"s{j}" for j in range(n))]
    row = ", ".join(entries)
    names = {t_var: "t", **_positional(states)}
    step = repr(h)
    indent = " " * 12
    stages = []
    for k, (time, prefix, inc) in enumerate(
            (("t", "s", None), ("tm", "a", f"0.5 * {step}"),
             ("tm", "a", f"0.5 * {step}"), ("tn", "a", step)), start=1):
        if k == 2:
            stages.append(f"{indent}tm = t + 0.5 * {step}")
        if k == 4:
            stages.append(f"{indent}tn = t + {step}")
        if inc is not None:
            stages += [f"{indent}a{j} = s{j} + {inc} * k{k - 1}_{j}"
                       for j in range(n)]
        stage = {v: f"{prefix}{j}" for j, v in enumerate(states)}
        stage[t_var] = time
        for j, slope in enumerate(slopes):
            if isinstance(slope, int):
                stages.append(f"{indent}k{k}_{j} = {prefix}{slope}")
            else:
                stages += _sum(slope, stage, indent)
                stages.append(f"{indent}k{k}_{j} = acc")
    combine = [f"        s{j} = s{j} + {step} / 6.0 * "
               f"(k1_{j} + 2 * k2_{j} + 2 * k3_{j} + k4_{j})"
               for j in range(n)]
    return _define("run", _RUN.format(
        row=row, rows=f"[({row})]" if keep_rows else "None",
        first="\n".join(_drift_lines(integrals, names, "    ", True)),
        stages="\n".join(stages), combine="\n".join(combine),
        # x - x is 0.0 for a finite x and NaN otherwise, so the sum is
        # truthy exactly when some entry of the new row is not finite.
        not_finite=" + ".join(f"({x} - {x})" for x in entries),
        append=f"        rows.append(({row}))\n" if keep_rows else "",
        fold="\n".join(_drift_lines(integrals, names, "        ", False)),
        pairs=_drift_pairs(integrals)))


def _run(el: ELSystem, cfg: NumericConfig, ic: Dict[VarId, float],
         integrals: Sequence[Expr], keep_rows: bool):
    """Validate, then run the generated loop from ``ic`` at t = 0:
    ``(row variables, truncated, rows or None, ((first, worst), ...))``."""
    t_var, states, slopes = _slopes(el, ic)
    run = _run_function(t_var, states, slopes, cfg.step, integrals,
                        keep_rows)
    return ((t_var, *states),
            *run(round(cfg.horizon / cfg.step), 0.0,
                 *(float(ic[v]) for v in states)))


def integrate_el(el: ELSystem, cfg: NumericConfig,
                 ic: Dict[VarId, float]) -> Trajectory:
    """Fixed-step RK4 trajectory of the first-order reduction.

    The initial condition maps every state variable to a float; the
    independent variable starts at zero.  One generated loop does every
    step on positional floats, with the operation order of the module
    docstring, and keeps each row.  An ``OverflowError`` or ``ValueError``
    inside a step, or a non-finite value anywhere in the new row,
    truncates the trajectory.
    """
    variables, truncated, rows, _ = _run(el, cfg, ic, (), True)
    return Trajectory(variables=variables, rows=rows, truncated=truncated)


def _report(pairs, cfg: NumericConfig, truncated: bool) -> NumericReport:
    """The report of each integral's ``(first, worst)``: drift
    ``worst / max(1, |first|)``, and inf where that is not finite."""
    drifts = []
    for first, worst in pairs:
        drift = worst / max(1.0, abs(first))
        drifts.append(drift if math.isfinite(drift) else math.inf)
    return NumericReport(drifts=drifts,
                         passes=[d <= cfg.tolerance for d in drifts],
                         tolerance=cfg.tolerance, truncated=truncated)


def check_integrals(laws: Sequence, el: ELSystem, cfg: NumericConfig,
                    ic: Dict[VarId, float]) -> NumericReport:
    """Integrate from ``ic`` and measure each integral's drift on the way.

    The same RK4 loop as ``integrate_el`` and the same drift as
    ``drift_report``, bit for bit, in one generated function that keeps
    no rows: memory does not grow with the step count.  ``truncated`` on
    the report is the trajectory's.
    """
    _, truncated, _, pairs = _run(el, cfg, ic, [_integral(l) for l in laws],
                                  False)
    return _report(pairs, cfg, truncated)


_DRIFT = """\
inf = float('inf')
def drift(rows):
    it = iter(rows)
    {row} = next(it)
{first}
    for {row} in it:
{fold}
    return {pairs}"""


def _drift_function(integrals: Sequence[Expr], variables: Sequence[VarId]):
    """Generated ``drift(rows)`` returning ``((first, worst), ...)``, one
    pair per integral, folded row by row as ``_drift_lines`` does."""
    names = _positional(variables)
    return _define("drift", _DRIFT.format(
        row=", ".join(names.values()) + ",",
        first="\n".join(_drift_lines(integrals, names, "    ", True)),
        fold="\n".join(_drift_lines(integrals, names, "        ", False)),
        pairs=_drift_pairs(integrals)))


def drift_report(laws: Sequence, traj: Trajectory,
                 cfg: NumericConfig) -> NumericReport:
    """Relative drift of each integral along a kept trajectory.

    drift = max |I(t) - I(0)| / max(1, |I(0)|), evaluated at every row by
    one generated function, with the operation order of the module
    docstring.  An integral whose value overflows on the trajectory has
    infinite drift, and so fails.
    """
    integrals = [_integral(l) for l in laws]
    pairs = (_drift_function(integrals, traj.variables)(traj.rows)
             if integrals else ())
    return _report(pairs, cfg, traj.truncated)


def seeded_initial_conditions(el: ELSystem, seed: int,
                              count: int = 5) -> List[Dict[VarId, float]]:
    """Reproducible random initial conditions, uniform in [-1, 1]."""
    states = state_variables(el)
    rng = random.Random(seed)
    return [{v: rng.uniform(-1.0, 1.0) for v in states} for _ in range(count)]
