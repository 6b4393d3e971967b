"""Floating-point cross-check of symbolic first integrals.

The Euler-Lagrange dynamics are integrated with a classical fixed-step
fourth-order Runge-Kutta scheme (determinism over adaptivity), and each
first integral is evaluated along the trajectory; a conserved quantity must
show only roundoff-level relative drift.  Flux vectors of field problems
are not validated numerically -- their divergence check is exact already.

The work runs in one generated function ``run(source, t, s0, ..., sn)``,
compiled once per call of an entry point: its arguments are the first
row, each item of ``source`` yields the next row, and each row is folded
into each integral's running drift.  ``check_integrals`` and
``integrate_el`` pass ``range(steps)`` and the RK4 step; the first keeps
no rows and runs once per initial condition, the second has no integrals
and keeps every row.  ``drift_report`` passes a kept trajectory's rows
after the first.  The source names only internal locals and float
literals (``repr`` of floats), no user identifier.

Operation-order rule: the generated code performs the floating-point
operations of a direct evaluation in the same order, or rewrites them in
ways that are exact, so its results are identical bit for bit.
- A polynomial is ``acc = 0.0 + term`` (which turns a -0.0 term into
  +0.0) and one ``acc += term`` per further term, in ``Expr.term_map()``
  order.  One flat statement per term keeps large integrals compilable.
- A term is its coefficient times its factors ``x ** k``, left to right.
  ``** 1`` and a coefficient of 1.0 are left out; one of -1.0 is too, and
  the term subtracted: x + (-y) is x - y, and (-1 * a) * b is -(a * b),
  under round-to-nearest.  ``x ** k`` is never ``x * x``, which can round
  differently.
- Every literal operand is a float: ``x ** 2.0``, ``2.0 * k2``.  Python
  converts an int operand to the same double before it multiplies or
  calls ``pow``, so the result is the same, but float-by-float ``*``
  takes the interpreter's specialised float path.
- In the drift fold, each distinct ``x ** k`` is evaluated once per row
  into a local that every term reads: the same operation gives the same
  float.  Only ``**`` can raise (float ``*`` and ``+`` never do), so each
  power has its own ``try``, and an ``OverflowError`` marks every
  integral holding it ``bad`` for good.
- The fold keeps each integral's first value and its extremes ``hi`` and
  ``lo``, moved only by a strictly greater or smaller value, so a NaN row
  is skipped.  ``max(hi - first, first - lo)`` at the end is the largest
  ``|acc - first|``: subtracting a fixed ``first`` rounds monotonically.
- The stages are ``s + 0.5 * h * k1``, ``t + 0.5 * h``, ``s + h * k3`` and
  ``s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``, ``h`` a float literal;
  the compiler folds ``0.5 * h`` and ``h / 6.0`` by the same operation.
- Three rewrites of the step are exact, since copies do no float
  operation, folding does the same ones, and nothing dropped can raise.
  A slope that copies a state is the stage's state local itself.  A zero
  solved form is the literal ``0.0``, so each of its stage values and its
  update fold to ``s + 0.0``, which turns -0.0 into +0.0 as the direct
  evaluation does; that value is computed once.  A stage value (``tm``
  included) that no slope reads is not computed.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

from .expr import Expr, Record, VarId
from .jets import HeadroomError
# Configuration is part of a problem; both names are re-exported here.
from .problem import MAX_STEPS, NumericConfig  # noqa: F401
from .variational import ELSystem, ReductionError, reduce_mod_el


def _term(coeff, factors: List[str]) -> Tuple[str, str]:
    """The sign with which a term is added, ``+`` or ``-``, and its text:
    the coefficient times ``factors``, a coefficient of 1.0 or -1.0 left
    out (module docstring); ValueError for a coefficient beyond floating
    point range."""
    try:
        c = float(coeff)
    except OverflowError:
        raise ValueError(f"a coefficient of {int(abs(coeff)).bit_length()} "
                         "bits is beyond floating point range")
    sign = "-" if c == -1.0 else "+"
    if abs(c) != 1.0 or not factors:
        factors = [repr(-c if sign == "-" else c), *factors]
    return sign, " * ".join(factors)


def _sum(e: Expr, factor: Callable[[VarId, int], str],
         indent: str, target: str = "acc") -> List[str]:
    """Statements that leave the float value of ``e`` in ``target``.

    ``target = 0.0 + term`` (``0.0 - term``), then ``target += term``
    (``-=``) per further term in ``term_map()`` order, with the terms of
    ``_term`` over the factors ``factor(v, k)``: ``x ** k`` or a local
    holding it.  They round as ``0.0 + coeff * x1 ** k1 * ...`` summed term
    by term does.
    """
    lines = []
    for mono, coeff in e.term_map().items():
        sign, term = _term(coeff, [factor(v, k) for v, k in mono])
        lines.append(f"{indent}{target} {sign}= {term}" if lines
                     else f"{indent}{target} = 0.0 {sign} {term}")
    return lines or [f"{indent}{target} = 0.0"]


class Trajectory(Record):
    """RK4 states, one row of floats per step.

    ``variables`` names the columns: the independent variable first, then
    every jet coordinate up to one below the solved order, as listed by
    ``state_variables``.  ``rows[k]`` is the state after k steps.
    ``truncated`` is set when a step overflowed or produced a non-finite
    value; the rows then end at the last finite state.
    """

    __slots__ = _fields = ("variables", "rows", "truncated")

    def __init__(self, variables: Tuple[VarId, ...],
                 rows: List[Tuple[float, ...]], truncated: bool = False):
        self.variables = variables
        self.rows = rows
        self.truncated = truncated

    @property
    def samples(self) -> List[Dict[VarId, float]]:
        """One environment per row, built on each access."""
        return [dict(zip(self.variables, row)) for row in self.rows]


class NumericReport(Record):
    """Drift of each integral and whether it is within the tolerance;
    ``truncated`` when the trajectory ended early."""

    __slots__ = _fields = ("drifts", "passes", "truncated")

    def __init__(self, drifts: List[float], passes: List[bool],
                 truncated: bool = False):
        self.drifts = drifts
        self.passes = passes
        self.truncated = truncated


def _plan(el: ELSystem):
    """The independent variable, the first-order state and its slopes.

    The state holds derivatives 0..order-1 of each dependent, its order
    that of its top: its highest solved derivative, of order one or more.
    ``slopes[j]`` gives the derivative of state j: ``None`` where it
    copies the next state or, for a dependent's last state, the top's
    solved form reduced on shell by ``reduce_mod_el``.  A reduction that
    fails, or that reads anything but the state and the independent
    variable, refuses the system, naming what the unreduced form reads
    outside the state.  The initial condition is not read here.
    """
    space = el.space
    if not space.is_ode:
        raise ValueError("numeric integration supports time-like problems only")
    if not el.reducible:
        raise ValueError("explicit solved forms are required for integration")
    tops = []
    for i, dep in enumerate(space.dependents):
        heads = [h for h in el.solved_forms if h.dep_index == i and h.order]
        if not heads:
            raise ValueError(f"no solved equation for {dep.name!r}")
        tops.append(max(heads, key=lambda h: h.order))
    states = [space.jet(h.dep_index, (k,)) for h in tops
              for k in range(h.order)]
    known = {space.independents[0], *states}
    slopes: List = []
    for h in tops:
        form = el.solved_forms[h]
        try:
            reduced = reduce_mod_el(form, el, space)
        except (HeadroomError, ReductionError):
            reduced = None
        if reduced is None or not reduced.variables() <= known:
            bad = sorted(form.variables() - known, key=lambda v: v.sort_index)
            raise ValueError(
                f"solved form for {h.name} references non-state variables: "
                f"{', '.join(v.name for v in bad)}")
        slopes += [None] * (h.order - 1) + [reduced]
    return space.independents[0], states, slopes


def state_variables(el: ELSystem) -> List[VarId]:
    """The first-order state: derivatives 0..order-1 of each dependent."""
    return _plan(el)[1]


def _integral(law) -> Expr:
    """The first integral of a law, or a bare expression itself."""
    return law.components[0] if hasattr(law, "components") else law


def _drift_lines(integrals: Sequence[Expr], names: Dict[VarId, str],
                 indent: str, first_row: bool) -> List[str]:
    """Statements that fold one row into each integral's ``first<i>``,
    ``hi<i>``, ``lo<i>`` and ``bad<i>``.

    Each distinct ``x ** k`` (k > 1) goes into the local ``x_k`` in its own
    ``try``; an ``OverflowError`` sets it to ``inf`` and ``bad<i>`` of each
    integral holding it.  Then each integral is summed from the locals.
    The first row sets ``first<i>``, ``hi<i>`` and ``lo<i>``, and every
    ``bad<i>`` false; a later row moves ``hi<i>`` only when greater and
    ``lo<i>`` only when smaller.
    """
    holders: Dict[Tuple[VarId, int], List[int]] = {}
    for i, e in enumerate(integrals):
        for power in dict.fromkeys(f for mono in e.term_map()
                                   for f in mono if f[1] > 1):
            holders.setdefault(power, []).append(i)

    def factor(v: VarId, k: int) -> str:
        return names[v] if k == 1 else f"{names[v]}_{k}"

    lines = []
    if first_row and integrals:
        lines.append(indent + " = ".join(
            f"bad{i}" for i in range(len(integrals))) + " = False")
    for (v, k), held in holders.items():
        lines += [f"{indent}try:",
                  f"{indent}    {factor(v, k)} = "
                  f"{names[v]} ** {float(k)!r}",
                  f"{indent}except OverflowError:",
                  f"{indent}    {factor(v, k)} = inf",
                  f"{indent}    " + " = ".join(f"bad{i}" for i in held)
                  + " = True"]
    for i, e in enumerate(integrals):
        lines += _sum(e, factor, indent)
        if first_row:
            lines.append(f"{indent}first{i} = hi{i} = lo{i} = acc")
        else:
            lines += [f"{indent}if acc > hi{i}:",
                      f"{indent}    hi{i} = acc",
                      f"{indent}elif acc < lo{i}:",
                      f"{indent}    lo{i} = acc"]
    return lines


_RUN = """\
inf = float('inf')
def run(source, {row}):
    rows = {rows}
{first}
    truncated = False
    for {target} in source:
{step}{append}{fold}
    return truncated, rows, ({extremes})"""


def _rk4_lines(t_var: VarId, states: List[VarId], slopes: List,
               h: float) -> List[str]:
    """One RK4 step from the row ``t, s0, ..., sn`` to the next.

    Stage k's states are the locals ``s<j>``, ``a<j>``, ``b<j>`` or
    ``c<j>``, at time ``t``, ``tm`` (half step) or ``tn`` (full step); its
    slope j is the stage's state j + 1 where ``slopes[j]`` is ``None``,
    ``0.0`` for a zero solved form, or ``k<k>_<j>``.  Only values some
    slope reads are computed, each distinct expression once.  An
    ``OverflowError`` or ``ValueError`` in a stage, or a non-finite entry
    in the new row, ends the loop truncated.
    """
    step = repr(h)
    indent = " " * 12
    body: List[str] = []
    known: Dict[str, str] = {}

    def value(text: str, name: str) -> str:
        if text not in known:
            known[text] = name
            body.append(f"{indent}{name} = {text}")
        return known[text]

    # The update of s<j> reads s<j+1> before overwriting it.
    reads = {states[j + 1] for j, slope in enumerate(slopes) if slope is None}
    for slope in slopes:
        if slope is not None:
            reads |= slope.variables()
    ks: List[List[str]] = []
    stage = {v: f"s{j}" for j, v in enumerate(states)}
    stage[t_var] = "t"
    half = f"0.5 * {step}"
    for k, prefix, inc in ((1, "s", ""), (2, "a", half), (3, "b", half),
                           (4, "c", step)):
        if inc:
            if t_var in reads:
                stage[t_var] = value(f"t + {inc}", "tn" if k == 4 else "tm")
            for j, v in enumerate(states):
                if v in reads:
                    kj = ks[-1][j]
                    stage[v] = value(f"s{j} + 0.0" if kj == "0.0" else
                                     f"s{j} + {inc} * {kj}", f"{prefix}{j}")
        ks.append([])
        for j, slope in enumerate(slopes):
            if slope is None:
                ks[-1].append(stage[states[j + 1]])
            elif slope.is_zero:
                ks[-1].append("0.0")
            else:
                body += _sum(slope, lambda v, e: stage[v] if e == 1
                             else f"{stage[v]} ** {float(e)!r}", indent,
                             f"k{k}_{j}")
                ks[-1].append(f"k{k}_{j}")
    lines = ["        try:", *(body or [indent + "pass"]),
             "        except (OverflowError, ValueError):",
             "            truncated = True",
             "            break",
             f"        t = {known.get(f't + {step}', f't + {step}')}"]
    for j, (k1, k2, k3, k4) in enumerate(zip(*ks)):
        text = (f"s{j} + 0.0" if k1 == "0.0" else
                f"s{j} + {step} / 6.0 * "
                f"({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})")
        lines.append(f"        s{j} = {known.get(text, text)}")
    # x - x is 0.0 for a finite x and NaN otherwise, so the sum is truthy
    # exactly when some entry of the new row is not finite.
    entries = ["t", *(f"s{j}" for j in range(len(states)))]
    return lines + [
        f"        if {' + '.join(f'({x} - {x})' for x in entries)}:",
        "            truncated = True",
        "            break"]


def _run_function(variables: Sequence[VarId], integrals: Sequence[Expr],
                  keep_rows: bool = False, step: Sequence[str] = ()):
    """Generated ``run(source, t, s0, ..., sn)``, whose arguments are the
    first row, one float per entry of ``variables``.

    With ``step`` (the lines of ``_rk4_lines``, on the stage locals
    ``a<j>``, ``b<j>``, ``c<j>``, ``tm``, ``tn`` and ``k<k>_<j>``) each
    item of ``source`` is one RK4 step; without, it is the next row.  Each
    row is appended to ``rows`` when ``keep_rows`` is set and folded into
    each integral's drift.  ``run`` returns ``(truncated, rows or None,
    ((first, hi, lo, bad), ...))``.
    """
    entries = ["t", *(f"s{j}" for j in range(len(variables) - 1))]
    row = ", ".join(entries)
    names = dict(zip(variables, entries))
    source = _RUN.format(
        row=row, rows=f"[({row})]" if keep_rows else "None",
        first="\n".join(_drift_lines(integrals, names, "    ", True)),
        target="_" if step else row + ",",
        step="".join(line + "\n" for line in step),
        append=f"        rows.append(({row}))\n" if keep_rows else "",
        fold="\n".join(_drift_lines(integrals, names, "        ", False)),
        extremes="".join(f"(first{i}, hi{i}, lo{i}, bad{i}), "
                         for i in range(len(integrals))))
    namespace: Dict = {}
    exec(compile(source, "<noether.numeric.run>", "exec"), namespace)
    return namespace["run"]


def _run(el: ELSystem, cfg: NumericConfig, ics: Sequence[Dict[VarId, float]],
         integrals: Sequence[Expr], keep_rows: bool):
    """Validate every initial condition, then run the generated RK4 loop,
    compiled once, from each at t = 0: ``(row variables, [run(...), ...])``."""
    t_var, states, slopes = _plan(el)
    for ic in ics:
        missing = [v.name for v in states if v not in ic]
        if missing:
            raise ValueError(f"initial condition missing {', '.join(missing)}")
    variables = (t_var, *states)
    run = _run_function(variables, integrals, keep_rows,
                        _rk4_lines(t_var, states, slopes, cfg.step))
    steps = range(round(cfg.horizon / cfg.step))
    return variables, [run(steps, 0.0, *(float(ic[v]) for v in states))
                       for ic in ics]


def integrate_el(el: ELSystem, cfg: NumericConfig,
                 ic: Dict[VarId, float]) -> Trajectory:
    """Fixed-step RK4 trajectory of the first-order reduction.

    The initial condition maps every state variable to a float; the
    independent variable starts at zero.  The generated loop keeps each
    row.  An ``OverflowError`` or ``ValueError`` inside a step, or a
    non-finite value in the new row, truncates the trajectory.
    """
    variables, [(truncated, rows, _)] = _run(el, cfg, [ic], (), True)
    return Trajectory(variables=variables, rows=rows, truncated=truncated)


def _report(extremes, cfg: NumericConfig, truncated: bool) -> NumericReport:
    """The report of each integral's ``(first, hi, lo, bad)``: the largest
    deviation ``max(hi - first, first - lo)``, or inf when ``bad``, and
    drift ``deviation / max(1, |first|)``, inf where that is not finite."""
    drifts = []
    for first, hi, lo, bad in extremes:
        worst = math.inf if bad else max(hi - first, first - lo)
        drift = worst / max(1.0, abs(first))
        drifts.append(drift if math.isfinite(drift) else math.inf)
    return NumericReport(drifts=drifts,
                         passes=[d <= cfg.tolerance for d in drifts],
                         truncated=truncated)


def check_integrals(laws: Sequence, el: ELSystem, cfg: NumericConfig,
                    ics: Sequence[Dict[VarId, float]]) -> List[NumericReport]:
    """Integrate from each of ``ics`` and measure each integral's drift on
    the way: one report per initial condition, in order.

    The same RK4 loop as ``integrate_el`` and the same drift as
    ``drift_report``, bit for bit, in one generated function, compiled
    once and called once per initial condition, that keeps no rows:
    memory does not grow with the step count.  ``truncated`` on each
    report is its trajectory's.
    """
    _, runs = _run(el, cfg, ics, [_integral(l) for l in laws], False)
    return [_report(extremes, cfg, truncated)
            for truncated, _, extremes in runs]


def drift_report(laws: Sequence, traj: Trajectory,
                 cfg: NumericConfig) -> NumericReport:
    """Relative drift of each integral along a kept trajectory.

    drift = max |I(t) - I(0)| / max(1, |I(0)|), at every row, by the
    generated loop fed the kept rows instead of RK4 steps.  An integral
    that overflows on the trajectory has infinite drift, and so fails.
    """
    integrals = [_integral(l) for l in laws]
    extremes = (_run_function(traj.variables, integrals)(
        traj.rows[1:], *traj.rows[0])[2] if integrals else ())
    return _report(extremes, cfg, traj.truncated)


def seeded_initial_conditions(el: ELSystem, seed: int) -> List[Dict[VarId, float]]:
    """Five reproducible random initial conditions, uniform in [-1, 1]."""
    states = state_variables(el)
    rng = random.Random(seed)
    return [{v: rng.uniform(-1.0, 1.0) for v in states} for _ in range(5)]
