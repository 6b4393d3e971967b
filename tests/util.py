"""Shared test helpers: seeded random expressions and independent oracles.

The oracles here deliberately avoid the code paths they cross-check: the
closed-form prolongation uses the explicit binomial sum, the first-integral
oracle expands the textbook double sum directly, on-shell checks
substitute solved derivatives by hand instead of calling the reducer, and
the reference integrator and drift run RK4 over dict environments with a
direct monomial loop instead of the generated code, the scanning
elimination visits every pivot row where ``noether.linalg`` reads its
column index, the ``Fraction`` elimination normalizes each pivot row to 1
at its lead where ``noether.linalg`` keeps primitive integer rows and
divides only at read-out, the scanning fill reads every template term for
every assignment where ``noether.engine`` reads only the solution's entries,
the template rows split the recursive prolongation's invariance residual
of the whole ansatz by unknown where ``noether.engine`` assembles them
column by column, the tuple enumerator sorts monomials by ``mono_key``
where ``noether.engine`` sorts packed ints, the recursive prolongation
and its residual peel one derivative at a time off the lower coefficient
where ``noether`` differentiates the characteristic, and the reference
normal form splits each Euler-Lagrange expression on the powers of its
top jet where ``noether.variational`` takes one partial, and the
multiplier system counts the characteristics with no gauge unknowns where
``noether.engine`` solves for generator and gauge together.

The solve oracles keep the shape the solver had before right-hand sides
became columns: a list of ``(row, {k: b_k})`` pairs for A x = b_k.
``constant_columns`` turns such a system into the solver's rows, with
constant column n + k holding -b_k so that each row reads A x + c_k = 0;
the sign is written here once, apart from ``noether``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import random
import signal
from fractions import Fraction
from pathlib import Path

from noether import (Expr, Generator, JetSpace, Lagrangian, euler_lagrange,
                     load_problem, parse, solve_noether, total_derivative)
from noether.expr import VarId, _as_rational, _exact, mono_key, rational_div
from noether.linalg import solve_affine_many
from noether.numeric import state_variables

SEED = 42
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every loadable problem file; tests/data/unknown_variable.prob is invalid
# input by design.
LOADABLE = sorted(str(p.relative_to(ROOT))
                  for p in [*(ROOT / "problems").glob("*.prob"),
                            *(ROOT / "tests/data").glob("*.prob")]
                  if p.name != "unknown_variable.prob")


# The field problems, whose gauges ``find_gauges`` still solves as one
# linear system, with candidates: quartic_field's own, and for the two
# files that have none, two symmetries and the scaling of u, which is none.
FIELD_GENERATORS = {
    "problems/quartic_field.prob": "",
    "tests/data/wave_2plus1.prob":
        "\n[generators]\nG1 = xi_t: 1\n"
        "G2 = xi_t: t^2 + x^2 + y^2; xi_x: 2*t*x; xi_y: 2*t*y; eta_u: -t*u\n"
        "G3 = eta_u: u\n",
    "tests/data/schrodinger_pair.prob":
        "\n[generators]\nG1 = eta_u: v; eta_v: -u\n"
        "G2 = xi_x: t; eta_u: 1/2*x*v; eta_v: -1/2*x*u\nG3 = eta_u: u\n",
}


def field_files(directory):
    """The ``FIELD_GENERATORS`` files, each written into ``directory``
    with its candidates appended."""
    out = []
    for path, generators in FIELD_GENERATORS.items():
        out.append(Path(directory) / Path(path).name)
        out[-1].write_text((ROOT / path).read_text(encoding="utf-8")
                           + generators, encoding="utf-8")
    return out


@functools.lru_cache(maxsize=None)
def bundled_solutions():
    """(path, problem, solutions) for each ``LOADABLE`` file, solved by
    ``solve_noether`` at the file's own ``[ansatz]``, once per run."""
    out = []
    for path in LOADABLE:
        problem = load_problem(str(ROOT / path))
        out.append((path, problem,
                    tuple(solve_noether(problem.lagrangian, problem.ansatz))))
    return tuple(out)


def child_env():
    """The environment of a child interpreter that imports this checkout,
    with stdout buffered as in an installed ``noether``: no
    ``PYTHONUNBUFFERED``."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` instead of hanging.

    The error is raised again from here, without the interrupted frames: a
    signal can land on an instruction with no line number, and pytest
    fails with an internal error, ending the whole run, when it formats
    such a traceback.
    """
    message = f"still running after {seconds} s"

    def expire(signum, frame):
        raise TimeoutError(message)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError as err:
        if str(err) != message:
            raise
        raise TimeoutError(message) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def rand_expr(rng: random.Random, vars, max_terms=4, max_degree=3,
              coeff_bound=6) -> Expr:
    """Random polynomial over the given variables with small rational
    coefficients; may be zero."""
    total = Expr.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Expr.constant(Fraction(rng.randint(-coeff_bound, coeff_bound),
                                      rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * Expr.variable(rng.choice(vars))
        total = total + term
    return total


def rand_nonzero_expr(rng, vars, **kw) -> Expr:
    for _ in range(50):
        e = rand_expr(rng, vars, **kw)
        if not e.is_zero:
            return e
    raise AssertionError("could not draw a nonzero expression")


def closed_form_zeta(g: Generator, j: int, space: JetSpace):
    """Binomial closed form of the order-j prolongation coefficients.

    zeta^j = eta^(j) - sum_{k=1..j} C(j,k) q^(j+1-k) tau^(k), with
    parenthesised superscripts meaning iterated total derivatives.
    """
    t = space.independents[0]

    def dt(e, times):
        for _ in range(times):
            e = total_derivative(e, t, space)
        return e

    tau = g.xi_of(t)
    out = {}
    for i, dep in enumerate(space.dependents):
        zeta = dt(g.eta_of(dep), j)
        for k in range(1, j + 1):
            q_jk = Expr.variable(space.jet(i, (j + 1 - k,)))
            zeta = zeta - q_jk * dt(tau, k) * math.comb(j, k)
        out[dep] = zeta
    return out


def recursive_prolong(g: Generator, dep_index: int, multi, space: JetSpace,
                      memo=None) -> Expr:
    """Prolongation coefficient of ``g`` at the jet (dep_index, multi) by
    the recursion ``noether.jets`` used before the general formula: peel
    the last derivative off, take the total derivative of the lower
    coefficient, and correct with the transported jet terms.  ``memo``
    shares the lower coefficients between the jets of one generator."""
    memo = {} if memo is None else memo
    key = (dep_index, tuple(multi))
    if key not in memo:
        if not any(multi):
            memo[key] = g.eta_of(space.dependents[dep_index])
        else:
            j = max(i for i, c in enumerate(multi) if c)
            lower = tuple(c - (i == j) for i, c in enumerate(multi))
            x_j = space.independents[j]
            result = total_derivative(
                recursive_prolong(g, dep_index, lower, space, memo), x_j, space)
            for l, x_l in enumerate(space.independents):
                xi_l = g.xi_of(x_l)
                if not xi_l.is_zero:
                    u = space.derivative(space.jet(dep_index, lower), l)
                    result = result - Expr.variable(u) * total_derivative(
                        xi_l, x_j, space)
            memo[key] = result
    return memo[key]


def prolongation_residual(L, g: Generator, gauge=None) -> Expr:
    """The invariance residual as ``condition_residual`` built it before
    the general formula: the recursive prolongation acting on L, plus
    xi_j dL/dx_j and L times the divergence of xi, minus that of the
    gauge."""
    space = L.space
    if gauge is None:
        gauge = [Expr.zero()] * len(space.independents)
    residual = Expr.zero()
    for x, f in zip(space.independents, gauge):
        xi = g.xi_of(x)
        residual = residual + xi * L.body.partial(x) \
            + L.body * total_derivative(xi, x, space) \
            - total_derivative(f, x, space)
    memo = {}
    for i, v, p in L.partials:
        residual = residual + recursive_prolong(
            g, i, v.multi_index, space, memo) * p
    return residual


def first_integral_closed_form(L, g, f: Expr) -> Expr:
    """Direct expansion of the first-integral formula for one dependent
    variable: I = f - [tau L + sum_{i,j} (-1)^j Q^(i) D^j dL/dq^(i+j+1)]."""
    space = L.space
    t = space.independents[0]
    p = L.order

    def dt(e, times):
        for _ in range(times):
            e = total_derivative(e, t, space)
        return e

    tau = g.xi_of(t)
    bracket = tau * L.body
    for k, dep in enumerate(space.dependents):
        q = g.eta_of(dep) - Expr.variable(space.jet(k, (1,))) * tau
        for i in range(p):
            for j in range(p - i):
                part = L.body.partial(space.jet(k, (i + j + 1,)))
                if part.is_zero:
                    continue
                term = dt(q, i) * dt(part, j)
                bracket = bracket + (term if j % 2 == 0 else -term)
    return f - bracket


def on_shell_zero(expr: Expr, space: JetSpace, solved: dict, depth=6) -> bool:
    """Substitute solved derivatives (and their raised forms) directly.

    Independent of the reducer: builds the full substitution map up to the
    working order and applies it repeatedly.
    """
    for _ in range(depth):
        bindings = {}
        for h, rhs in solved.items():
            for v in expr.variables():
                if v.kind != "jet" or v.dep_index != h.dep_index:
                    continue
                if all(a >= b for a, b in zip(v.multi_index, h.multi_index)):
                    delta = tuple(a - b for a, b in
                                  zip(v.multi_index, h.multi_index))
                    repl = rhs
                    for j, count in enumerate(delta):
                        for _ in range(count):
                            repl = total_derivative(
                                repl, space.independents[j], space)
                    bindings[v] = repl
        if not bindings:
            return expr.is_zero
        expr = expr.substitute(bindings)
    return expr.is_zero


def split_on(e: Expr, v) -> dict:
    """The term map of ``e`` cut on the powers of ``v``: monomial in v ->
    coefficient free of v, each bucket in the order of its first term."""
    buckets = {}
    for mono, coeff in e.term_map().items():
        inside = tuple((w, k) for w, k in mono if w is v)
        outside = tuple((w, k) for w, k in mono if w is not v)
        buckets.setdefault(inside, {})[outside] = coeff
    return {key: Expr(terms) for key, terms in buckets.items()}


def reference_normalize(equations):
    """(canonical equations, solved forms or None) of raw Euler-Lagrange
    expressions by the split on each top jet: an equation is solvable when
    its split has only the buckets 1 and top with a constant coefficient
    c of top, and no earlier equation solved the same top; its canonical
    form is eq / c and its solved form -(part free of top) / c."""
    solved = {}
    normalized = []
    available = True
    for eq in equations:
        jets = [v for v in eq.variables() if v.kind == "jet"]
        if not jets:
            normalized.append(eq)
            available = False
            continue
        top = max(jets, key=lambda v: (v.order, v.multi_index, -v.dep_index))
        parts = split_on(eq, top)
        linear = parts.get(((top, 1),), Expr.zero())
        if (set(parts) - {((top, 1),), ()} or not linear.is_constant
                or top in solved):
            normalized.append(eq)
            available = False
            continue
        c = linear.constant_value()
        normalized.append(eq / c)
        solved[top] = -(parts.get((), Expr.zero()) / c)
    return normalized, (solved if available else None)


def reference_value(e: Expr, env) -> float:
    """Float value of ``e`` by the direct monomial loop: coefficient times
    each ``x ** k`` in turn, terms summed from 0.0 in ``term_map()``
    order."""
    total = 0.0
    for mono, coeff in e.term_map().items():
        acc = float(coeff)
        for v, k in mono:
            acc *= env[v] ** k
        total += acc
    return total


def reference_integrate(el, cfg, ic):
    """RK4 over dict environments, one dict per stage.

    Returns ``(samples, truncated)``: one environment per step, holding the
    independent variable and every state variable.
    """
    space = el.space
    states = state_variables(el)
    t_var = space.independents[0]
    tops = {}
    for i in range(len(space.dependents)):
        h = max((v for v in el.solved_forms if v.dep_index == i),
                key=lambda v: v.order)
        tops[space.jet(i, (h.order - 1,))] = el.solved_forms[h]

    def derivative(env):
        return {v: reference_value(tops[v], env) if v in tops
                else env[space.jet(v.dep_index, (v.order + 1,))]
                for v in states}

    h = cfg.step
    env = {v: float(ic[v]) for v in states}
    env[t_var] = 0.0
    samples = [env]
    for _ in range(round(cfg.horizon / cfg.step)):
        try:
            k1 = derivative(env)
            e2 = {v: env[v] + 0.5 * h * k1[v] for v in states}
            e2[t_var] = env[t_var] + 0.5 * h
            k2 = derivative(e2)
            e3 = {v: env[v] + 0.5 * h * k2[v] for v in states}
            e3[t_var] = env[t_var] + 0.5 * h
            k3 = derivative(e3)
            e4 = {v: env[v] + h * k3[v] for v in states}
            e4[t_var] = env[t_var] + h
            k4 = derivative(e4)
        except (OverflowError, ValueError):
            return samples, True
        nxt = {v: env[v] + h / 6.0 * (k1[v] + 2 * k2[v] + 2 * k3[v] + k4[v])
               for v in states}
        nxt[t_var] = env[t_var] + h
        if not all(math.isfinite(x) for x in nxt.values()):
            return samples, True
        env = nxt
        samples.append(env)
    return samples, False


def reference_drift(integral: Expr, samples) -> float:
    """max |I - I(0)| / max(1, |I(0)|) over the samples; inf on overflow."""
    try:
        first = reference_value(integral, samples[0])
        worst = max(abs(reference_value(integral, env) - first)
                    for env in samples)
        drift = worst / max(1.0, abs(first))
    except OverflowError:
        return math.inf
    return drift if math.isfinite(drift) else math.inf


def is_canonical(c) -> bool:
    """Whether ``c`` has the stored form of an exact coefficient: an int
    that is not a bool, or a Fraction that is not integral (never a
    float)."""
    if isinstance(c, Fraction):
        return c.denominator > 1
    return isinstance(c, int) and not isinstance(c, bool)


def _reference_axpy(target, factor, source):
    """target -= factor * source, dropping zeros."""
    for col, val in source.items():
        s = target.get(col, Fraction(0)) - factor * val
        if s:
            target[col] = s
        else:
            target.pop(col, None)


def _reference_rref(rows):
    """Reduced row echelon form; pivot column -> normalized row."""
    pivots = {}
    for row in rows:
        r = dict(row)
        for col in sorted(r):
            if col in r and col in pivots:
                _reference_axpy(r, r[col], pivots[col])
        if not r:
            continue
        lead = min(r)
        lv = r[lead]
        if lv != 1:
            r = {c: v / lv for c, v in r.items()}
        for prow in pivots.values():
            if lead in prow:
                _reference_axpy(prow, prow[lead], r)
        pivots[lead] = r
    return pivots


def reference_solve_affine(rows, n_cols):
    """One exact solution of A x = b, or None when inconsistent: the
    single right-hand-side solve as it stood before the multi-right-hand-side
    elimination, with b as an extra column that may itself become a pivot
    (which is what makes the system inconsistent)."""
    rhs_col = n_cols
    combined = []
    for row, rhs in rows:
        r = dict(row)
        if rhs:
            r[rhs_col] = -rhs
        combined.append(r)
    pivots = _reference_rref(combined)
    if rhs_col in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for pcol, prow in pivots.items():
        solution[pcol] = -prow.get(rhs_col, Fraction(0))
    return solution


def reference_nullspace(rows, n_cols):
    """Basis of the homogeneous solution space, as computed when every
    entry was a Fraction: the rows must hold Fractions, since ``v / lv``
    and ``v / first`` are float divisions on two ints."""
    pivots = _reference_rref(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for pcol, prow in pivots.items():
            val = prow.get(free)
            if val:
                vec[pcol] = -val
        first = next(v for v in vec if v)
        if first != 1:
            vec = [v / first for v in vec]
        basis.append(vec)
    return basis


def _scanning_axpy(target, factor, source):
    """target -= factor * source, dropping zeros."""
    for col, val in source.items():
        s = target.get(col, 0) - factor * val
        if s:
            target[col] = _exact(s)
        else:
            target.pop(col, None)


def constant_columns(system, n_cols):
    """(row, right-hand sides) pairs as rows over n_cols unknowns whose
    constant column n_cols + k holds -b_k; zero right-hand sides drop."""
    return [{**row, **{n_cols + k: -b for k, b in rhs.items() if b}}
            for row, rhs in system]


def scanning_rref(rows, limit=None, stuck=None):
    """The pivots of ``noether.linalg._eliminate`` as they stood before the
    column index: each new pivot scans every pivot row for its column."""
    pivots = {}
    for row in rows:
        r = {c: _as_rational(v) for c, v in row.items()}
        # Existing pivot rows hold no pivot columns besides their own, so a
        # single sweep clears every pivot-column entry from r.
        for col in sorted(r):
            if col in r and col in pivots:
                _scanning_axpy(r, r[col], pivots[col])
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
                _scanning_axpy(prow, prow[lead], r)
        pivots[lead] = r
    return pivots


def fraction_eliminate(rows, limit=None):
    """``noether.linalg._eliminate`` as it stood before primitive integer
    rows: the column-indexed elimination in input row order, each pivot
    row normalized to 1 at its lead, so its entries are canonical ints and
    Fractions.  Returns the pivot rows, the column index and the stuck
    rows, like ``_eliminate``."""
    pivots = {}
    holders = {}
    stuck = []
    for row in rows:
        r = {c: _as_rational(v) for c, v in row.items()}
        for col in sorted(r):
            if col in r and col in pivots:
                _scanning_axpy(r, r[col], pivots[col])
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


def scanning_nullspace(rows, n_cols):
    """``noether.linalg.nullspace`` as it stood before the column index:
    each free column scans every pivot row."""
    pivots = scanning_rref(rows)
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


def scanning_solve_affine_many(rows, n_cols, n_rhs):
    """``noether.linalg.solve_affine_many`` as it stood before the column
    index: each right-hand side scans every pivot row."""
    combined = []
    for row, rhs in rows:
        r = dict(row)
        for k, b in rhs.items():
            if b:
                r[n_cols + k] = -b
        combined.append(r)
    stuck = []
    pivots = scanning_rref(combined, limit=n_cols, stuck=stuck)
    inconsistent = {c for r in stuck for c in r}
    solutions = []
    for rhs_col in range(n_cols, n_cols + n_rhs):
        if rhs_col in inconsistent:
            solutions.append(None)
            continue
        solution = [0] * n_cols
        for pcol, prow in pivots.items():
            solution[pcol] = -prow.get(rhs_col, 0)
        solutions.append(solution)
    return solutions


def monomials_upto(space, jet_order, degree, include_constant=True):
    """All monomials of total degree <= degree, ascending, over the
    independents and the jets up to ``jet_order``, as tuples: the
    enumerator from before the packed monomials, without its bound."""
    vars = list(space.independents) + space.jet_vars(max_order=jet_order)
    # ``vars`` ascend by sort index, and so does each combination.
    monos = [tuple((v, combo.count(v)) for v in dict.fromkeys(combo))
             for d in range(0 if include_constant else 1, degree + 1)
             for combo in itertools.combinations_with_replacement(vars, d)]
    monos.sort(key=mono_key)
    return monos


def scanning_fill(template, values):
    """A template at the unknowns' values; a missing unknown is zero.

    Every template term is one monomial times one unknown, which orders
    after every variable of the space and so is the term's last factor.
    """
    return Expr({mono[:-1]: coeff * values[mono[-1][0]]
                 for mono, coeff in template.term_map().items()
                 if values.get(mono[-1][0])})


def fresh_unknowns(space, count):
    """``count`` solver unknowns ``c0``, ``c1``, ... of a kind of their own,
    never registered in ``space``: each orders after every variable of the
    space, so it is its term's last factor."""
    return [VarId("unknown", f"c{k}", space.variable_count + k)
            for k in range(count)]


def split_rows(e, unknowns):
    """The equation e = 0, for e linear and homogeneous in ``unknowns``, as
    sparse rows: each monomial in the other variables, ascending by
    ``mono_key``, maps to its coefficient of each unknown by column."""
    index = {c: k for k, c in enumerate(unknowns)}
    rows = {}
    for mono, coeff in e.term_map().items():
        # Unknowns order last, so a term's unknown is its last factor.
        if not mono or mono[-1][0] not in index or mono[-1][1] != 1 \
                or (len(mono) > 1 and mono[-2][0] in index):
            raise AssertionError("internal error: expression is not "
                                 "linear and homogeneous in the unknowns")
        rows.setdefault(mono[:-1], {})[index[mono[-1][0]]] = coeff
    return {m: rows[m] for m in sorted(rows, key=mono_key)}


def template_rows(L, ds):
    """The rows of the determining system ``ds`` as they were built before
    column assembly: the invariance residual of its templates, in which
    every term carries its unknown as a factor, split by unknown."""
    g = Generator(xi=dict(ds.xi_templates), eta=dict(ds.eta_templates))
    residual = prolongation_residual(L, g, ds.gauge_templates)
    return list(split_rows(residual, ds.unknowns).values())


def _template_gauge_groups(L, generators, degree, jet_order):
    """(members, gauge monomials, system, unknowns) for each gauge jet
    order in order of first use, the candidates grouped by it as
    ``find_gauges`` grouped them while every problem went through one
    linear system.  The system is built as before column assembly: the
    rows split from the gauge templates' divergence, with a row for each
    candidate's residual monomial, all ascending by ``mono_key``; it is a
    list of (row, right-hand sides) pairs."""
    space = L.space
    groups = {}
    for k, g in enumerate(generators):
        order = jet_order
        if order is None:
            order = (max(L.order - 1, g.dependence_order)
                     if space.is_ode else 0)
        groups.setdefault(order, []).append(k)
    for order, members in groups.items():
        monos = monomials_upto(space, order, degree, include_constant=False)
        n = len(space.independents)
        unknowns = fresh_unknowns(space, n * len(monos))
        templates = [Expr({m + ((c, 1),): 1 for m, c in
                           zip(monos, unknowns[j * len(monos):])})
                     for j in range(n)]
        divergence = prolongation_residual(L, Generator(), templates)
        system = {mono: (row, {})
                  for mono, row in split_rows(divergence, unknowns).items()}
        for k, member in enumerate(members):
            terms = prolongation_residual(L, generators[member]).term_map()
            for mono, c in terms.items():
                system.setdefault(mono, ({}, {}))[1][k] = -c
        yield (members, monos,
               [system[m] for m in sorted(system, key=mono_key)],
               len(unknowns))


def template_gauge_systems(L, generators, degree=4, jet_order=None):
    """The systems of ``_template_gauge_groups``, each with its number of
    unknowns: on a field problem, ``find_gauges`` eliminates the one
    system there is."""
    return [(system, n) for _, _, system, n in
            _template_gauge_groups(L, generators, degree, jet_order)]


def linear_gauges(L, generators, degree=4, jet_order=None):
    """The gauges ``find_gauges`` returns, or None where there is none,
    solved by ``solve_affine_many`` on ``template_gauge_systems``: column
    j * len(monos) + k is the coefficient of monos[k] in component j, so
    each component's terms ascend by ``mono_key``.  On a time-like
    problem this is the linear system that the antiderivative replaces."""
    gauges = [None] * len(generators)
    for members, monos, system, n in _template_gauge_groups(
            L, generators, degree, jet_order):
        solutions = solve_affine_many(constant_columns(system, n), n,
                                      len(members))
        for member, sol in zip(members, solutions):
            if sol is not None:
                gauges[member] = tuple(
                    Expr({m: sol[j * len(monos) + k]
                          for k, m in enumerate(monos)
                          if j * len(monos) + k in sol})
                    for j in range(len(L.space.independents)))
    return gauges


def multiplier_system(L, degree, jet_order, point=False):
    """The system E(Q.E(L)) = 0 for the characteristics Q_i of degree <=
    ``degree`` over the independents and the jets up to ``jet_order``, as
    (rows, unknowns): each Q_i is a template of fresh unknowns, and the
    system is linear in them with no gauge.  Its nullity counts the
    independent characteristics of variational symmetries in that ansatz
    (Olver, Thm 4.7 and Sec. 5.3; Anco and Bluman, Eur. J. Appl. Math. 13,
    2002).  With ``point``, Q_i = eta_i - sum_j xi_j u_i,j instead, eta_i
    and xi_j such templates, and the nullity counts the (xi, eta) of
    variational point symmetries when ``jet_order`` is 0; the unknowns
    are eta's, by dependent, then xi's, by independent.  E(L) comes from
    ``euler_lagrange(...).raw``; E(Q.E(L)) reads jets up to twice the
    product's order, past the problem's working order, so L is parsed
    again in a jet space of its own with that room."""
    space = L.space
    order = max(2 * L.order, jet_order)
    room = JetSpace([x.name for x in space.independents],
                    [u.name for u in space.dependents], max_order=2 * order)
    raw = euler_lagrange(
        Lagrangian(room, L.order, parse(str(L.body), room))).raw
    n = len(room.independents)
    monos = monomials_upto(room, jet_order, degree)
    slots = len(raw) + (n if point else 0)
    unknowns = fresh_unknowns(room, slots * len(monos))
    templates = [Expr({m + ((c, 1),): 1
                       for m, c in zip(monos, unknowns[k * len(monos):])})
                 for k in range(slots)]
    product = Expr.zero()
    for i, e in enumerate(raw):
        q = templates[i]
        for j, xi in enumerate(templates[len(raw):]):
            u_j = room.jet(i, tuple(int(a == j) for a in range(n)))
            q = q - xi * Expr.variable(u_j)
        product = product + q * e
    rows = [row for e in euler_lagrange(Lagrangian(room, order, product)).raw
            for row in split_rows(e, unknowns).values()]
    return rows, unknowns
