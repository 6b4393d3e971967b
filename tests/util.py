"""Shared test helpers: seeded random expressions and independent oracles.

The oracles here deliberately avoid the code paths they cross-check: the
closed-form prolongation uses the explicit binomial sum, the first-integral
oracle expands the textbook double sum directly, on-shell checks
substitute solved derivatives by hand instead of calling the reducer, the
determinant expands every cofactor afresh instead of sharing minors, and
the reference integrator and drift run RK4 over dict environments with a
direct monomial loop instead of the generated code.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import signal
from fractions import Fraction
from pathlib import Path

from noether import Expr, Generator, JetSpace, total_derivative
from noether.numeric import state_variables

SEED = 42
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment of a child interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
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


def reference_det(matrix) -> Expr:
    """Determinant by plain cofactor expansion along the first row, every
    minor expanded afresh (n! products)."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = Expr.zero()
    for j in range(len(matrix)):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * reference_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


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
