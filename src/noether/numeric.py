"""Floating-point cross-check of symbolic first integrals.

The Euler-Lagrange dynamics are integrated with a classical fixed-step
fourth-order Runge-Kutta scheme (determinism over adaptivity), and each
first integral is evaluated along the trajectory; a conserved quantity must
show only roundoff-level relative drift.  Flux vectors of field problems
are not validated numerically -- their divergence check is exact already.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .expr import INDEPENDENT, Expr, VarId
from .jets import JetSpace
from .variational import ELSystem


@dataclass(frozen=True)
class NumericConfig:
    step: float = 1e-3
    horizon: float = 10.0
    tolerance: float = 1e-8
    seed: int = 42

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.horizon < 10 * self.step:
            raise ValueError("horizon must cover at least ten steps")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


class CompiledExpr:
    """Direct monomial evaluator over a float environment."""

    def __init__(self, e: Expr):
        self.terms: List[Tuple[float, Tuple[Tuple[VarId, int], ...]]] = [
            (float(coeff), mono) for mono, coeff in e.term_map().items()]

    def __call__(self, env: Dict[VarId, float]) -> float:
        total = 0.0
        for coeff, mono in self.terms:
            acc = coeff
            for v, e in mono:
                acc *= env[v] ** e
            total += acc
        return total


def compile_expr(e: Expr, space: JetSpace) -> CompiledExpr:
    return CompiledExpr(e)


@dataclass
class Trajectory:
    """Sampled states: one environment per step, including the independent
    variable and every jet coordinate up to one below the solved order."""

    samples: List[Dict[VarId, float]]
    truncated: bool = False


@dataclass
class NumericReport:
    drifts: List[float]
    passes: List[bool]
    sample_count: int
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


def integrate_el(el: ELSystem, cfg: NumericConfig,
                 ic: Dict[VarId, float]) -> Trajectory:
    """Fixed-step RK4 trajectory of the first-order reduction.

    The initial condition maps every state variable to a float; the
    independent variable starts at zero.
    """
    space = el.space
    states = state_variables(el)
    missing = [v.name for v in states if v not in ic]
    if missing:
        raise ValueError(f"initial condition missing {', '.join(missing)}")
    t_var = space.independents[0]
    tops: Dict[VarId, CompiledExpr] = {}
    for i, dep in enumerate(space.dependents):
        h = max((v for v in el.solved_forms if v.dep_index == i),
                key=lambda v: v.order)
        rhs = el.solved_forms[h]
        bad = [v for v in rhs.variables()
               if v not in states and v.kind != INDEPENDENT]
        if bad:
            raise ValueError(
                f"solved form for {h.name} references non-state variables: "
                f"{', '.join(v.name for v in bad)}")
        tops[space.jet(i, (h.order - 1,))] = compile_expr(rhs, space)

    def derivative(env: Dict[VarId, float]) -> Dict[VarId, float]:
        out = {}
        for i, dep in enumerate(space.dependents):
            for v in states:
                if v.dep_index != i:
                    continue
                if v in tops:
                    out[v] = tops[v](env)
                else:
                    out[v] = env[space.jet(i, (v.order + 1,))]
        return out

    n_steps = round(cfg.horizon / cfg.step)
    h = cfg.step
    env = {v: float(ic[v]) for v in states}
    env[t_var] = 0.0
    samples = [dict(env)]
    truncated = False
    for _ in range(n_steps):
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
            truncated = True
            break
        nxt = {v: env[v] + h / 6.0 * (k1[v] + 2 * k2[v] + 2 * k3[v] + k4[v])
               for v in states}
        nxt[t_var] = env[t_var] + h
        if not all(math.isfinite(x) for x in nxt.values()):
            truncated = True
            break
        env = nxt
        samples.append(dict(env))
    return Trajectory(samples=samples, truncated=truncated)


def drift_report(laws: Sequence, traj: Trajectory,
                 cfg: NumericConfig) -> NumericReport:
    """Relative drift of each integral along the trajectory.

    drift = max |I(t) - I(0)| / max(1, |I(0)|), evaluated at every sample.
    An integral whose value overflows on the trajectory has infinite drift,
    and so fails.
    """
    drifts = []
    passes = []
    for law in laws:
        integral = law.components[0] if hasattr(law, "components") else law
        fn = CompiledExpr(integral)
        try:
            first = fn(traj.samples[0])
            worst = max(abs(fn(env) - first) for env in traj.samples)
            drift = worst / max(1.0, abs(first))
        except OverflowError:
            drift = math.inf
        if not math.isfinite(drift):
            drift = math.inf
        drifts.append(drift)
        passes.append(drift <= cfg.tolerance)
    return NumericReport(drifts=drifts, passes=passes,
                         sample_count=len(traj.samples),
                         tolerance=cfg.tolerance)


def seeded_initial_conditions(el: ELSystem, seed: int,
                              count: int = 5) -> List[Dict[VarId, float]]:
    """Reproducible random initial conditions, uniform in [-1, 1]."""
    states = state_variables(el)
    rng = random.Random(seed)
    return [{v: rng.uniform(-1.0, 1.0) for v in states} for _ in range(count)]
