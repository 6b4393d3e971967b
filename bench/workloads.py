"""The benchmark's workloads and the seeded generator of their input files.

Every job is one ``noether <command> <file> [flags]`` invocation.  Problem
sizes (degrees of freedom, ansatz degree, jet order, integration steps) are
fixed per case and size, so every seed gives determining systems of the same
shape; the seed only changes rational coefficients and initial conditions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("search", "verify", "numcheck")
SIZES = ("full", "tiny")
DEFAULT_SEED = 1

# Ansatz degrees per search case, and the verify gauge degree, per size.
_DEGREES = {
    "full": {"planar": 5, "oscillator": 6, "central": 5, "field": 5,
             "chain": 6, "gauge": 6},
    "tiny": {"planar": 2, "oscillator": 2, "central": 2, "field": 2,
             "chain": 3, "gauge": 2},
}
# numcheck horizon override per size (None keeps the files' 10^4 steps).
_HORIZON = {"full": None, "tiny": "0.05"}

# Solution counts of the search cases, which do not depend on the seed.
_SEARCH_SOLUTIONS = {
    "full": {"planar": 45, "oscillator": 4, "central": 4, "field": 5,
             "chain": 7},
    "tiny": {"planar": 10, "oscillator": 4, "central": 4, "field": 5,
             "chain": 7},
}
# Integral counts of the time-like bundled problems at their own ansatz.
_NUMCHECK_LAWS = {"free_particle": 5, "free_particle_2d": 8,
                  "harmonic_oscillator": 1, "second_order_chain": 7}

_ACCEPTED = 2   # seeded symmetric candidates in the generated verify file
_REJECTED = 2   # seeded non-symmetries in the generated verify file


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the outcome every seed must reproduce."""

    name: str
    command: str
    path: str                     # relative to the repository root
    flags: Tuple[str, ...] = ()
    seeded: bool = False          # whether the input depends on the seed
    exit_code: int = 0
    count: int = 0                # solutions (integrals) or laws (numcheck)
    verdicts: Dict[str, bool] = field(default_factory=dict)  # verify

    def argv(self) -> List[str]:
        return [self.command, self.path, *self.flags,
                "--json", "--deterministic"]


def prepare(workload: str, seed: int, size: str, root: Path,
            workdir: Path) -> List[Job]:
    """Write the workload's generated files and return its jobs in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    deg = _DEGREES[size]

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return path.relative_to(root).as_posix()

    if workload == "search":
        sols = _SEARCH_SOLUTIONS[size]
        planar = write("planar.prob", _problem(
            "t", "x, y", "1/2*x'^2 + 1/2*y'^2",
            {"degree": deg["planar"], "jet_order": 1,
             "gauge_degree": deg["planar"]}))
        oscillator = write("oscillator.prob", _problem(
            "t", "x, y, z",
            "1/2*x'^2 + 1/2*y'^2 + 1/2*z'^2 - 1/2*x^2 - 1/2*y^2 - 1/2*z^2",
            {"degree": deg["oscillator"],
             "gauge_degree": deg["oscillator"]}))
        a, b = _coefficients(rng, 2)
        central = write("central.prob", _problem(
            "t", "x, y, z",
            f"1/2*x'^2 + 1/2*y'^2 + 1/2*z'^2 - {a}*(x^2 + y^2 + z^2)"
            f" - {b}*(x^2 + y^2 + z^2)^2",
            {"degree": deg["central"], "gauge_degree": deg["central"]}))
        return [
            Job("planar", "integrals", planar, count=sols["planar"]),
            Job("oscillator", "integrals", oscillator,
                count=sols["oscillator"]),
            Job("central", "integrals", central, seeded=True,
                count=sols["central"]),
            Job("field", "integrals", "problems/quartic_field.prob",
                ("--degree", str(deg["field"])), count=sols["field"]),
            Job("chain", "integrals", "problems/second_order_chain.prob",
                ("--degree", str(deg["chain"])), count=sols["chain"]),
        ]

    if workload == "verify":
        text, verdicts = _verify_candidates(rng, deg["gauge"])
        generated = write("free_particle_3d.prob", text)
        return [
            Job("free_particle", "verify", "problems/free_particle.prob",
                verdicts={f"G{k}": True for k in range(1, 6)}),
            Job("quartic_field", "verify", "problems/quartic_field.prob",
                exit_code=1,
                verdicts={f"G{k}": k <= 4 for k in range(1, 7)}),
            Job("free_particle_3d", "verify", generated, seeded=True,
                exit_code=1, verdicts=verdicts),
        ]

    flags = ("--seed", str(seed))
    if _HORIZON[size] is not None:
        flags += ("--horizon", _HORIZON[size])
    return [Job(name, "numcheck", f"problems/{name}.prob", flags,
                seeded=True, count=laws)
            for name, laws in _NUMCHECK_LAWS.items()]


def _problem(independents: str, dependents: str, lagrangian: str,
             ansatz: Dict[str, int]) -> str:
    """A first-order problem file with an [ansatz] section."""
    lines = ["[problem]", f"independents = {independents}",
             f"dependents = {dependents}", f"lagrangian = {lagrangian}",
             "order = 1", "", "[ansatz]"]
    lines += [f"{key} = {value}" for key, value in ansatz.items()]
    return "\n".join(lines) + "\n"


# Odd primes in [1031, 1277]: 11-bit numbers whose products with the small
# constants of the laws (1, 2, 3, 1/2) keep a fixed bit length, so the
# size counter engine.max_coeff_bits does not depend on the seed.
_PRIMES = [p for p in range(1031, 1280)
           if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _coefficients(rng: random.Random, count: int,
                  signed: bool = False) -> List[Fraction]:
    """Nonzero rationals p/q with distinct primes p, q from _PRIMES."""
    out = []
    for _ in range(count):
        p, q = rng.sample(_PRIMES, 2)
        sign = rng.choice((1, -1)) if signed else 1
        out.append(Fraction(sign * p, q))
    return out


# The twelve Noether point symmetries of the 3-dof free particle
# L = |q'|^2 / 2 (time translation, translations, Galilean boosts,
# rotations, dilation and the projective symmetry), each a map from
# coefficient key to (coefficient, monomial) terms.
_Terms = Dict[str, List[Tuple[Fraction, str]]]
_AXES = ("x", "y", "z")
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_SYMMETRIES: List[_Terms] = (
    [{"xi_t": [(_ONE, "1")]}]
    + [{f"eta_{a}": [(_ONE, "1")]} for a in _AXES]
    + [{f"eta_{a}": [(_ONE, "t")]} for a in _AXES]
    + [{f"eta_{a}": [(_ONE, b)], f"eta_{b}": [(-_ONE, a)]}
       for a, b in (("x", "y"), ("x", "z"), ("y", "z"))]
    + [dict({"xi_t": [(_ONE, "t")]},
            **{f"eta_{a}": [(_HALF, a)] for a in _AXES})]
    + [dict({"xi_t": [(_ONE, "t^2")]},
            **{f"eta_{a}": [(_ONE, f"t*{a}")] for a in _AXES})]
)
# Point symmetries of the equations of motion that are not variational:
# adding any nonzero multiple of one to a symmetry leaves no local gauge.
_NON_VARIATIONAL: List[_Terms] = [
    {"eta_x": [(_ONE, "x")]},
    {"xi_t": [(_ONE, "t")]},
]


def _combine(parts: Sequence[Tuple[Fraction, _Terms]]) -> str:
    acc: Dict[str, Dict[str, Fraction]] = {}
    for weight, gen in parts:
        for key, terms in gen.items():
            for coeff, mono in terms:
                slot = acc.setdefault(key, {})
                slot[mono] = slot.get(mono, Fraction(0)) + weight * coeff
    pieces = []
    for key, terms in acc.items():
        body = " + ".join(f"({c})*{m}" for m, c in terms.items() if c)
        pieces.append(f"{key}: {body}")
    return "; ".join(pieces)


def _verify_candidates(rng: random.Random,
                       gauge_degree: int) -> Tuple[str, Dict[str, bool]]:
    """A 3-dof free-particle file with seeded candidates and their verdicts.

    Each candidate combines all twelve symmetries with nonzero seeded
    weights, so the laws have the same monomials for every seed; the
    rejected ones add a seeded multiple of a non-variational symmetry.
    """
    lines = ["[problem]", "independents = t", "dependents = x, y, z",
             "lagrangian = 1/2*x'^2 + 1/2*y'^2 + 1/2*z'^2", "order = 1", "",
             "[ansatz]", f"gauge_degree = {gauge_degree}",
             "gauge_jet_order = 1", "", "[generators]"]
    verdicts: Dict[str, bool] = {}
    for k in range(_ACCEPTED + _REJECTED):
        weights = _coefficients(rng, len(_SYMMETRIES), signed=True)
        parts = list(zip(weights, _SYMMETRIES))
        accepted = k < _ACCEPTED
        if accepted:
            name = f"S{k + 1}"
        else:
            name = f"N{k - _ACCEPTED + 1}"
            extra = _NON_VARIATIONAL[(k - _ACCEPTED) % len(_NON_VARIATIONAL)]
            parts.append((_coefficients(rng, 1, signed=True)[0], extra))
        lines.append(f"{name} = {_combine(parts)}")
        verdicts[name] = accepted
    return "\n".join(lines) + "\n", verdicts
