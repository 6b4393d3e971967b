"""Problem-file ingestion and validation.

A problem file is a flat key-value text in INI-style sections; a comment
has its line to itself, since after a value ``#`` is part of the value::

    # comment lines start with '#'
    [problem]
    # comma or whitespace separated names
    independents = x
    dependents = y
    # an expression in the documented grammar
    lagrangian = 1/2*y'^2
    # must equal the highest derivative present
    order = 1

    # optional; all keys optional
    [ansatz]
    degree = 4
    jet_order = 0
    # on/off
    gauge = on
    gauge_degree = 4
    gauge_jet_order = 1
    suppress_xi = off

    # optional; verification-mode candidates
    [generators]
    G5 = xi_x: x^2; eta_y: x*y

    # optional; candidate conservation laws.  PDE laws list one component
    # per independent, comma separated
    [laws]
    I3 = 1/2*y'^2

    # optional overrides for the validator
    [numeric]
    step = 1e-3
    horizon = 10.0
    tolerance = 1e-8
    seed = 42

Generator coefficients are named ``xi_<independent>`` and
``eta_<dependent>``; in single-independent problems the aliases ``xi``,
``tau`` and (for a single dependent) ``eta`` are accepted.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .engine import Ansatz, ConservationLaw
from .expr import Expr, Record, VarId
from .jets import Generator, JetSpace
from .parsing import ParseError, parse
from .variational import Lagrangian


class ProblemError(ValueError):
    """Invalid problem file; the message names the offending field."""


_PROBLEM_KEYS = ("independents", "dependents", "lagrangian", "order")
_SECTIONS = {"problem", "ansatz", "generators", "laws", "numeric"}


# The step count bounds the time of a run, and the memory of
# ``integrate_el``, which keeps every row: 10**6 rows of a small problem
# take seconds and a few hundred MB.  ``check_integrals`` keeps none.
MAX_STEPS = 10 ** 6

# Bounds on the jet space, checked before it is built.  The derivative
# recursions (``multi_derivative``, E(L)) go as deep as the order, and a
# packed monomial holds one field per variable, so the determining
# system's memory grows with the square of the variable count.
MAX_ORDER = 100
MAX_VARIABLES = 5_000

# A problem file is read whole, so its length is bounded too; an endless
# stream such as /dev/zero is refused after one character more.
MAX_FILE_CHARS = 1_000_000


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


class Problem(Record):
    """A fully validated problem: space, Lagrangian, ansatz and candidates."""

    __slots__ = _fields = ("space", "lagrangian", "ansatz", "candidates",
                           "candidate_laws", "numeric")

    def __init__(self, space: JetSpace, lagrangian: Lagrangian,
                 ansatz: Ansatz,
                 candidates: List[Tuple[str, Generator]] | None = None,
                 candidate_laws: List[Tuple[str, ConservationLaw]] | None = None,
                 numeric: NumericConfig | None = None):
        self.space = space
        self.lagrangian = lagrangian
        self.ansatz = ansatz
        self.candidates = [] if candidates is None else candidates
        self.candidate_laws = [] if candidate_laws is None else candidate_laws
        self.numeric = NumericConfig() if numeric is None else numeric

    def echo(self) -> Dict:
        return {
            "independents": [v.name for v in self.space.independents],
            "dependents": [v.name for v in self.space.dependents],
            "lagrangian": str(self.lagrangian.body),
            "order": self.lagrangian.order,
        }


def _names(raw: str, what: str) -> List[str]:
    names = [n for chunk in raw.split(",") for n in chunk.split()]
    if not names:
        raise ProblemError(f"field {what!r} must list at least one name")
    if len(set(names)) != len(names):
        raise ProblemError(f"field {what!r} repeats a name")
    return names


def _refuse_unknown(names, known, what: str) -> None:
    """ProblemError naming, sorted, each of ``names`` not in ``known``."""
    extra = set(names) - set(known)
    if extra:
        raise ProblemError(f"unknown {what}: {', '.join(sorted(extra))}")


def _bool(raw: str, what: str) -> bool:
    v = raw.strip().lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ProblemError(f"field {what!r} must be on/off, got {raw!r}")


def _int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ProblemError(f"field {what!r} must be an integer, got {raw!r}")


def _float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ProblemError(f"field {what!r} must be a number, got {raw!r}")


# [ansatz] and [numeric]: file key -> (field, parser), in checking order.
_ANSATZ = {"degree": ("coeff_degree", _int),
           "jet_order": ("coeff_jet_order", _int),
           "gauge": ("include_gauge", _bool),
           "gauge_degree": ("gauge_degree", _int),
           "gauge_jet_order": ("gauge_jet_order", _int),
           "suppress_xi": ("suppress_xi", _bool)}
_NUMERIC = {"step": ("step", _float), "horizon": ("horizon", _float),
            "tolerance": ("tolerance", _float), "seed": ("seed", _int)}


def _settings(cp: configparser.ConfigParser, section: str, table: Dict,
              cls, what: str):
    """Build ``cls`` from the keys of an optional section, per ``table``."""
    kwargs = {}
    if section in cp:
        sec = cp[section]
        _refuse_unknown(sec, table, f"[{section}] key(s)")
        for key, (name, parse_value) in table.items():
            if key in sec:
                kwargs[name] = parse_value(sec[key], f"{section}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ProblemError(f"bad {what}: {err}")


def _parse_expr(text: str, space: JetSpace, what: str) -> Expr:
    try:
        return parse(text, space)
    except ParseError as err:
        raise ProblemError(f"in {what}: {err}")


def _coefficient_target(space: JetSpace, key: str, what: str) -> Tuple[str, VarId]:
    if key in ("xi", "tau") and space.is_ode:
        return "xi", space.independents[0]
    if key == "eta" and len(space.dependents) == 1:
        return "eta", space.dependents[0]
    for prefix, pool in (("xi_", space.independents), ("eta_", space.dependents)):
        if key.startswith(prefix):
            name = key[len(prefix):]
            for v in pool:
                if v.name == name:
                    return prefix[:-1], v
            raise ProblemError(
                f"in {what}: {key!r} names no declared variable")
    raise ProblemError(
        f"in {what}: coefficient keys look like xi_<independent> or "
        f"eta_<dependent>, got {key!r}")


def _parse_generator(space: JetSpace, name: str, raw: str) -> Generator:
    xi: Dict[VarId, Expr] = {}
    eta: Dict[VarId, Expr] = {}
    what = f"generator {name!r}"
    for piece in raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ProblemError(
                f"in {what}: expected 'coefficient: expression', got {piece!r}")
        key, text = piece.split(":", 1)
        kind, var = _coefficient_target(space, key.strip(), what)
        value = _parse_expr(text.strip(), space, what)
        target = xi if kind == "xi" else eta
        if var in target:
            raise ProblemError(f"in {what}: duplicate coefficient for {var.name!r}")
        target[var] = value
    return Generator(xi=xi, eta=eta)


def _parse_law(space: JetSpace, name: str, raw: str) -> ConservationLaw:
    parts = [p.strip() for p in raw.split(",")]
    n = len(space.independents)
    if len(parts) != n:
        raise ProblemError(
            f"law {name!r} needs {n} component(s), got {len(parts)}")
    return ConservationLaw(
        tuple(_parse_expr(p, space, f"law {name!r}") for p in parts))


def _check_headroom(what: str, jet_order: int, order: int, bound: int,
                    use: str) -> None:
    if jet_order > bound:
        raise ProblemError(
            f"{what} has derivative order {jet_order}, but its {use} allows "
            f"at most {bound} for a lagrangian of order {order}")


def load_problem(path: str) -> Problem:
    """Read, parse and validate a problem file."""
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_FILE_CHARS + 1)
        if len(text) > MAX_FILE_CHARS:
            raise ProblemError("the file is longer than the bound of "
                               f"{MAX_FILE_CHARS} characters")
        # A byte-order mark is dropped by hand: the interpreter has the
        # utf-8 codec loaded already, and utf-8-sig would be one more import.
        cp.read_string(text.removeprefix("\ufeff"), source=path)
    except OSError as err:
        raise ProblemError(f"cannot read {path}: {err}")
    except configparser.Error as err:
        raise ProblemError(f"bad problem file {path}: {err}")

    _refuse_unknown(cp.sections(), _SECTIONS, "section(s)")
    if "problem" not in cp:
        raise ProblemError("missing [problem] section")

    prob = cp["problem"]
    _refuse_unknown(prob, _PROBLEM_KEYS, "[problem] key(s)")
    for required in _PROBLEM_KEYS:
        if required not in prob:
            raise ProblemError(f"missing [problem] field {required!r}")

    independents = _names(prob["independents"], "independents")
    dependents = _names(prob["dependents"], "dependents")
    order = _int(prob["order"], "order")
    if order < 1:
        raise ProblemError("field 'order' must be at least 1")
    if order > MAX_ORDER:
        raise ProblemError(f"field 'order' is {order}, above the bound "
                           f"{MAX_ORDER}")
    n, m = len(independents), len(dependents)
    max_order = 2 * order + 2
    count = n + m * math.comb(n + max_order, n)
    if count > MAX_VARIABLES:
        raise ProblemError(
            f"field 'order' is {order}, so the jet space of {n} "
            f"independent(s) and {m} dependent(s) would hold {count} "
            f"variables, above the bound {MAX_VARIABLES}")

    try:
        space = JetSpace(independents, dependents, max_order=max_order)
    except ValueError as err:
        raise ProblemError(str(err))
    body = _parse_expr(prob["lagrangian"], space, "field 'lagrangian'")
    actual = body.max_jet_order()
    if actual != order:
        raise ProblemError(
            f"field 'order' is {order} but the lagrangian's highest "
            f"derivative has order {actual}")
    lagrangian = Lagrangian(space, order, body)

    ansatz = _settings(cp, "ansatz", _ANSATZ, Ansatz, "ansatz")
    # The gauge's total derivative must stay inside the jet space.
    if (ansatz.gauge_jet_order is not None
            and ansatz.gauge_jet_order >= space.max_order):
        raise ProblemError(
            f"field 'ansatz.gauge_jet_order' is {ansatz.gauge_jet_order}, "
            f"but the gauge jet order of a Lagrangian of order {order} must "
            f"be below {space.max_order}")

    # A generator's prolongation differentiates it order times, and a law's
    # divergence once; both must stay inside the jet space.
    candidates = []
    if "generators" in cp:
        for name, raw in cp["generators"].items():
            g = _parse_generator(space, name, raw)
            _check_headroom(f"generator {name!r}", g.dependence_order,
                            order, space.max_order - order, "prolongation")
            candidates.append((name, g))

    laws = []
    if "laws" in cp:
        for name, raw in cp["laws"].items():
            law = _parse_law(space, name, raw)
            _check_headroom(f"law {name!r}",
                            max(c.max_jet_order() for c in law.components),
                            order, space.max_order - 1, "divergence")
            laws.append((name, law))

    numeric = _settings(cp, "numeric", _NUMERIC, NumericConfig,
                        "numeric config")
    return Problem(space=space, lagrangian=lagrangian, ansatz=ansatz,
                   candidates=candidates, candidate_laws=laws,
                   numeric=numeric)
