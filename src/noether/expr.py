"""Exact multivariate polynomial arithmetic over jet-space variables.

An expression is a sparse polynomial with rational coefficients: a map from
monomials (exponent vectors over interned variables) to nonzero exact
numbers, each an ``int``, or a ``fractions.Fraction`` when not integral.
Integer arithmetic is much cheaper than ``Fraction`` arithmetic, and the two
types agree on ``==``, ``hash`` and ``str`` for the same value, so the
choice never shows.  This canonical distributed form makes equality a
dictionary comparison and keeps every operation exact -- there is no
floating point anywhere in the symbolic layer.  Since ``int / int`` is a
float in Python, every division goes through ``rational_div``.  Division is
permitted only by nonzero rational constants, so the value set is a
polynomial ring.

A problem's variables are ``VarId`` objects interned by its registry (see
``noether.jets.JetSpace``): equal content implies the same object, so
identity comparison is safe and monomials can be ordered by each variable's
registration index (graded-lexicographic order).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

INDEPENDENT = "independent"
DEPENDENT = "dependent"
JET = "jet"
PARAMETER = "parameter"


class VarId:
    """An interned variable of a jet space.

    A ``JetSpace`` creates one object per variable it registers, so the
    inherited identity ``__eq__``/``__hash__`` are both correct and fast.
    Solver unknowns (kind ``PARAMETER``) are not registered: each
    ``determining_system`` record creates its own for its templates,
    ordered after the space's variables, and never mixes them with
    another record's.

    ``multi_index`` holds one derivative count per independent variable; it
    is all zeros for a plain dependent variable and empty for independents
    and parameters.  Fields are read-only once set.
    """

    __slots__ = ("kind", "name", "sort_index", "dep_index", "multi_index")

    def __init__(self, kind: str, name: str, sort_index: int,
                 dep_index: int = -1, multi_index: Tuple[int, ...] = ()):
        set_field = object.__setattr__
        set_field(self, "kind", kind)
        set_field(self, "name", name)
        set_field(self, "sort_index", sort_index)
        set_field(self, "dep_index", dep_index)
        set_field(self, "multi_index", multi_index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def order(self) -> int:
        """Derivative order (0 for anything that is not a jet coordinate)."""
        return sum(self.multi_index)

    def __repr__(self) -> str:
        return f"VarId({self.name!r})"


class Record:
    """Base of the plain value classes.

    A subclass lists its fields in ``_fields`` and sets them in its own
    ``__init__``; it gets field-wise ``==`` and a dataclass-style ``repr``
    over them, and is unhashable, like a mutable dataclass.  Defining one
    costs nothing at import, where ``@dataclass`` compiles generated
    source.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


# An exact coefficient: an int, or a Fraction whose denominator is not 1.
Rational = Union[int, Fraction]

# A monomial is a tuple of (variable, exponent) pairs with positive
# exponents, sorted by ascending sort_index.  The empty tuple is 1.
Monomial = Tuple[Tuple[VarId, int], ...]

MONO_ONE: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted monomials, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va.sort_index < vb.sort_index:
            out.append(a[i])
            i += 1
        elif vb.sort_index < va.sort_index:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial):
    """Graded-lexicographic sort key; earlier-registered variables dominate.

    Negating the sort index turns the sparse pair list into a tuple whose
    natural ordering is the lexicographic order with "absent variable means
    exponent zero" behaviour.
    """
    return (mono_degree(m), tuple((-v.sort_index, e) for v, e in m))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(v.name if e == 1 else f"{v.name}^{e}")
    return "*".join(parts)


def _as_rational(c) -> Rational:
    """``c`` in canonical form: an integral Fraction or a bool becomes an
    int; anything that is not an exact rational raises TypeError."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected a rational coefficient, got {type(c).__name__}")


def _exact(c: Rational) -> Rational:
    """The result of +, - or * on canonical values, made canonical again."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def rational_div(a: Rational, b: Rational) -> Rational:
    """a / b exactly, in canonical form; b must be nonzero."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


class Expr:
    """Canonical polynomial: immutable by convention, hashable, exact.

    The term map never stores a zero coefficient, so two expressions are
    semantically equal exactly when their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Monomial, Rational] | None = None):
        clean: Dict[Monomial, Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_rational(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return Expr()

    @staticmethod
    def one() -> "Expr":
        return Expr({MONO_ONE: 1})

    @staticmethod
    def constant(c) -> "Expr":
        return Expr({MONO_ONE: _as_rational(c)})

    @staticmethod
    def variable(v: VarId) -> "Expr":
        return Expr({((v, 1),): 1})

    @staticmethod
    def term(coeff, mono: Monomial) -> "Expr":
        return Expr({mono: _as_rational(coeff)})

    # -- inspection ----------------------------------------------------

    def term_map(self) -> Dict[Monomial, Rational]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and MONO_ONE in self._terms)

    def constant_value(self) -> Rational:
        if not self._terms:
            return 0
        if not self.is_constant:
            raise ValueError(f"not a constant expression: {self}")
        return self._terms[MONO_ONE]

    def variables(self) -> set:
        out = set()
        for mono in self._terms:
            for v, _ in mono:
                out.add(v)
        return out

    def max_jet_order(self) -> int:
        """Highest derivative order among jet coordinates present."""
        best = 0
        for v in self.variables():
            if v.kind == JET:
                best = max(best, v.order)
        return best

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = _exact(s)
            else:
                out.pop(mono, None)
        return _raw(out)

    def __sub__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) - coeff
            if s:
                out[mono] = _exact(s)
            else:
                out.pop(mono, None)
        return _raw(out)

    def __neg__(self) -> "Expr":
        return _raw({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Expr":
        if isinstance(other, (int, Fraction)):
            c = _as_rational(other)
            if c == 0:
                return Expr.zero()
            return _raw({m: _exact(co * c) for m, co in self._terms.items()})
        if not isinstance(other, Expr):
            return NotImplemented
        if not self._terms or not other._terms:
            return Expr.zero()
        out: Dict[Monomial, Rational] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = _exact(s)
                else:
                    out.pop(mono, None)
        return _raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if isinstance(other, Expr):
            if not other.is_constant:
                raise ValueError("division is only defined by rational constants")
            other = other.constant_value()
        c = _as_rational(other)
        if c == 0:
            raise ZeroDivisionError("division of an expression by zero")
        return _raw({m: rational_div(co, c) for m, co in self._terms.items()})

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n!r}")
        result = Expr.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- calculus and structure -----------------------------------------

    def partial(self, v: VarId) -> "Expr":
        """Formal partial derivative; every other variable is a constant."""
        out: Dict[Monomial, Rational] = {}
        for mono, coeff in self._terms.items():
            for i, (w, e) in enumerate(mono):
                if w is v:
                    if e == 1:
                        reduced = mono[:i] + mono[i + 1:]
                    else:
                        reduced = mono[:i] + ((w, e - 1),) + mono[i + 1:]
                    s = out.get(reduced, 0) + coeff * e
                    if s:
                        out[reduced] = _exact(s)
                    else:
                        out.pop(reduced, None)
                    break
        return _raw(out)

    def substitute(self, bindings: Mapping[VarId, "Expr"]) -> "Expr":
        """Simultaneous substitution followed by canonicalisation.

        The binding set must be acyclic: no bound variable may appear in any
        replacement expression.
        """
        if not bindings:
            return self
        bound = set(bindings)
        for repl in bindings.values():
            overlap = bound & repl.variables()
            if overlap:
                names = ", ".join(sorted(v.name for v in overlap))
                raise ValueError(f"cyclic substitution involving {names}")
        result = Expr.zero()
        for mono, coeff in self._terms.items():
            kept = []
            piece = None
            for v, e in mono:
                repl = bindings.get(v)
                if repl is None:
                    kept.append((v, e))
                else:
                    p = repl ** e
                    piece = p if piece is None else piece * p
            term = Expr.term(coeff, tuple(kept))
            if piece is not None:
                term = term * piece
            result = result + term
        return result

    def evaluate(self, values: Mapping[VarId, Fraction | int]) -> Fraction:
        """Exact rational evaluation; every present variable must be bound."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            acc = coeff
            for v, e in mono:
                if v not in values:
                    raise ValueError(f"unbound variable {v.name!r} in evaluation")
                acc *= Fraction(values[v]) ** e
            total += acc
        return total

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono in sorted(self._terms, key=mono_key, reverse=True):
            coeff = self._terms[mono]
            if mono == MONO_ONE:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono_str(mono)
            else:
                body = f"{abs(coeff)}*{mono_str(mono)}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Expr({self})"


def _raw(terms: Dict[Monomial, Rational]) -> Expr:
    """Wrap an already-canonical term map without re-checking it."""
    e = Expr.__new__(Expr)
    e._terms = terms
    return e
