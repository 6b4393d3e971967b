"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := integer | name | '(' expr ')'

Division is only legal by a (sub)expression that evaluates to a nonzero
rational constant.  Parentheses nest at most ``MAX_NESTING`` deep.  An
integer, product or power whose expansion could have more than
``MAX_TERMS`` terms, a coefficient of more than ``MAX_BITS`` bits, or more
than ``MAX_WORK`` terms times coefficient bits is refused before it is
expanded, and so is the one that brings the text's expansions past
``MAX_WORK`` in total.  Names resolve against a ``JetSpace``:

* registered names directly (independents, dependents, canonical jet names
  such as ``u_tx``);
* prime repetition for single-independent problems: ``y'``, ``y''``;
* dot suffixes for the same: ``qdot``, ``qddot``, ``qdddot`` ...;
* underscore multi-suffixes naming independents in any order: ``u_xt``.

Parsing a printed expression returns an equal expression (printing is a
fixed point of parse-then-print).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .expr import DEPENDENT, Expr, VarId
from .jets import HeadroomError, JetSpace

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*'*)|([-+*/^()]))")

_DOT_RE = re.compile(r"^(d*)dot$")

# Each parenthesis level costs four Python frames of the descent.
MAX_NESTING = 100
# A 4096-bit coefficient prints in about 1233 digits, far inside what
# ``str`` converts (4300).
MAX_TERMS = 1000
MAX_BITS = 4096
# The terms and bits bounds alone admit (y + t)^999, whose thousand terms
# of up to a thousand bits take about a second to expand.  Terms times
# bits tracks the time of an expansion; at this bound the slowest accepted
# ones, such as (y + t + y')^43 or (y + t)^361, take about 0.1 s.  The
# bound holds for the whole text as well, so that a sum of many such
# powers cannot take many times as long.
MAX_WORK = 2 ** 17


class ParseError(ValueError):
    """Syntax or name-resolution failure, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _power_terms(m: int, k: int) -> int:
    """C(m - 1 + k, k), the most terms the k-th power of an m-term
    polynomial can have, counted only until it passes ``MAX_TERMS``."""
    count, r = 1, min(m - 1, k)
    for i in range(1, r + 1):
        count = count * (m - 1 + k - r + i) // i
        if count > MAX_TERMS:
            break
    return count


def _bits(e: Expr) -> int:
    """Bit length of the largest numerator or denominator of ``e``, not
    counting coefficients 1 and -1, whose powers stay that size."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in e.term_map().values() if abs(c) != 1), default=0)


def _sum_bits(n: int) -> int:
    """Bits a sum of ``n`` products can add to their size: ceil(log2 n)."""
    return (n - 1).bit_length() if n > 1 else 0


def _bounded(terms: int, bits: int, position: int) -> int:
    """The work of one expansion, terms times (bits + 1), if in bounds."""
    if terms > MAX_TERMS:
        raise ParseError(f"expansion could exceed {MAX_TERMS} terms", position)
    if bits > MAX_BITS:
        raise ParseError(f"expansion could exceed {MAX_BITS}-bit "
                         f"coefficients", position)
    if terms * (bits + 1) > MAX_WORK:
        raise ParseError(f"expansion could exceed {MAX_WORK} terms times "
                         f"coefficient bits ({terms} terms of up to {bits} "
                         f"bits)", position)
    return terms * (bits + 1)


def _integer(digits: str, position: int) -> int:
    try:   # int() refuses more than 4300 digits
        value = int(digits)
    except ValueError:
        value = None
    if value is None or value.bit_length() > MAX_BITS:
        raise ParseError(f"integer of {len(digits)} digits exceeds "
                         f"{MAX_BITS} bits", position)
    return value


def resolve_name(space: JetSpace, name: str, position: int = 0) -> VarId:
    """Resolve a variable name against the space's registry."""
    v = space.lookup(name)
    if v is not None:
        return v
    jet = _derivative_index(space, name, position)
    if jet is None:
        raise ParseError(f"unknown variable {name!r}", position)
    try:
        return space.jet(*jet)
    except HeadroomError as err:
        raise ParseError(str(err), position)


def _derivative_index(space: JetSpace, name: str, position: int
                      ) -> Tuple[int, Tuple[int, ...]] | None:
    """(dependent index, multi-index) of an unregistered derivative name;
    prime names up to the working order are all registered."""
    # Prime repetition: y'' -> second derivative.
    stripped = name.rstrip("'")
    if stripped != name:
        base = space.lookup(stripped)
        if base is None or base.kind != DEPENDENT:
            return None
        if not space.is_ode:
            raise ParseError(
                "prime derivatives need a single independent variable",
                position)
        return base.dep_index, (len(name) - len(stripped),)
    # Dot suffix: qdot, qddot, ...
    for dep in space.dependents:
        if name.startswith(dep.name):
            m = _DOT_RE.match(name[len(dep.name):])
            if m and space.is_ode:
                return dep.dep_index, (len(m.group(1)) + 1,)
    # Underscore suffix: u_tx, u_xt, u_ttx ...
    if "_" in name:
        head, suffix = name.split("_", 1)
        dep = space.lookup(head)
        if dep is not None and dep.kind == DEPENDENT and suffix:
            multi = _decompose_suffix(space, suffix)
            if multi is not None:
                return dep.dep_index, multi
    return None


def _decompose_suffix(space: JetSpace, suffix: str) -> Tuple[int, ...] | None:
    """Split a derivative suffix into independent-variable names.

    At each position the longest name that leaves a splittable rest is
    taken, so multi-letter independents work too.  The choices are found
    right to left, one position at a time, so a long suffix takes linear
    time and no recursion.
    """
    names = sorted(enumerate(v.name for v in space.independents),
                   key=lambda jn: len(jn[1]), reverse=True)
    # choice[p]: (independent, name length) taken at p; a position whose
    # rest cannot be split has none.
    choice = {len(suffix): (-1, 0)}
    for p in range(len(suffix) - 1, -1, -1):
        for j, name in names:
            if suffix.startswith(name, p) and p + len(name) in choice:
                choice[p] = j, len(name)
                break
    if 0 not in choice:
        return None
    counts = [0] * len(names)
    p = 0
    while p < len(suffix):
        j, step = choice[p]
        counts[j] += 1
        p += step
    return tuple(counts)


class _Parser:
    def __init__(self, text: str, space: JetSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def charge(self, terms: int, bits: int, position: int) -> None:
        """Bound one expansion, then the text's total work."""
        self.work += _bounded(terms, bits, position)
        if self.work > MAX_WORK:
            raise ParseError(f"expansions could exceed {MAX_WORK} terms times "
                             f"coefficient bits in total", position)

    def parse(self) -> Expr:
        value = self.expr()
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {tok!r}", pos)
        return value

    def expr(self) -> Expr:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.take()
        total = self.term()
        if negate:
            total = -total
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                nxt = self.term()
                total = total + nxt if value == "+" else total - nxt
            else:
                return total

    def term(self) -> Expr:
        total = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                nxt = self.factor()
                if value == "*":
                    self.charge(len(total) * len(nxt),
                                _bits(total) + _bits(nxt)
                                + _sum_bits(min(len(total), len(nxt))), pos)
                    total = total * nxt
                else:
                    if not nxt.is_constant:
                        raise ParseError(
                            "division is only allowed by rational constants",
                            pos)
                    if nxt.is_zero:
                        raise ParseError("division by zero", pos)
                    total = total / nxt.constant_value()
            else:
                return total

    def factor(self) -> Expr:
        base = self.base()
        kind, value, at = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            k = _integer(value, pos)
            self.charge(_power_terms(len(base), k),
                        k * (_bits(base) + _sum_bits(len(base))), at)
            return base ** k
        return base

    def base(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "int":
            return Expr.constant(_integer(value, pos))
        if kind == "name":
            return Expr.variable(resolve_name(self.space, value, pos))
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         pos)


def parse(text: str, space: JetSpace) -> Expr:
    """Parse an expression string into canonical polynomial form."""
    return _Parser(text, space).parse()
