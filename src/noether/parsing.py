"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := integer | name | '(' expr ')'

Division is only legal by a (sub)expression that evaluates to a nonzero
rational constant.  Parentheses nest at most ``MAX_NESTING`` deep.  Names
resolve against a ``JetSpace``:

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
from .jets import JetSpace

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*'*)|([-+*/^()]))")

_DOT_RE = re.compile(r"^(d*)dot$")

# Each parenthesis level costs four Python frames of the descent.
MAX_NESTING = 100


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


def resolve_name(space: JetSpace, name: str, position: int = 0) -> VarId:
    """Resolve a variable name against the space's registry."""
    v = space.lookup(name)
    if v is not None:
        return v
    # Prime repetition: y'' -> second derivative.
    stripped = name.rstrip("'")
    order = len(name) - len(stripped)
    if order:
        base = space.lookup(stripped)
        if base is not None and base.kind == DEPENDENT:
            if not space.is_ode:
                raise ParseError(
                    "prime derivatives need a single independent variable",
                    position)
            if order > space.max_order:
                raise ParseError(
                    f"derivative order {order} exceeds working order "
                    f"{space.max_order}", position)
            return space.jet(base.dep_index, (order,))
        raise ParseError(f"unknown variable {name!r}", position)
    # Dot suffix: qdot, qddot, ...
    for dep in space.dependents:
        if name.startswith(dep.name):
            m = _DOT_RE.match(name[len(dep.name):])
            if m and space.is_ode:
                order = len(m.group(1)) + 1
                if order > space.max_order:
                    raise ParseError(
                        f"derivative order {order} exceeds working order "
                        f"{space.max_order}", position)
                return space.jet(dep.dep_index, (order,))
    # Underscore suffix: u_tx, u_xt, u_ttx ...
    if "_" in name:
        head, suffix = name.split("_", 1)
        dep = space.lookup(head)
        if dep is not None and dep.kind == DEPENDENT and suffix:
            multi = _decompose_suffix(space, suffix)
            if multi is not None:
                if sum(multi) > space.max_order:
                    raise ParseError(
                        f"derivative order {sum(multi)} exceeds working "
                        f"order {space.max_order}", position)
                return space.jet(dep.dep_index, multi)
    raise ParseError(f"unknown variable {name!r}", position)


def _decompose_suffix(space: JetSpace, suffix: str) -> Tuple[int, ...] | None:
    """Split a derivative suffix into independent-variable names.

    Backtracking longest-match, so multi-letter independents work too.
    """
    names = sorted((v.name for v in space.independents), key=len, reverse=True)

    def walk(rest: str, counts):
        if not rest:
            return counts
        for n in names:
            if rest.startswith(n):
                nxt = list(counts)
                nxt[[v.name for v in space.independents].index(n)] += 1
                got = walk(rest[len(n):], tuple(nxt))
                if got is not None:
                    return got
        return None

    return walk(suffix, (0,) * len(space.independents))


class _Parser:
    def __init__(self, text: str, space: JetSpace):
        self.text = text
        self.space = space
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(value)
        return base

    def base(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "int":
            return Expr.constant(int(value))
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
