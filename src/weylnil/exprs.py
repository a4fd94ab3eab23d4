"""Operator expression grammar: parsing and canonical printing.

Grammar (whitespace-insensitive between tokens)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ["^" INTEGER]
    atom   := NUMBER | SYMBOL | "(" expr ")"
    NUMBER := digits ["/" digits]          (a rational literal, no spaces)
    SYMBOL := "x" | "D"    (x side)  or  "z" | "Dz"    (z side)

``^`` binds tightest, then ``*``, then ``+``/``-``; juxtaposition is not a
product.  Products are operator products: ``D*x`` parses to ``x*D + 1``.
One expression must stay on a single side.  Exponents are capped at 4096 and
parentheses nest at most 100 deep.

``format_element`` prints terms sorted descending by (coordinate exponent,
derivative exponent); the output always parses back to an equal element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple

from .element import WeylElement, coordinate, derivative
from .errors import ParseError

MAX_EXPONENT = 4096
# Each nesting level takes a few stack frames of the recursive descent; the
# limit keeps deep input a ParseError well inside Python's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+)|([-+*^()])|(\S))")

_SYMBOLS = {"x": ("x", False), "D": ("x", True), "z": ("z", False), "Dz": ("z", True)}


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        num, name, op, junk = m.groups()
        where = m.end() - len((num or name or op or junk or ""))
        if junk is not None:
            raise ParseError(f"unexpected character {junk!r}", where)
        if num is not None:
            out.append(_Token("num", num, where))
        elif name is not None:
            out.append(_Token("name", name, where))
        else:
            out.append(_Token("op", op, where))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: List[_Token], side: str):
        self.tokens = tokens
        self.idx = 0
        self.side = side
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def take(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse_expr(self) -> WeylElement:
        parts = []
        tok = self.peek()
        while True:
            sign = 1
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
            parts.extend((k, sign * c) for k, c in self.parse_term().terms.items())
            tok = self.peek()
            if not (tok.kind == "op" and tok.text in "+-"):
                return WeylElement(parts, self.side)

    def parse_term(self) -> WeylElement:
        acc = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.take()
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> WeylElement:
        head = self.peek()
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            exp = self.take()
            if exp.kind != "num" or "/" in exp.text:
                raise ParseError("exponent must be a nonnegative integer literal", exp.pos)
            n = int(exp.text)
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent overflow (limit {MAX_EXPONENT})", exp.pos)
            if head.kind == "name":
                is_deriv = _SYMBOLS[head.text][1]
                return WeylElement({(0, n) if is_deriv else (n, 0): 1}, base.side)
            return base**n
        return base

    def parse_atom(self) -> WeylElement:
        tok = self.take()
        if tok.kind == "num":
            num, _, den = tok.text.partition("/")
            if den and int(den) == 0:
                raise ParseError("zero denominator", tok.pos)
            return WeylElement.scalar(Fraction(int(num), int(den) if den else 1), self.side)
        if tok.kind == "name":
            side, is_deriv = _SYMBOLS[tok.text]
            return derivative(side) if is_deriv else coordinate(side)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)


def parse_expression(text: str) -> WeylElement:
    """Parse an expression to a normal-ordered element."""
    tokens = _tokenize(text)
    sides = set()
    for tok in tokens:
        if tok.kind == "name":
            if tok.text not in _SYMBOLS:
                raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
            sides.add(_SYMBOLS[tok.text][0])
    if len(sides) > 1:
        raise ParseError("expression mixes x-side and z-side symbols", 0)
    parser = _Parser(tokens, sides.pop() if sides else "x")
    result = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
    return result


def format_element(e: WeylElement) -> str:
    """Canonical text for an element; parses back to an equal value."""
    return str(e)
