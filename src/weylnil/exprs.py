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

A term whose factors are numbers, symbols and symbol powers, with no
coordinate factor right of a derivative factor (``-3/2*x^4*D^2``,
``2*x*1/2``), is one monomial: the parser accumulates an integer numerator,
an integer denominator and the two exponents, and builds one ``Fraction``
for the term.  Only a parenthesised group, or a coordinate factor after a
derivative factor (``D*x``), is multiplied on with the operator product.

``format_element`` prints terms sorted descending by (derivative exponent,
coordinate exponent), so ``x^2 + D + x*D^3 + x^3`` prints as
``x*D^3 + D + x^3 + x^2``; the output always parses back to an equal
element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple

from .element import WeylElement
from .errors import ParseError

MAX_EXPONENT = 4096
# Each nesting level takes a few stack frames of the recursive descent; the
# limit keeps deep input a ParseError well inside Python's recursion limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+)|([-+*^()])|(\S))")
# token kind by the index of the group that matched; group 4 is a bad character
_KINDS = (None, "num", "name", "op")

_SYMBOLS = {"x": ("x", False), "D": ("x", True), "z": ("z", False), "Dz": ("z", True)}

_ONE = Fraction(1)


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        out.append(_Token(_KINDS[group], m.group(group), m.start(group)))
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
        out: dict = {}
        tok = self.peek()
        while True:
            sign = 1
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
            for key, c in self.parse_term(sign):
                out[key] = out[key] + c if key in out else c
            tok = self.peek()
            if not (tok.kind == "op" and tok.text in "+-"):
                return WeylElement._raw(out, self.side)

    def parse_term(self, sign: int):
        """The ``(key, coefficient)`` pairs of ``sign`` times the next term.

        Numbers and symbol powers accumulate into one monomial
        ``num/den * x^i * D^j``.  A group, or a coordinate power after a
        derivative power, is multiplied on with ``*``: ``acc`` holds the
        product of the factors before the open monomial.
        """
        num, den, i, j = sign, 1, 0, 0
        acc = None
        while True:
            tok = self.take()
            if tok.kind == "num":
                top, _, bottom = tok.text.partition("/")
                bottom = int(bottom) if bottom else 1
                if bottom == 0:
                    raise ParseError("zero denominator", tok.pos)
                n = self.parse_exponent()
                num *= int(top) ** n
                den *= bottom**n
            elif tok.kind == "name":
                n = self.parse_exponent()
                if _SYMBOLS[tok.text][1]:
                    j += n
                elif j and n:
                    acc = _times(acc, _monomial(i, j, self.side))
                    i, j = n, 0
                else:
                    i += n
            elif tok.kind == "op" and tok.text == "(":
                group = self.parse_group(tok)
                n = self.parse_exponent()
                if i or j:
                    acc = _times(acc, _monomial(i, j, self.side))
                    i = j = 0
                acc = _times(acc, group if n == 1 else group**n)
            else:
                what = f"unexpected {tok.text!r}" if tok.text else "unexpected end of input"
                raise ParseError(what, tok.pos)
            tok = self.peek()
            if not (tok.kind == "op" and tok.text == "*"):
                break
            self.take()
        coeff = Fraction(num, den)
        if acc is None:
            return (((i, j), coeff),)
        if i or j:
            acc = acc * _monomial(i, j, self.side)
        return (acc * coeff).terms.items()

    def parse_exponent(self) -> int:
        """The exponent after ``^``, or 1 when no ``^`` follows."""
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == "^"):
            return 1
        self.take()
        exp = self.take()
        if exp.kind != "num" or "/" in exp.text:
            raise ParseError("exponent must be a nonnegative integer literal", exp.pos)
        n = int(exp.text)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent overflow (limit {MAX_EXPONENT})", exp.pos)
        return n

    def parse_group(self, opening: _Token) -> WeylElement:
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", opening.pos)
        self.depth += 1
        inner = self.parse_expr()
        self.depth -= 1
        self.expect_op(")")
        return inner


def _monomial(i: int, j: int, side: str) -> WeylElement:
    return WeylElement._raw({(i, j): _ONE}, side)


def _times(acc, e: WeylElement) -> WeylElement:
    return e if acc is None else acc * e


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
