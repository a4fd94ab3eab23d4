"""Operator expression grammar and its parser.

Grammar (whitespace-insensitive between tokens)::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ["^" INTEGER]
    atom   := NUMBER | SYMBOL | "(" expr ")"
    NUMBER := digits ["/" digits]          (a rational literal, no spaces)
    SYMBOL := "x" | "D"    (x side)  or  "z" | "Dz"    (z side)

``^`` binds tightest, then ``*``, then ``+``/``-``; juxtaposition is not a
product.  Products are operator products: ``D*x`` parses to ``x*D + 1``.
One expression must stay on a single side.  Exponents are capped at 4096,
parentheses nest at most 100 deep and a number literal may have as many
digits as ``int`` converts (4300 by default).

The parser walks the text by position and reads a token only when it needs
one.  At the start of each term it first tries one match of the printed
shape of a term (``_term_pattern``): the separator `` + `` or `` - `` (on
the first term of an expression or group a bare ``-`` or nothing), then
``c[/d]``, ``x^i`` and ``D^j`` joined by ``*``, each optional but not all,
then a printed separator, ``)`` or the end.  A match is one monomial and
goes straight into the list of terms.  Every other term goes through the
factor loop: a term of numbers, symbols and symbol powers with no coordinate
factor right of a derivative factor (``-3/2*x^4*D^2``, ``2*x*1/2``) is
still one monomial, accumulated as an integer numerator, an integer
denominator and two exponents; only a parenthesised group, or a coordinate
factor after a derivative factor (``D*x``), is multiplied on with the
operator product.  Terms are summed on integer numerators over the least
common multiple of their denominators.

Errors come in a fixed order: a bad character anywhere, then the first
unknown symbol, then mixed sides, then the first syntax error in reading
order.  One scan for letter runs settles the side before parsing; the full
token scan runs only when an error is about to be raised.  Parsing takes
time linear in the length of the text: the term pattern matches no
whitespace beyond its fixed separators, and whitespace before the end of
the text is one token match.

``str`` of an element prints terms sorted descending by (derivative exponent,
coordinate exponent), so ``x^2 + D + x*D^3 + x^3`` prints as
``x*D^3 + D + x^3 + x^2``; the output always parses back to an equal
element.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from .element import Part, WeylElement, _element, _new
from .errors import ParseError

MAX_EXPONENT = 4096
# Each nesting level takes a few stack frames of the recursive descent; the
# limit keeps deep input a ParseError well inside Python's recursion limit.
MAX_NESTING = 100

# token kind by the index of the group that matched; group 4 is a bad
# character and no group (``\Z``) is the end of the text
_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+)|([-+*^()])|(\S)|\Z)")
_KINDS = (None, "num", "name", "op")
_NAME = re.compile(r"[A-Za-z]+")

_SYMBOLS = {"x": ("x", False), "D": ("x", True), "z": ("z", False), "Dz": ("z", True)}


def _term_pattern(xs: str, ds: str) -> "re.Pattern":
    """The printed shape of one term on the side with symbols ``xs``, ``ds``.

    Groups: 1 a separator's sign, 2 a bare leading minus, 3 the numerator,
    4 the denominator, 5 the coordinate, 6 its exponent, 7 the derivative,
    8 its exponent.  A zero denominator or an exponent of five or more
    digits does not match, so such terms take the factor loop.
    """
    end = r"(?= [-+] |\)|\Z)"
    return re.compile(
        rf"(?: ([-+]) |(-)?)(?=[\d{xs}{ds[0]}])"
        rf"(?:(\d+)(?:/(0*[1-9]\d*))?(?:\*(?=[{xs}{ds[0]}])|{end}))?"
        rf"(?:({xs})(?:\^(\d{{1,4}}))?(?:\*(?={ds[0]})|{end}))?"
        rf"(?:({ds})(?:\^(\d{{1,4}}))?)?{end}"
    )


_TERMS = {"x": _term_pattern("x", "D"), "z": _term_pattern("z", "Dz")}


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int
    end: int


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int converts
        raise ParseError("number literal too long", pos) from None


def _raise_scan_error(text: str) -> None:
    """Raise the first error of a full token scan, if it finds one: a bad
    character, then an unknown symbol, then mixed sides."""
    names = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.lastindex == 2:
            names.append(m)
    sides = set()
    for m in names:
        if m.group(2) not in _SYMBOLS:
            raise ParseError(f"unknown symbol {m.group(2)!r}", m.start(2))
        sides.add(_SYMBOLS[m.group(2)][0])
    if len(sides) > 1:
        raise ParseError("expression mixes x-side and z-side symbols", 0)


class _Parser:
    def __init__(self, text: str, side: str):
        self.text = text
        self.pos = 0
        self.side = side
        self.term = _TERMS[side]
        self.depth = 0

    def peek(self) -> _Token:
        m = _TOKEN.match(self.text, self.pos)
        group = m.lastindex
        if group is None:
            return _Token("end", "", len(self.text), len(self.text))
        if group == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        return _Token(_KINDS[group], m.group(group), m.start(group), m.end())

    def take(self) -> _Token:
        tok = self.peek()
        self.pos = tok.end
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    def parse_expr(self) -> List[Part]:
        """The parts of the terms of an expression; each term is first tried
        as one printed-term match, then read by the factor loop."""
        parts: List[Part] = []
        first = True
        while True:
            m = self.term.match(self.text, self.pos)
            if m is not None and (first or m[1]):
                sep, minus, num, den, xs, i, ds, j = m.groups()
                i = int(i) if i else 1 if xs else 0
                j = int(j) if j else 1 if ds else 0
                if i <= MAX_EXPONENT and j <= MAX_EXPONENT:
                    num = _int(num, m.start(3)) if num else 1
                    den = _int(den, m.start(3)) if den else 1
                    parts.append(((i, j), -num if minus or sep == "-" else num, den))
                    self.pos = m.end()
                    first = False
                    continue
            tok = self.peek()
            sign = 1
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
            elif not first:
                return parts
            parts.extend(self.parse_term(sign))
            first = False

    def parse_term(self, sign: int) -> List[Part]:
        """The parts of ``sign`` times the next term, read by the factor loop.

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
                bottom = _int(bottom, tok.pos) if bottom else 1
                if bottom == 0:
                    raise ParseError("zero denominator", tok.pos)
                n = self.parse_exponent()
                num *= _int(top, tok.pos) ** n
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
        if acc is None:
            return [((i, j), num, den)]
        if i or j:
            acc = acc * _monomial(i, j, self.side)
        return [(key, n * num, acc.den * den) for key, n in acc.nums.items()]

    def parse_exponent(self) -> int:
        """The exponent after ``^``, or 1 when no ``^`` follows."""
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == "^"):
            return 1
        self.take()
        exp = self.take()
        if exp.kind != "num" or "/" in exp.text:
            raise ParseError("exponent must be a nonnegative integer literal", exp.pos)
        n = _int(exp.text, exp.pos)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent overflow (limit {MAX_EXPONENT})", exp.pos)
        return n

    def parse_group(self, opening: _Token) -> WeylElement:
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", opening.pos)
        self.depth += 1
        inner = _element(self.parse_expr(), self.side)
        self.depth -= 1
        self.expect_op(")")
        return inner


def _monomial(i: int, j: int, side: str) -> WeylElement:
    return _new(side, 1, {(i, j): 1})


def _times(acc, e: WeylElement) -> WeylElement:
    return e if acc is None else acc * e


def parse_expression(text: str) -> WeylElement:
    """Parse an expression to a normal-ordered element."""
    names = set(_NAME.findall(text))
    sides = {_SYMBOLS[name][0] for name in names & _SYMBOLS.keys()}
    if len(sides) > 1 or not names <= _SYMBOLS.keys():
        _raise_scan_error(text)
    parser = _Parser(text, sides.pop() if sides else "x")
    try:
        parts = parser.parse_expr()
        tail = parser.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
    except ParseError:
        _raise_scan_error(text)
        raise
    return _element(parts, parser.side)
