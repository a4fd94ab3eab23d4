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

A *printed level* is the whole text, or a group with no parentheses inside,
made only of printed terms (``_term_pattern``): the separator `` + `` or
`` - `` (on the first term a bare ``-`` or nothing), then ``c[/d]``, ``x^i``
and ``D^j`` joined by ``*``, each optional but not all, then a printed
separator, ``)`` or the end.  A printed level is read in one sweep of that
pattern (``_sweep``), which checks that the matches tile the level and adds
their numerators, over the least common multiple of their denominators,
into one key map.  Any other level, or one with an exponent above the cap
or a literal that ``int`` refuses, is read by the factor loop, which walks
the text by position and reads a token only when it needs one: a term of
numbers, symbols and symbol powers with no coordinate factor right of a
derivative factor (``-3/2*x^4*D^2``, ``2*x*1/2``) is one monomial,
accumulated as an integer numerator, an integer denominator and two
exponents; only a parenthesised group, or a coordinate factor after a
derivative factor (``D*x``), is multiplied on with the operator product.
So a level that holds one term of another shape, ``D*x + x^2 - 3/2*D``,
reads all its terms by the factor loop.

The side is ``z`` when the text holds a ``z`` and ``x`` otherwise.  Errors
come in a fixed order: a bad character anywhere, then the first unknown
symbol, then mixed sides, then the first syntax error in reading order.  The
sweep raises nothing, and the factor loop stops at the first symbol off the
side; the full token scan runs only when an error is about to be raised.
Parsing takes time linear in the length of the text: a term match starts
at no digit that follows a digit, so it backtracks over a digit run at most
once; the term pattern matches no whitespace beyond its fixed separators,
and whitespace before the end of the text is one token match.

``str`` of an element prints terms sorted descending by (derivative exponent,
coordinate exponent), so ``x^2 + D + x*D^3 + x^3`` prints as
``x*D^3 + D + x^3 + x^2``; the output always parses back to an equal
element.
"""

from __future__ import annotations

import re
from math import lcm
from typing import List, NamedTuple, Optional

from .element import Part, WeylElement, _element, _new, _settle
from .errors import ParseError

MAX_EXPONENT = 4096
# Each nesting level takes a few stack frames of the recursive descent; the
# limit keeps deep input a ParseError well inside Python's recursion limit.
MAX_NESTING = 100

# token kind by the index of the group that matched; group 4 is a bad
# character and no group (``\Z``) is the end of the text
_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+)|([-+*^()])|(\S)|\Z)")
_KINDS = (None, "num", "name", "op")

_SYMBOLS = {"x": ("x", False), "D": ("x", True), "z": ("z", False), "Dz": ("z", True)}


def _term_pattern(xs: str, ds: str) -> "re.Pattern":
    """The printed shape of one term on the side with symbols ``xs``, ``ds``.

    Groups: 1 a separator's sign, 2 a bare leading minus, 3 the numerator,
    4 the denominator, 5 the coordinate, 6 its exponent, 7 the derivative,
    8 its exponent.  A zero denominator or an exponent of five or more
    digits does not match, so a level holding such a term takes the factor
    loop.  No match starts right after a digit, which keeps a sweep linear
    on long digit runs.
    """
    end = r"(?= [-+] |\)|\Z)"
    return re.compile(
        rf"(?: ([-+]) |(-)?)(?<!\d)(?=[\d{xs}{ds[0]}])"
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
        """The parts of the terms of an expression, read by the factor loop."""
        parts: List[Part] = []
        first = True
        while True:
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
                symbol = _SYMBOLS.get(tok.text)
                if symbol is None or symbol[0] != self.side:
                    # parse_expression's scan reports the unknown symbol or the mixed sides
                    raise ParseError(f"unexpected symbol {tok.text!r}", tok.pos)
                n = self.parse_exponent()
                if symbol[1]:
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
        text, pos = self.text, self.pos
        close = text.find(")", pos)
        inner = None
        if close >= 0 and text.find("(", pos, close) < 0:
            inner = _sweep(text[pos:close], self.side)
        if inner is None:
            self.depth += 1
            inner = _element(self.parse_expr(), self.side)
            self.depth -= 1
        else:
            self.pos = close
        self.expect_op(")")
        return inner


def _monomial(i: int, j: int, side: str) -> WeylElement:
    return _new(side, 1, {(i, j): 1})


def _times(acc, e: WeylElement) -> WeylElement:
    return e if acc is None else acc * e


def _sweep(level: str, side: str) -> Optional[WeylElement]:
    """The element of the printed level ``level``, or None when it is not
    one: when the matches of the term pattern do not tile it, or it holds an
    exponent above ``MAX_EXPONENT`` or a literal that ``int`` refuses.  The
    factor loop then reads the level and raises any error.

    One ``split`` returns the text before each match, the match's eight
    groups, and the text after the last match; the matches tile the level
    when all those texts are empty.  A level whose first term does not
    match, such as the spaced ``2 * x``, is refused by one match before the
    split.
    """
    term = _TERMS[side]
    if term.match(level) is None:
        return None
    pieces = term.split(level)
    if any(pieces[::9]):
        return None
    terms = iter(pieces)
    next(terms)
    try:
        # each denominator's text maps to its factor up to the lcm
        dens = set(pieces[4::9])
        den = lcm(*[int(d) for d in dens if d])
        scale = {d: den // int(d) if d else den for d in dens}
        acc: dict = {}
        get = acc.get
        for sep, minus, num, d, xs, i, ds, j, _ in zip(*[terms] * 9):
            i = int(i) if i else 1 if xs else 0
            j = int(j) if j else 1 if ds else 0
            if i > MAX_EXPONENT or j > MAX_EXPONENT:
                return None
            n = int(num) * scale[d] if num else scale[d]
            key = (i, j)
            acc[key] = get(key, 0) + (-n if minus or sep == "-" else n)
    except ValueError:  # more digits than int converts
        return None
    return _settle(acc.items(), den, side)


def parse_expression(text: str) -> WeylElement:
    """Parse an expression to a normal-ordered element."""
    side = "z" if "z" in text else "x"
    if "(" not in text:
        e = _sweep(text, side)
        if e is not None:
            return e
    parser = _Parser(text, side)
    try:
        parts = parser.parse_expr()
        tail = parser.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
    except ParseError:
        _raise_scan_error(text)
        raise
    return _element(parts, side)
