"""Generator automorphisms, words of them, and the partner anti-involution.

Three primitive generator kinds act on the algebra:

* ``ShiftX(s)``   : x -> x + s'(D),  D -> D      (s a polynomial in D)
* ``ShiftD(r)``   : D -> D - r'(x),  x -> x      (r a polynomial in x)
* ``Fourier()``   : x -> D,  D -> -x, with ``FourierInverse()`` its inverse
  (x -> -D, D -> x; also reachable as the Fourier cube).

Constant terms of the stored polynomials act trivially and are dropped on
construction, so every generator has one canonical representation.

Both shifts go through one substitution routine, ``_substitute``: it
rewrites the element in anti-normal order (derivative powers left of
coordinate powers) and applies ``D -> D - p(x)`` by Horner's rule in the
shifted derivative, left-multiplying one accumulator by ``D - p(x)`` on
Python integers over one denominator, with no general product and no table
of powers.  ``ShiftX`` reaches it through the order-reversing swap
``x^i D^j <-> x^j D^i``, which turns ``x + s(D)`` into ``D + s(x)``.

A word is a sequence of generators read like a composition chain: the LAST
entry is applied first, so ``apply_word([g, h], a) == g(h(a))``.  With this
convention ``invert_word`` reverses the sequence and inverts each entry, and
``compose(first, then)`` concatenates so that ``first`` acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm
from typing import Sequence, Tuple, Union

from .element import WeylElement, _lift, _settle, _swap_weights, commutator
from .poly import UniPoly


@dataclass(frozen=True)
class ShiftX:
    """x -> x + poly'(D); the exponential of bracketing with poly(D)."""

    poly: UniPoly

    def __post_init__(self):
        object.__setattr__(self, "poly", self.poly.drop_constant())


@dataclass(frozen=True)
class ShiftD:
    """D -> D - poly'(x); the exponential of bracketing with poly(x)."""

    poly: UniPoly

    def __post_init__(self):
        object.__setattr__(self, "poly", self.poly.drop_constant())


@dataclass(frozen=True)
class Fourier:
    """x -> D, D -> -x."""


@dataclass(frozen=True)
class FourierInverse:
    """x -> -D, D -> x."""


Generator = Union[ShiftX, ShiftD, Fourier, FourierInverse]
AutoWord = Tuple[Generator, ...]


def _apply_fourier(e: WeylElement, inverse: bool) -> WeylElement:
    out: dict = {}
    get = out.get
    for (i, j), n in e.nums.items():
        if (i if inverse else j) % 2:
            n = -n
        # image of x^i D^j is (+-1) D^i x^j, reordered term by term
        for t in range(min(i, j) + 1):
            key = (j - t, i - t)
            out[key] = get(key, 0) + perm(j, t) * comb(i, t) * n
    return _settle(out, e.den, e.side)


def _substitute(e: WeylElement, p: UniPoly, swap: bool) -> WeylElement:
    """Image of ``e`` under ``D -> D - p(x)``, ``x -> x``; with ``swap``, of
    the swapped element, swapped back.

    The swap ``x^i D^j <-> x^j D^i`` reverses the order of products, so it
    conjugates ``D -> D + s(x)`` into ``x -> x + s(D)``.  The element is
    first rewritten in anti-normal order, ``sum_j D^j b_j(x)``, by
    ``x^i D^j = sum_t (-1)^t w_t D^(j-t) x^(i-t)`` with the exchange weights
    ``w_t`` of ``_swap_weights(j, i)``; its image ``sum_j (D - p)^j b_j`` is
    then taken by Horner's rule.  With ``den`` the lcm of the denominators
    of ``p`` and ``P = den*p``, the integer accumulator runs
    ``R <- (den*D - P) R + den^(J-j) b_j`` for ``j = J-1`` down to 0 from
    ``R = b_J``, left-multiplying with ``D * x^a D^b = x^a D^(b+1) + a
    x^(a-1) D^b``, and ends over the one denominator ``e.den * den^J`` of the
    element and its order ``J``.  No power of ``D - p`` is stored.
    """
    terms = [((j, i), n) for (i, j), n in e.nums.items()] if swap else e.nums.items()
    den, big_p = _lift({m: c for m, c in enumerate(p.coeffs) if c})
    big_p = big_p.items()
    top = max(j for (_, j), _ in terms)
    # rows[k][a]: numerator of D^k x^a in anti-normal order
    rows: list = [{} for _ in range(top + 1)]
    for (i, j), n in terms:
        row = rows[j]
        row[i] = row.get(i, 0) + n
        weights = _swap_weights(j, i)
        for t in range(1, len(weights)):
            row = rows[j - t]
            row[i - t] = row.get(i - t, 0) + (-n if t & 1 else n) * weights[t]
    acc = {(a, 0): n for a, n in rows[top].items()}
    for k in range(top - 1, -1, -1):
        nxt: dict = {}
        get = nxt.get
        for (a, b), c in acc.items():
            dc = den * c
            key = (a, b + 1)
            nxt[key] = get(key, 0) + dc
            if a:
                key = (a - 1, b)
                nxt[key] = get(key, 0) + a * dc
            for m, pm in big_p:
                key = (a + m, b)
                nxt[key] = get(key, 0) - pm * c
        scale = den ** (top - k)
        for a, n in rows[k].items():
            key = (a, 0)
            nxt[key] = get(key, 0) + scale * n
        acc = nxt
    if swap:
        acc = {(j, i): n for (i, j), n in acc.items()}
    return _settle(acc, e.den * den**top, e.side)


def apply_generator(gen: Generator, e: WeylElement) -> WeylElement:
    """Image of an element under one generator, in normal order."""
    if isinstance(gen, Fourier):
        return _apply_fourier(e, inverse=False)
    if isinstance(gen, FourierInverse):
        return _apply_fourier(e, inverse=True)
    if isinstance(gen, (ShiftX, ShiftD)):
        shift = gen.poly.derivative()
        if shift.is_zero() or e.is_zero():
            return e
        if isinstance(gen, ShiftX):
            return _substitute(e, -shift, swap=True)
        return _substitute(e, shift, swap=False)
    raise TypeError(f"unknown generator {gen!r}")


def apply_word(word: Sequence[Generator], e: WeylElement) -> WeylElement:
    """Apply a word, last entry first (composition-chain reading)."""
    for gen in reversed(word):
        e = apply_generator(gen, e)
    return e


def shape_bound(word: Sequence[Generator], x_deg: int, order: int) -> Tuple[int, int]:
    """Bounds ``(x_deg, order)`` for the x-degree and order of the image
    under ``word`` of any element of x-degree at most ``x_deg`` and order at
    most ``order`` (last word entry applied first).

    ``ShiftD(r)`` sends ``x^i D^j`` to ``x^i (D - r'(x))^j``, of x-degree at
    most ``i + j*(deg r - 1)`` and the same order; ``ShiftX`` is the mirror
    image, and a Fourier swap exchanges the two degrees.  The zero
    element's degrees of -1 start the bound at 0, since a negative degree
    would shrink it.
    """
    x_deg, order = max(x_deg, 0), max(order, 0)
    for gen in reversed(word):
        if isinstance(gen, (Fourier, FourierInverse)):
            x_deg, order = order, x_deg
        elif isinstance(gen, ShiftD):
            x_deg += order * max(gen.poly.degree - 1, 0)
        elif isinstance(gen, ShiftX):
            order += x_deg * max(gen.poly.degree - 1, 0)
    return x_deg, order


def invert_generator(gen: Generator) -> Generator:
    if isinstance(gen, ShiftX):
        return ShiftX(-gen.poly)
    if isinstance(gen, ShiftD):
        return ShiftD(-gen.poly)
    if isinstance(gen, Fourier):
        return FourierInverse()
    if isinstance(gen, FourierInverse):
        return Fourier()
    raise TypeError(f"unknown generator {gen!r}")


def invert_word(word: Sequence[Generator]) -> AutoWord:
    """Reversed sequence of inverted generators; a two-sided inverse."""
    return tuple(invert_generator(g) for g in reversed(word))


def compose(first: Sequence[Generator], then: Sequence[Generator]) -> AutoWord:
    """Word acting as ``first`` followed by ``then``."""
    return tuple(then) + tuple(first)


def is_identity_generator(gen: Generator) -> bool:
    return isinstance(gen, (ShiftX, ShiftD)) and gen.poly.is_zero()


def ccr_preserved(word: Sequence[Generator], side: str = "x") -> bool:
    """Self-check that [word(D), word(x)] == 1."""
    wd = apply_word(word, WeylElement({(0, 1): 1}, side))
    wx = apply_word(word, WeylElement({(1, 0): 1}, side))
    return commutator(wd, wx) == WeylElement.one(side)


def anti_involution(e: WeylElement) -> WeylElement:
    """Order-reversing swap between the x and z copies of the algebra.

    Sends ``x^i D^j`` on one side to ``x^j D^i`` on the other, preserving
    coefficients; anti-multiplicativity makes the image normal-ordered as is.
    """
    other = "z" if e.side == "x" else "x"
    return _settle({(j, i): n for (i, j), n in e.nums.items()}, e.den, other)


def describe_generator(gen: Generator) -> str:
    if isinstance(gen, ShiftX):
        return f"shiftX({gen.poly.format('D')})"
    if isinstance(gen, ShiftD):
        return f"shiftD({gen.poly.format('x')})"
    if isinstance(gen, Fourier):
        return "fourier"
    return "fourier^-1"
