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
of powers.  The accumulator is one integer per coordinate exponent, with
the derivative exponents packed into signed fixed-width slots (Kronecker
substitution), so a Horner step costs a few big-integer operations per row;
the slot width comes from a 1-norm bound on the image and the slots are
read out once, at the end.  ``ShiftX`` reaches the routine through the
order-reversing swap ``x^i D^j <-> x^j D^i``, which turns ``x + s(D)`` into
``D + s(x)``.

A word is a sequence of generators read like a composition chain: the LAST
entry is applied first, so ``apply_word([g, h], a) == g(h(a))``.  With this
convention ``invert_word`` reverses the sequence and inverts each entry, and
``compose(first, then)`` concatenates so that ``first`` acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence, Tuple, Union

from .element import WeylElement, _new, _settle, _swap_weights
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
        for t, w in enumerate(_swap_weights(i, j)):
            key = (j - t, i - t)
            out[key] = get(key, 0) + w * n
    return _settle(out.items(), e.den, e.side)


def _substitute(e: WeylElement, gen: Union[ShiftX, ShiftD]) -> WeylElement:
    """Image of a nonzero ``e`` under a shift with nonzero derivative.

    ``ShiftD(r)`` sends ``D -> D - p(x)`` with ``p = r'``.  ``ShiftX(s)`` is
    taken on the swapped element, swapped back: the swap ``x^i D^j <-> x^j
    D^i`` reverses the order of products, so it conjugates ``D -> D + s'(x)``
    into ``x -> x + s'(D)``.  The element is first rewritten in anti-normal
    order, ``sum_j D^j b_j(x)``, by ``x^i D^j = sum_t (-1)^t w_t D^(j-t)
    x^(i-t)`` with the exchange weights ``w_t`` of ``_swap_weights(j, i)``;
    its image ``sum_j (D - p)^j b_j`` is then taken by Horner's rule.  With
    ``den`` the lcm of the denominators of ``p`` and ``P = den*p``, the
    integer accumulator runs ``R <- (den*D - P) R + den^(J-j) b_j`` for
    ``j = J-1`` down to 0 from ``R = b_J``, left-multiplying with ``D * x^a
    D^b = x^a D^(b+1) + a x^(a-1) D^b``, and ends over the one denominator
    ``e.den * den^J`` of the element and its order ``J``.

    ``R`` is held as one integer ``R[a]`` per coordinate exponent ``a``, with
    the coefficient of ``x^a D^b`` in the signed ``W``-bit slot ``b``,
    ``R[a] = sum_b c_ab 2^(W*b)`` (Kronecker substitution ``D = 2^W``).  A
    step is then a few big-integer operations per row,

        N[a] = den*((R[a] << W) + (a+1)*R[a+1]) - sum_m P_m R[a-m] + den^(J-j) b_j[a],

    and the slots are read out once, at the end.  Every step is linear in
    the packed integers, so each intermediate ``R[a]`` is exactly the packed
    value of its coefficients whatever its slots hold, and only the final
    read-out needs slots wide enough for the output.  A step multiplies the
    1-norm of ``R`` by at most ``c = den*(1 + amax) + ||P||_1``, where
    ``amax`` is the largest coordinate exponent of the image, taken from
    ``shape_bound``, which bounds the ``a`` of ``D * x^a``.  As ``den <=
    c``, the accumulator after ``b_j`` has 1-norm at most ``c^(J-j)`` times
    the 1-norm of ``b_J, ..., b_j``.  Every output coefficient is so at
    most ``c^J * ||b||_1 < 2^(W-1)`` in absolute value, for ``W =
    J*bitlen(c) + bitlen(||b||_1) + 1``.  No power of ``D - p`` is stored.
    """
    swap = isinstance(gen, ShiftX)
    # p = r', or -s' for ShiftX, on the generator's integer pair: the
    # numerators of r' over r's denominator, reduced by one gcd
    r = gen.poly
    nums = [(m + 1) * n for m, n in enumerate(r.nums[1:])]
    g = gcd(r.den, *nums)
    den = r.den // g
    sign = -g if swap else g
    big_p = [(m, n // sign) for m, n in enumerate(nums) if n]
    x_deg, order = e.x_degree, e.order
    amax = shape_bound((gen,), x_deg, order)[swap]
    top = x_deg if swap else order
    # rows[k][a]: numerator of D^k x^a in anti-normal order
    rows: list = [{} for _ in range(top + 1)]
    for (i, j), n in e.nums.items():
        if swap:
            i, j = j, i
        row = rows[j]
        row[i] = row.get(i, 0) + n
        weights = _swap_weights(j, i)
        for t in range(1, len(weights)):
            row = rows[j - t]
            row[i - t] = row.get(i - t, 0) + (-n if t & 1 else n) * weights[t]
    norm = sum(abs(n) for row in rows for n in row.values())
    c = den * (1 + amax) + sum(abs(pm) for _, pm in big_p)
    w = top * c.bit_length() + norm.bit_length() + 1
    acc = [0] * (amax + 2)  # a zero row past amax, read as R[amax + 1]
    for a, n in rows[top].items():
        acc[a] = n
    for k in range(top - 1, -1, -1):
        nxt = [0] * (amax + 2)
        for a in range(amax + 1):
            r, r1 = acc[a], acc[a + 1]
            if r or r1:
                nxt[a] += den * ((r << w) + (a + 1) * r1)
            if r:
                for m, pm in big_p:
                    nxt[a + m] -= pm * r
        scale = den ** (top - k)
        for a, n in rows[k].items():
            nxt[a] += scale * n
        acc = nxt
    out = {}
    mask, half = (1 << w) - 1, 1 << (w - 1)
    for a, v in enumerate(acc):
        for b in range(top + 1):
            if not v:
                break
            s = v & mask
            v >>= w
            if s >= half:
                s -= mask + 1
                v += 1
            if s:
                out[(b, a) if swap else (a, b)] = s
    return _settle(out.items(), e.den * den**top, e.side)


def apply_generator(gen: Generator, e: WeylElement) -> WeylElement:
    """Image of an element under one generator, in normal order."""
    if isinstance(gen, Fourier):
        return _apply_fourier(e, inverse=False)
    if isinstance(gen, FourierInverse):
        return _apply_fourier(e, inverse=True)
    if isinstance(gen, (ShiftX, ShiftD)):
        # constants are dropped on construction, so degree 1 or more means a
        # nonzero derivative
        if gen.poly.degree < 1 or e.is_zero():
            return e
        return _substitute(e, gen)
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


def anti_involution(e: WeylElement) -> WeylElement:
    """Order-reversing swap between the x and z copies of the algebra.

    Sends ``x^i D^j`` on one side to ``x^j D^i`` on the other, preserving
    coefficients; anti-multiplicativity makes the image normal-ordered as is.
    """
    other = "z" if e.side == "x" else "x"
    return _new(other, e.den, {(j, i): n for (i, j), n in e.nums.items()})

