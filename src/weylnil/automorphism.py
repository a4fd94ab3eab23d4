"""Generator automorphisms, words of them, and the partner anti-involution.

Three primitive generator kinds act on the algebra:

* ``ShiftX(s)``   : x -> x + s'(D),  D -> D      (s a polynomial in D)
* ``ShiftD(r)``   : D -> D - r'(x),  x -> x      (r a polynomial in x)
* ``Fourier()``   : x -> D,  D -> -x, with ``FourierInverse()`` its inverse
  (x -> -D, D -> x; also reachable as the Fourier cube).

Constant terms of the stored polynomials act trivially and are dropped on
construction, so every generator has one canonical representation.

The generators fall into two families, each with one private base: the
shifts under ``_Shift`` and the swaps under ``_Swap``.  The facts that
other modules print or encode sit on the classes here, as class
attributes: ``kind``, the word document's entry kind; ``letter``, the
variable a shift polynomial is written in (``D`` for ``ShiftX``, ``x`` for
``ShiftD``); and ``turns``, the number of Fourier swaps a swap is (1, or 3
for the inverse).  A shift inverts to the same class with the negated
polynomial, a swap to the other swap.  Code outside this module tests a
generator's family against the two bases and reads these attributes, not
the four class names.

Both shifts go through one substitution routine, ``_substitute``: it
applies ``D -> D - p(x)`` to the normal-ordered element ``sum_j B_j(x) D^j``
by Horner's rule from the right, right-multiplying one accumulator by ``D -
p(x)`` on Python integers over one denominator, with no general product, no
table of powers and no reordering of the input.  The accumulator is one
integer per derivative exponent ``c``, holding ``c!`` times that row's
coefficient with the coordinate exponents packed into signed fixed-width
slots (Kronecker substitution); the ``c!`` scaling turns right
multiplication by ``p(x)`` into ``p(x + y)``, with ``x`` a one-slot shift and
``y`` a move one row down, so a Horner step is a few big-integer operations
per row.  The slot width comes from a 1-norm bound on the image and the
slots are read out once, at the end.  ``ShiftX`` reaches the routine
through the order-reversing swap ``x^i D^j <-> x^j D^i``, which turns ``x +
s(D)`` into ``D + s(x)``.

A word is a sequence of generators read like a composition chain: the LAST
entry is applied first, so ``apply_word([g, h], a) == g(h(a))``.  With this
convention ``invert_word`` reverses the sequence and inverts each entry, and
``compose(first, then)`` concatenates so that ``first`` acts first.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence, Tuple, Union

from ._value import Value
from .element import WeylElement, _new, _reduce, _settle
from .poly import UniPoly


class _Shift(Value):
    """A shift by the derivative of ``poly``, stored without its constant."""

    __slots__ = ("poly",)

    def __init__(self, poly: UniPoly):
        super().__init__(poly.drop_constant())


class ShiftX(_Shift):
    """x -> x + poly'(D); the exponential of bracketing with poly(D)."""

    __slots__ = ()
    kind, letter = "shiftX", "D"


class ShiftD(_Shift):
    """D -> D - poly'(x); the exponential of bracketing with poly(x)."""

    __slots__ = ()
    kind, letter = "shiftD", "x"


class _Swap(Value):
    """A power of the Fourier swap: ``turns`` swaps in a row, one unless a
    subclass says otherwise."""

    __slots__ = ()
    kind, turns = "fourier", 1


class Fourier(_Swap):
    """x -> D, D -> -x."""

    __slots__ = ()


class FourierInverse(_Swap):
    """x -> -D, D -> x."""

    __slots__ = ()
    turns = 3


Generator = Union[ShiftX, ShiftD, Fourier, FourierInverse]
AutoWord = Tuple[Generator, ...]


def _apply_fourier(e: WeylElement, inverse: bool) -> WeylElement:
    out: dict = {}
    get = out.get
    for (i, j), n in e.nums.items():
        if (i if inverse else j) % 2:
            n = -n
        # image of x^i D^j is (+-1) D^i x^j, reordered term by term with the
        # weights t! C(i, t) C(j, t), each exactly from the one before
        for t in range(min(i, j) + 1):
            key = (j - t, i - t)
            out[key] = get(key, 0) + n
            n = n * (i - t) * (j - t) // (t + 1)
    return _settle(out.items(), e.den, e.side)


def _substitute(e: WeylElement, gen: _Shift) -> WeylElement:
    """Image of a nonzero ``e`` under a shift with nonzero derivative.

    ``ShiftD(r)`` sends ``D -> D - p(x)`` with ``p = r'``.  ``ShiftX(s)`` is
    taken on the swapped element, swapped back: the swap ``x^i D^j <-> x^j
    D^i`` reverses the order of products, so it conjugates ``D -> D + s'(x)``
    into ``x -> x + s'(D)``.  With ``den`` the lcm of the denominators of
    ``p``, ``P = den*p``, ``J`` the order of ``e`` and ``B_j(x)`` the
    ``D^j`` column of ``e`` (normal order keeps ``x`` on the left), the image
    over the one denominator ``e.den * den^J`` is

        den^J * image = sum_j den^(J-j) B_j(x) (den*D - P)^j,

    taken by Horner's rule from the right on the normal-ordered input:
    ``R <- R (den*D - P) + den^(J-j) B_j`` for ``j = J-1`` down to 0 from
    ``R = B_J``.  ``R`` holds one integer per power of ``D``: row ``c`` is
    ``c!`` times the coefficient of ``D^c``, with the coefficient of ``x^a``
    in the signed ``W``-bit slot ``a`` (Kronecker substitution ``x =
    2^W``).  Right multiplication by ``den*D`` sends row ``c`` to row
    ``c+1`` times ``den*(c+1)``.  Right multiplication by ``x^m`` follows
    ``D^c x^m = sum_k C(c, k) (d/dx)^k x^m D^(c-k)``; on the scaled rows the
    weight ``C(c, k) (c-k)!/c!`` is ``1/k!``, so it multiplies the rows by
    ``(x + y)^m``, where ``x`` is a one-slot shift and ``y`` moves a row one
    down.  So ``R P`` is ``P(x + y) R``, taken by Horner over the
    coefficients of ``P``.  At the end each row is divided exactly by
    ``c!`` and its slots are read out once.

    Every step is linear in the packed integers, so each row is exactly the
    packed value of its coefficients whatever its slots hold, and only the
    read-out needs slots wide enough for the output.  A left factor ``den*D
    - P`` multiplies the 1-norm of a normal-ordered element of x-degree at
    most ``J*deg p`` by at most ``c = den*(1 + J*deg p) + ||P||_1``, through
    ``D x^a = x^a D + a x^(a-1)``, and ``B_j`` on the left only moves
    exponents.  As ``den <= c``, every output coefficient is at most ``c^J
    * ||e||_1 < 2^(W-1)`` in absolute value, for ``W = J*bitlen(c) +
    bitlen(||e||_1) + 1``.  No power of ``D - p`` is stored.
    """
    swap = gen.letter == "D"
    # p = r', or -s' for ShiftX, on the generator's integer pair: the
    # numerators of r' over r's denominator, reduced by one gcd
    r = gen.poly
    nums = [(m + 1) * n for m, n in enumerate(r.nums[1:])]
    g = gcd(r.den, *nums)
    den = r.den // g
    sign = -g if swap else g
    big_p = [n // sign for n in nums]
    top = e.x_degree if swap else e.order
    c = den * (1 + top * (len(big_p) - 1)) + sum(map(abs, big_p))
    w = top * c.bit_length() + sum(map(abs, e.nums.values())).bit_length() + 1
    # cols[j]: the packed D^j column B_j
    cols = [0] * (top + 1)
    for (i, j), n in e.nums.items():
        if swap:
            i, j = j, i
        cols[j] += n << (w * i)
    # Horner over P runs from its leading coefficient down
    high = big_p.pop()
    big_p.reverse()
    acc = [cols[top]]
    scale = 1
    for j in range(top - 1, -1, -1):
        # h = P(x + y) R by Horner: h <- (x + y) h + P_m R
        h = [high * v for v in acc]
        for pm in big_p:
            for k in range(len(h) - 1):
                h[k] = (h[k] << w) + h[k + 1]
            h[-1] <<= w
            if pm:
                for k, v in enumerate(acc):
                    h[k] += pm * v
        # R <- R (den*D - P) + den^(J-j) B_j
        scale *= den
        nxt = [scale * cols[j] - h[0]]
        for k in range(1, len(acc)):
            nxt.append(den * k * acc[k - 1] - h[k])
        nxt.append(den * len(acc) * acc[-1])
        acc = nxt
    out = {}
    mask, half = (1 << w) - 1, 1 << (w - 1)
    fact = 1  # b!
    for b, v in enumerate(acc):
        v //= fact
        fact *= b + 1
        a = 0
        while v:
            s = v & mask
            v >>= w
            if s >= half:
                s -= mask + 1
                v += 1
            if s:
                out[(b, a) if swap else (a, b)] = s
            a += 1
    return _reduce(out, e.den * den**top, e.side)


def apply_generator(gen: Generator, e: WeylElement) -> WeylElement:
    """Image of an element under one generator, in normal order."""
    if isinstance(gen, _Shift):
        # constants are dropped on construction, so degree 1 or more means a
        # nonzero derivative; an element without the shifted generator (the
        # zero element's order and x-degree are -1) is fixed: a polynomial in
        # D shifts x, one in x shifts D
        if gen.poly.degree < 1 or (e.x_degree if gen.letter == "D" else e.order) < 1:
            return e
        return _substitute(e, gen)
    if isinstance(gen, _Swap):
        return _apply_fourier(e, gen.turns == 3)
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
        if isinstance(gen, _Swap):
            x_deg, order = order, x_deg
        elif not isinstance(gen, _Shift):
            raise TypeError(f"unknown generator {gen!r}")
        elif gen.letter == "x":
            x_deg += order * max(gen.poly.degree - 1, 0)
        else:
            order += x_deg * max(gen.poly.degree - 1, 0)
    return x_deg, order


def invert_generator(gen: Generator) -> Generator:
    if isinstance(gen, _Shift):
        return type(gen)(-gen.poly)
    if isinstance(gen, _Swap):
        return FourierInverse() if gen.turns == 1 else Fourier()
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

