"""Independent brute-force oracle: normal ordering by single swaps.

Monomial products are represented as letter words over {"x", "d"} and
rewritten one adjacent ``d x -> x d + 1`` swap at a time until no ``d``
stands left of an ``x``.  Deliberately naive; kept independent of the
closed-form exchange rule and of the integer-numerator arithmetic of the
package: sums and scalar multiples are taken on plain dicts of
``Fraction``s, and a ``WeylElement`` is built once per result.
``slow_commutator`` subtracts the two ``slow_product`` expansions on such a
dict.  ``slow_fourier`` normalizes the letter word of each Fourier image,
independent of the exchange weights in ``automorphism``.  ``slow_shift``
substitutes the shift generators monomial by monomial on top of the same
expansion, independent of the packed Horner kernel in ``automorphism``.
``ccr_preserved`` checks a word against the defining relation ``[D, x] ==
1`` on the images of the generators.  ``vertex_chain`` predicts the
top-weight part of each ``ad_L^t(y)`` from one top monomial of ``L`` by the
Poisson bracket, and pairs it with the part read off the package's
``commutator``; the tests of the proved rejections share it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from weylnil import ShiftX, WeylElement, apply_word, ccr_check, commutator


@lru_cache(maxsize=None)
def _normalize_word(word: tuple) -> tuple:
    """Map a letter word to a sorted tuple of ((i, j), integer coeff)."""
    for idx in range(len(word) - 1):
        if word[idx] == "d" and word[idx + 1] == "x":
            swapped = word[:idx] + ("x", "d") + word[idx + 2 :]
            dropped = word[:idx] + word[idx + 2 :]
            acc = {}
            for w in (swapped, dropped):
                for key, c in _normalize_word(w):
                    acc[key] = acc.get(key, 0) + c
            return tuple(sorted((k, c) for k, c in acc.items() if c != 0))
    return (((word.count("x"), word.count("d")), 1),)


def _monomial_product(i1: int, j1: int, i2: int, j2: int) -> tuple:
    """``((i, j), integer coeff)`` pairs of x^i1 d^j1 * x^i2 d^j2, by single swaps."""
    return _normalize_word(("x",) * i1 + ("d",) * j1 + ("x",) * i2 + ("d",) * j2)


def slow_monomial_product(i1: int, j1: int, i2: int, j2: int) -> WeylElement:
    """Normal-ordered product of x^i1 d^j1 and x^i2 d^j2, by single swaps."""
    return WeylElement(dict(_monomial_product(i1, j1, i2, j2)))


def _add_into(acc: dict, terms, scale: Fraction) -> None:
    """``acc += scale * terms`` on a plain dict of ``Fraction``s."""
    for key, c in terms:
        acc[key] = acc.get(key, Fraction(0)) + scale * c


def _product_terms(a: Mapping, b: Mapping) -> dict:
    """Bilinear expansion of two ``Fraction`` term maps over monomial products."""
    acc: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            _add_into(acc, _monomial_product(i1, j1, i2, j2), c1 * c2)
    return acc


def slow_product(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product by bilinear expansion over monomial products."""
    return WeylElement(_product_terms(a.terms, b.terms), a.side)


def slow_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """``a*b - b*a`` from the two expansions, subtracted on a plain dict."""
    acc = _product_terms(a.terms, b.terms)
    _add_into(acc, _product_terms(b.terms, a.terms).items(), Fraction(-1))
    return WeylElement(acc, a.side)


def slow_fourier(e: WeylElement, inverse: bool) -> WeylElement:
    """Image of ``e`` under ``Fourier()`` or, with ``inverse``,
    ``FourierInverse()``: ``x^i D^j`` goes to ``(-1)^j D^i x^j`` or
    ``(-1)^i D^i x^j``, the letter word normalized by single swaps."""
    acc: dict = {}
    for (i, j), c in e.terms.items():
        sign = -1 if (i if inverse else j) % 2 else 1
        _add_into(acc, _normalize_word(("d",) * i + ("x",) * j), sign * c)
    return WeylElement(acc, e.side)


def _slow_power(base: Mapping, n: int) -> dict:
    acc = {(0, 0): Fraction(1)}
    for _ in range(n):
        acc = _product_terms(acc, base)
    return acc


def slow_shift(gen, e: WeylElement) -> WeylElement:
    """Image of ``e`` under ``ShiftX`` or ``ShiftD`` by monomial substitution:
    ``x^i D^j`` goes to ``(x + p(D))^i D^j`` or ``x^i (D - p(x))^j`` with
    ``p`` the derivative of the generator polynomial, every power and
    product taken by the bilinear expansion of ``slow_product``."""
    p = gen.poly.derivative()
    coeffs = [p.coeff(k) for k in range(p.degree + 1)]
    on_x = isinstance(gen, ShiftX)
    if on_x:
        base = {(0, k): c for k, c in enumerate(coeffs)}
        base[(1, 0)] = Fraction(1)
    else:
        base = {(k, 0): -c for k, c in enumerate(coeffs)}
        base[(0, 1)] = Fraction(1)
    acc: dict = {}
    for (i, j), c in e.terms.items():
        if on_x:
            image = _product_terms(_slow_power(base, i), {(0, j): c})
        else:
            image = _product_terms({(i, 0): c}, _slow_power(base, j))
        _add_into(acc, image.items(), Fraction(1))
    return WeylElement(acc, e.side)


def ccr_preserved(word, side: str = "x") -> bool:
    """Whether ``[word(D), word(x)] == 1``."""
    wd = apply_word(word, WeylElement({(0, 1): 1}, side))
    wx = apply_word(word, WeylElement({(1, 0): 1}, side))
    return ccr_check(wd, wx)


def top_weight_part(e: WeylElement, weight) -> dict:
    """The terms of ``e`` of largest weight ``wx*i + wd*j``, with ``weight =
    (wx, wd)``, as ``{(i, j): Fraction}``."""
    wx, wd = weight
    top = max(wx * i + wd * j for i, j in e.nums)
    return {(i, j): Fraction(n, e.den) for (i, j), n in e.nums.items() if wx * i + wd * j == top}


def vertex_chain(op: WeylElement, y: WeylElement, weight, vertex, coefficient, steps: int = 5):
    """Pairs ``(computed, predicted)`` of the top-weight part of
    ``ad_op^t(y)`` for ``t < steps``, when ``op``'s top-weight part is
    ``coefficient * X^a Y^b`` with ``(a, b) = vertex`` and ``y`` is the
    monomial ``x^i D^j``.  By the Poisson bracket ``{X^a Y^b, X^p Y^q} = (b*p
    - a*q) X^(a+p-1) Y^(b+q-1)`` the prediction is ``alpha_t
    X^(i+t(a-1)) Y^(j+t(b-1))``, with ``alpha_0 = 1`` and ``alpha_(t+1) =
    coefficient * alpha_t * (b*i - a*j + t*(a - b))``."""
    (a, b), ((i, j),) = vertex, y.nums
    cur, alpha, pairs = y, Fraction(1), []
    for t in range(steps):
        if t:
            cur = commutator(op, cur)
        pairs.append((top_weight_part(cur, weight), {(i + t * (a - 1), j + t * (b - 1)): alpha}))
        alpha *= coefficient * (b * i - a * j + t * (a - b))
    return pairs
