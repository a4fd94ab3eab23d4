"""Independent brute-force oracle: normal ordering by single swaps.

Monomial products are represented as letter words over {"x", "d"} and
rewritten one adjacent ``d x -> x d + 1`` swap at a time until no ``d``
stands left of an ``x``.  Deliberately naive; kept independent of the
closed-form exchange rule and of the integer-numerator product kernel used
by the package: rational coefficients enter only through scalar multiples
and sums of ``Fraction``s.  ``slow_shift`` substitutes the shift
generators monomial by monomial on top of ``slow_product``, independent of
the integer power recurrence in ``automorphism``.
"""

from __future__ import annotations

from functools import lru_cache

from weylnil import ShiftX, WeylElement


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


def slow_monomial_product(i1: int, j1: int, i2: int, j2: int) -> WeylElement:
    """Normal-ordered product of x^i1 d^j1 and x^i2 d^j2, by single swaps."""
    word = ("x",) * i1 + ("d",) * j1 + ("x",) * i2 + ("d",) * j2
    return WeylElement(dict(_normalize_word(word)))


def slow_product(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product by bilinear expansion over monomial products."""
    acc = WeylElement.zero(a.side)
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            acc = acc + slow_monomial_product(i1, j1, i2, j2) * (c1 * c2)
    return acc


def _slow_power(base: WeylElement, n: int) -> WeylElement:
    acc = WeylElement.one(base.side)
    for _ in range(n):
        acc = slow_product(acc, base)
    return acc


def slow_shift(gen, e: WeylElement) -> WeylElement:
    """Image of ``e`` under ``ShiftX`` or ``ShiftD`` by monomial substitution:
    ``x^i D^j`` goes to ``(x + p(D))^i D^j`` or ``x^i (D - p(x))^j`` with
    ``p`` the derivative of the generator polynomial, every power and
    product taken with ``slow_product``."""
    coeffs = gen.poly.derivative().coeffs
    on_x = isinstance(gen, ShiftX)
    if on_x:
        base = WeylElement([((1, 0), 1)] + [((0, k), c) for k, c in enumerate(coeffs)], e.side)
    else:
        base = WeylElement([((0, 1), 1)] + [((k, 0), -c) for k, c in enumerate(coeffs)], e.side)
    acc = WeylElement.zero(e.side)
    for (i, j), c in e.terms.items():
        if on_x:
            image = slow_product(_slow_power(base, i), WeylElement({(0, j): c}, e.side))
        else:
            image = slow_product(WeylElement({(i, 0): c}, e.side), _slow_power(base, j))
        acc = acc + image
    return acc
