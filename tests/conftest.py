"""Shared strategies and seeded sampling helpers.

Words of shift automorphisms can grow operator images multiplicatively, so
both the hypothesis strategy and the seeded sampler bound the shape of the
composed image; unbounded towers make exact tests intractable, not wrong.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from weylnil import Fourier, FourierInverse, ShiftD, ShiftX, UniPoly, WeylElement, shape_bound

# every generator class, both swaps included; the words below build each
# from one drawn polynomial per field: a shift has one, a swap none
GENERATORS = (ShiftX, ShiftD, Fourier, FourierInverse)


@st.composite
def weyl_elements(draw, max_terms=5, max_exp=4, side="x"):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(0, max_exp))
        j = draw(st.integers(0, max_exp))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + Fraction(num, den)
    return WeylElement(terms, side)


@st.composite
def shift_polys(draw, max_deg=4, max_den=1):
    """Shift polynomials with coefficients p/q, |p| <= 4, q <= max_den; the
    descent applies rational shifts such as V/(N*c)."""
    deg = draw(st.integers(1, max_deg))
    coeffs = [0]
    for _ in range(deg):
        num = draw(st.integers(-4, 4))
        coeffs.append(Fraction(num, draw(st.integers(1, max_den))) if max_den > 1 else num)
    return UniPoly(coeffs)


@st.composite
def auto_words(draw, max_len=3, max_deg=4, max_image=16, start=(3, 3), max_den=1):
    """Generator words kept small enough for exact whole-image comparisons."""
    n = draw(st.integers(0, max_len))
    word: list = []
    for _ in range(n):
        cls = draw(st.sampled_from(GENERATORS))
        candidate = cls(*[draw(shift_polys(max_deg, max_den)) for _ in cls.__match_args__])
        if max(shape_bound([candidate] + word, *start)) > max_image:
            break
        word.insert(0, candidate)
    return tuple(word)


def rand_element(rng: random.Random, max_terms=8, max_exp=6, max_num=100, max_den=100, side="x"):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        c = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        terms[key] = terms.get(key, Fraction(0)) + c
    return WeylElement(terms, side)


def rand_shift_poly(rng: random.Random, min_deg=1, max_deg=5):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [0] + [rng.randint(-3, 3) for _ in range(deg - 1)]
    coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return UniPoly(coeffs)


def rand_word(rng: random.Random, max_len=4, max_deg=5, max_image=16):
    """Seeded word with length <= max_len and degrees <= max_deg whose
    composed image of small elements stays within max_image."""
    while True:
        word = []
        for _ in range(rng.randint(0, max_len)):
            cls = rng.choice(GENERATORS)
            word.append(cls(*[rand_shift_poly(rng, 1, max_deg) for _ in cls.__match_args__]))
        if max(shape_bound(word, 3, 3)) <= max_image:
            return tuple(word)
