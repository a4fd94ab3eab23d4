"""Generator actions, words, inversion, CCR preservation, anti-involution."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings

from weylnil import (
    Fourier,
    FourierInverse,
    ShiftD,
    ShiftX,
    UniPoly,
    Weight,
    WeylElement,
    anti_involution,
    apply_generator,
    apply_word,
    commutator,
    compose,
    coordinate,
    derivative,
    generators,
    invert_generator,
    invert_word,
    shape_bound,
)

from conftest import auto_words, rand_element, rand_word, shift_polys, weyl_elements
from oracles import ccr_preserved, slow_fourier, slow_shift

x, d = generators()


def test_shift_x_on_coordinate():
    gen = ShiftX(UniPoly((0, 0, 0, Fraction(1, 3))))  # t^3/3
    assert apply_generator(gen, x) == x + d**2
    assert apply_generator(gen, d) == d


def test_shift_d_on_derivative():
    gen = ShiftD(UniPoly((0, 0, 0, Fraction(1, 3))))  # x^3/3
    assert apply_generator(gen, d) == d - x**2
    assert apply_generator(gen, x) == x


def test_fourier_images():
    assert apply_generator(Fourier(), d) == -x
    assert apply_generator(Fourier(), x) == d
    assert apply_generator(FourierInverse(), x) == -d
    assert apply_generator(FourierInverse(), d) == x


def test_word_composition_chain():
    word = (Fourier(), ShiftD(UniPoly((0, 0, 0, Fraction(-1, 3)))))
    assert apply_word(word, d) == d**2 - x


def test_shape_bound_bounds_images():
    rng = random.Random(2024)
    for _ in range(150):
        e = rand_element(rng, max_terms=4, max_exp=3, max_num=9, max_den=4)
        word = rand_word(rng, max_len=3, max_deg=4, max_image=24)
        image = apply_word(word, e)
        x_bound, order_bound = shape_bound(word, e.x_degree, e.order)
        assert image.x_degree <= x_bound and image.order <= order_bound
    # the zero element's degrees are -1; they must not shrink the bound
    assert shape_bound((ShiftD(UniPoly((0, 0, 0, 1))),), -1, -1) == (0, 0)
    # D^2 -> (D - 3x^2)^2 -> swapped: the bound is reached
    word = (Fourier(), ShiftD(UniPoly((0, 0, 0, 1))))
    image = apply_word(word, d**2)
    assert (image.x_degree, image.order) == shape_bound(word, 0, 2) == (2, 4)


def test_generators_drop_constant_terms():
    assert ShiftX(UniPoly((5, 0, 1))) == ShiftX(UniPoly((0, 0, 1)))
    assert ShiftD(UniPoly((-2,))) == ShiftD(UniPoly.zero())


def test_invert_single_shift():
    assert invert_word((ShiftX(UniPoly((0, 0, 2))),)) == (ShiftX(UniPoly((0, 0, -2))),)


def test_invert_empty_word():
    assert invert_word(()) == ()


def test_invert_reverses_and_inverts():
    r = UniPoly((0, 0, 0, 1))
    assert invert_word((ShiftD(r), Fourier())) == (FourierInverse(), ShiftD(-r))


def test_ccr_preserved_examples():
    assert ccr_preserved(())
    assert ccr_preserved((ShiftD(UniPoly((0, 0, 0, Fraction(1, 3)))),))
    assert ccr_preserved((Fourier(),))


def test_anti_involution_examples():
    assert anti_involution(x) == derivative("z")
    assert anti_involution(x * d) == coordinate("z") * derivative("z")
    e = x**2 * d + 3 * d**3 - 1
    assert anti_involution(anti_involution(e)) == e


def test_anti_involution_degree_transposition():
    e = x**3 * d + d**2 + 5
    assert anti_involution(e).order == e.x_degree
    assert anti_involution(e).x_degree == e.order


@settings(max_examples=40, deadline=None)
@given(
    w=auto_words(start=(4, 4)),
    a=weyl_elements(max_terms=2, max_exp=2),
    b=weyl_elements(max_terms=2, max_exp=2),
)
def test_word_application_is_multiplicative(w, a, b):
    assert apply_word(w, a * b) == apply_word(w, a) * apply_word(w, b)
    assert apply_word(w, commutator(a, b)) == commutator(apply_word(w, a), apply_word(w, b))


@settings(max_examples=40, deadline=None)
@given(
    w=auto_words(start=(4, 4), max_den=7),
    a=weyl_elements(max_terms=2, max_exp=2),
    b=weyl_elements(max_terms=2, max_exp=2),
)
def test_rational_word_application_is_multiplicative(w, a, b):
    # shift polynomials with rational coefficients, as the descent applies
    assert apply_word(w, a * b) == apply_word(w, a) * apply_word(w, b)


@given(w=auto_words())
def test_ccr_preserved_on_random_words(w):
    assert ccr_preserved(w)


@settings(max_examples=40, deadline=None)
@given(w=auto_words(max_image=12), e=weyl_elements(max_terms=3, max_exp=3))
def test_invert_is_two_sided_inverse(w, e):
    assert apply_word(invert_word(w), apply_word(w, e)) == e
    assert apply_word(w, apply_word(invert_word(w), e)) == e


@settings(max_examples=40, deadline=None)
@given(
    w1=auto_words(max_len=2, max_image=10),
    w2=auto_words(max_len=2, max_image=10),
    e=weyl_elements(max_terms=3, max_exp=3),
)
def test_compose_matches_sequential_application(w1, w2, e):
    assert apply_word(compose(w1, w2), e) == apply_word(w2, apply_word(w1, e))


@given(a=weyl_elements(max_terms=4), b=weyl_elements(max_terms=4))
def test_anti_involution_reverses_products(a, b):
    assert anti_involution(a * b) == anti_involution(b) * anti_involution(a)


def test_fourier_inverse_is_threefold_fourier():
    rng = random.Random(11)
    for _ in range(20):
        e = rand_element(rng, max_terms=5, max_exp=4)
        assert apply_generator(FourierInverse(), e) == apply_word(
            (Fourier(), Fourier(), Fourier()), e
        )


def test_fourier_swaps_match_single_swap_normalization():
    # every exchange order up to 7, on both sides, the zero element included
    rng = random.Random(97)
    zero_seen = 0
    for case in range(300):
        side = "xz"[case % 2]
        if case % 50 == 0:
            e = WeylElement.zero(side)
        else:
            e = rand_element(rng, max_terms=5, max_exp=7, max_num=40, max_den=30, side=side)
        zero_seen += e.is_zero()
        assert apply_generator(Fourier(), e) == slow_fourier(e, False), e
        assert apply_generator(FourierInverse(), e) == slow_fourier(e, True), e
    assert zero_seen >= 6


def test_random_words_fix_nothing_but_identity_on_average():
    # inverse round trips on a seeded batch, complementing the property test
    rng = random.Random(23)
    for _ in range(25):
        w = rand_word(rng, max_len=4, max_deg=4)
        e = rand_element(rng, max_terms=4, max_exp=4)
        assert apply_word(invert_word(w), apply_word(w, e)) == e


def test_shifts_match_slow_substitution():
    # rational shift polynomials of degree up to 5 on rational elements,
    # against powers built by single-swap products
    rng = random.Random(31)
    for _ in range(60):
        deg = rng.randint(1, 5)
        poly = UniPoly([0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(deg)])
        gen = rng.choice((ShiftX, ShiftD))(poly)
        e = rand_element(rng, max_terms=4, max_exp=3, max_num=20, max_den=12)
        assert apply_generator(gen, e) == slow_shift(gen, e), (gen, e)


def test_shifts_match_slow_substitution_at_high_exponents():
    # exponents up to 8 give Horner recurrences of up to eight steps over
    # rows of many coordinate slots; a single term (x^i alone, D^j alone)
    # runs no step under one shift and, under the other, every step with no
    # column added after the first
    rng = random.Random(47)
    for case in range(80):
        deg = rng.randint(1, 3)
        poly = UniPoly([0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(deg)])
        gen = (ShiftX, ShiftD)[case % 2](poly)
        shape = case // 2 % 4
        if shape < 2:
            e = rand_element(rng, max_terms=4, max_exp=8, max_num=20, max_den=12)
        else:
            k = rng.randint(1, 8)
            e = WeylElement({(k, 0) if shape == 2 else (0, k): Fraction(rng.randint(1, 9), rng.randint(1, 5))})
        assert apply_generator(gen, e) == slow_shift(gen, e), (gen, e)
    # dense shift polynomials of degree 5 and 6, every coefficient nonzero,
    # at exponents up to 10: each right factor D - p(x) takes the Horner
    # over p(x + y) through four or five inner steps with no zero coefficient
    rng = random.Random(53)
    for case in range(12):
        deg = 5 + case % 2
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6)) for _ in range(deg + 1)]
        gen = (ShiftD, ShiftX)[case // 2 % 2](UniPoly(coeffs))
        e = rand_element(rng, max_terms=3, max_exp=10, max_num=20, max_den=12)
        assert apply_generator(gen, e) == slow_shift(gen, e), (gen, e)


def test_shift_unpack_signed_slot_edges():
    # The kernel packs the x exponents of each D^c row into signed slots of
    # one integer.  Each target image below puts a sign pattern into its
    # terms; the input is its preimage under the inverse shift, taken by the
    # oracle, so the kernel must read the pattern back out exactly.  The
    # first patterns run along the D exponents of one x^a, across rows.
    targets = [
        # adjacent terms of opposite sign, along one x^a and at both ends
        {(0, 0): 5, (0, 1): -5, (0, 2): 7, (0, 3): -1},
        {(1, 0): -3, (1, 1): 3, (2, 2): Fraction(-1, 2), (2, 3): Fraction(1, 2)},
        # a -1 beside zero terms
        {(2, 0): -1, (2, 3): 1},
        {(1, 0): 1, (1, 4): -1},
        {(0, 2): -1, (3, 0): 2},
        # negative top terms, alone and above a positive term
        {(0, 5): -1},
        {(1, 0): 4, (1, 1): -9, (0, 3): -2},
    ]
    # The transposed patterns run along the x exponents of one D^c, inside
    # one packed row: opposite signs in adjacent slots, a borrow across zero
    # slots and negative top slots, which a read-out borrow along x fails.
    targets += [{(j, i): c for (i, j), c in target.items()} for target in targets]
    for r in (UniPoly((0, 0, Fraction(1, 2))), UniPoly((0, 1, -2, 1)), UniPoly((0, Fraction(-2, 3), 0, 5))):
        for kind in (ShiftD, ShiftX):
            for target in targets:
                # ShiftX packs the swapped element, so swap the pattern too
                t = WeylElement(target if kind is ShiftD else {(j, i): c for (i, j), c in target.items()})
                e = slow_shift(kind(-r), t)
                assert apply_generator(kind(r), e) == t, (kind, r, target)


def test_shift_coefficients_at_the_slot_bound():
    # D -> D - c0 sends n*D^J to n*(D - c0)^J.  The slot width bounds every
    # output coefficient by cb^J * |n| with cb = q + |c0*q| for c0 over q;
    # with cb = 2^k - 1 and |n| = 2^m - 1 the constant term comes within 2x
    # of that bound, so its slot has no spare bit.  ShiftX(c0*t) is the
    # mirror image: n*x^J goes to n*(x + c0)^J.
    for k, m, q, big_j in ((4, 3, 1, 5), (8, 1, 1, 12), (9, 7, 3, 6), (6, 20, 1, 3), (11, 5, 7, 9)):
        a = 2**k - 1 - q
        assert gcd(a, q) == 1
        for c0 in (Fraction(a, q), Fraction(-a, q)):
            n = (2**m - 1) * (-1) ** big_j
            bound = (q + a) ** big_j * abs(n)
            expected = {(0, b): n * comb(big_j, b) * (-c0) ** (big_j - b) for b in range(big_j + 1)}
            assert 2 * max(abs(c) for c in expected.values()) * q**big_j > bound
            image = apply_generator(ShiftD(UniPoly((0, c0))), WeylElement({(0, big_j): n}))
            assert image == WeylElement(expected)
            image = apply_generator(ShiftX(UniPoly((0, c0))), WeylElement({(big_j, 0): n}))
            assert image == WeylElement({(b, 0): c * (-1) ** (big_j - b) for (_, b), c in expected.items()})


def test_shifts_match_slow_substitution_with_large_denominators():
    # denominators up to 10^6 and exponents up to 12 give slots of several
    # hundred bits; odd cases take ShiftX through the swap
    rng = random.Random(59)
    for case in range(200):
        deg = rng.randint(1, 3)
        poly = UniPoly([0] + [Fraction(rng.randint(-1000, 1000), rng.randint(1, 10**6)) for _ in range(deg)])
        gen = (ShiftD, ShiftX)[case % 2](poly)
        e = rand_element(rng, max_terms=3, max_exp=12, max_num=1000, max_den=10**6)
        assert apply_generator(gen, e) == slow_shift(gen, e), (gen, e)


@settings(max_examples=100, deadline=None)
@given(r=shift_polys(max_deg=5, max_den=7), e=weyl_elements(max_terms=4, max_exp=3))
def test_shift_x_is_conjugate_shift_d(r, e):
    # x -> x + r'(D) equals the Fourier conjugate of D -> D - r'(x)
    conjugate = (Fourier(), ShiftD(r), FourierInverse())
    assert apply_generator(ShiftX(r), e) == apply_word(conjugate, e)


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_generator(object(), x),
        lambda: invert_generator(object()),
        lambda: shape_bound([Weight(2, 1)], 1, 1),
    ],
    ids=["apply", "invert", "shape-bound"],
)
def test_non_generator_is_rejected(call):
    with pytest.raises(TypeError, match="unknown generator"):
        call()
