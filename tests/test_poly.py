"""Univariate polynomial helper."""

import random
from fractions import Fraction
from math import gcd

import pytest

from weylnil import UniPoly, WeylElement, poly_at

from conftest import rand_element


def test_trailing_zeros_normalized():
    assert UniPoly((1, 2, 0, 0)) == UniPoly((1, 2))
    assert UniPoly((0, 0)).is_zero()
    assert UniPoly((0, 0)).degree == -1


def test_arithmetic():
    p = UniPoly((1, 2))  # 1 + 2t
    q = UniPoly((0, 0, 1))  # t^2
    assert p + q == UniPoly((1, 2, 1))
    assert p * q == UniPoly((0, 0, 1, 2))
    assert p - p == UniPoly.zero()
    assert -p == UniPoly((-1, -2))
    assert 2 * p == UniPoly((2, 4))
    assert p / 2 == UniPoly((Fraction(1, 2), 1))


def test_calculus():
    p = UniPoly((5, 0, 3))  # 5 + 3t^2
    assert p.derivative() == UniPoly((0, 6))
    assert p.antiderivative() == UniPoly((0, 5, 0, 1))
    assert p.antiderivative().derivative() == p
    assert p.antiderivative().coeff(0) == 0


def test_evaluation_and_access():
    p = UniPoly((1, -1, 2))
    assert p(Fraction(1, 2)) == 1
    assert p.coeff(5) == 0
    assert p.leading() == 2
    with pytest.raises(ValueError):
        UniPoly.zero().leading()
    with pytest.raises(ValueError):
        p.constant_value()


def test_format():
    assert UniPoly((0, Fraction(-1, 3))).format("D") == "-1/3*D"
    assert UniPoly((1, 0, 2)).format() == "2*t^2 + 1"
    assert UniPoly.zero().format() == "0"
    assert UniPoly((0, 0, 0, Fraction(1, 3))).format("x") == "1/3*x^3"


@pytest.mark.parametrize(
    "coeffs, var, text",
    [
        ((), "z", "0"),
        ((1,), "t", "1"),
        ((-1,), "x", "-1"),
        ((Fraction(5, 4),), "t", "5/4"),
        ((-1, 1, -1), "x", "-x^2 + x - 1"),
        ((0, -1), "D", "-D"),
        ((0, 1), "z", "z"),
        ((Fraction(-1, 2), 0, 3), "t", "3*t^2 - 1/2"),
        ((0, Fraction(2, 3), Fraction(-5, 7)), "z", "-5/7*z^2 + 2/3*z"),
    ],
)
def test_format_golden(coeffs, var, text):
    assert UniPoly(coeffs).format(var) == text


def test_drop_constant():
    assert UniPoly((7, 1)).drop_constant() == UniPoly((0, 1))
    assert UniPoly.zero().drop_constant().is_zero()


def test_monomial_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        UniPoly.monomial(-1)


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2)])
def test_constants_hash_like_their_value(value):
    p = UniPoly.const(value)
    assert p == value and hash(p) == hash(value) == hash(Fraction(value))
    assert len({value, Fraction(value), p}) == 1
    for side in ("x", "z"):
        e = WeylElement.scalar(value, side)
        assert e == value and hash(e) == hash(value)
        assert len({value, e}) == 1
    # a nonconstant value hashes as its pair, equal values alike
    assert hash(UniPoly((value, 1))) == hash(UniPoly((Fraction(value), Fraction(2, 2))))


@pytest.mark.parametrize("other", ["x", None, 1.5j, [1]])
def test_arithmetic_with_a_non_number_is_a_type_error(other):
    p = UniPoly((1,))
    for op in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
        with pytest.raises(TypeError):
            op()


def test_constructor_rejects_binary_floats():
    # a float would be stored as its exact binary value, 0.1 as 3602879701896397/2^55
    for coeffs in (["1/2", 0.25], [0.1], (1, 2.0)):
        with pytest.raises(TypeError, match="float"):
            UniPoly(coeffs)
    with pytest.raises(TypeError):
        UniPoly.const(0.5)
    assert UniPoly(["1/2", 0, Fraction(1, 4)]) == UniPoly((Fraction(1, 2), 0, Fraction(1, 4)))
    # evaluation takes only exact numbers, at any polynomial, the zero one too
    for p in (UniPoly((1, 2)), UniPoly.zero()):
        for value in (0.1, 2.0, "1/2"):
            with pytest.raises(TypeError, match="int or Fraction"):
                p(value)
    rng = random.Random(41)
    for _ in range(50):
        p = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert p(c) == poly_at(p, WeylElement.scalar(c)).constant_value()


def _assert_canonical(p):
    assert p.den >= 1
    assert all(type(n) is int for n in p.nums)
    assert gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


def test_operation_results_are_canonical():
    rng = random.Random(29)

    def rand_poly():
        return UniPoly(
            [Fraction(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(rng.randint(0, 5))]
            + [0] * rng.randint(0, 2)
        )

    for _ in range(40):
        a, b = rand_poly(), rand_poly()
        ints = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
        s = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        results = [a, b, ints, UniPoly.const(s), UniPoly.monomial(3, s), UniPoly.zero()]
        results += [a + b, a - b, a - a, a * b, ints * a, -a, a + 2, 3 - a, s - a]
        results += [a * s, s * a, a * 6, a * 0, a / 4, a / Fraction(-2, 3)]
        if s:
            results.append(a / s)
        results += [a.derivative(), a.antiderivative(), a.drop_constant(), ints.derivative()]
        results += [ints.antiderivative(), UniPoly.const(s).drop_constant(), UniPoly.const(s).derivative()]
        e = rand_element(rng, max_terms=6, max_exp=3, max_num=60, max_den=60)
        for k in range(-1, 5):
            results += [e.d_slice(k), e.x_slice(k)]
        results += [WeylElement.scalar(s).d_slice(0), WeylElement.zero().x_slice(0)]
        for p in results:
            _assert_canonical(p)


@pytest.mark.parametrize(
    "p, den, nums",
    [
        (UniPoly((Fraction(1, 2), Fraction(1, 3))), 6, (3, 2)),
        (UniPoly((2, 4, 0)), 1, (2, 4)),
        (UniPoly.zero(), 1, ()),
        (UniPoly((Fraction(1, 2),)) * 2, 1, (1,)),
        (UniPoly((Fraction(3, 4), 0, Fraction(1, 4))) - Fraction(3, 4), 4, (0, 0, 1)),
    ],
)
def test_pair_examples(p, den, nums):
    assert (p.den, p.nums) == (den, nums)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        UniPoly((1, 2)) / 0
