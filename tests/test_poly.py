"""Univariate polynomial helper."""

from fractions import Fraction

import pytest

from weylnil import UniPoly


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
