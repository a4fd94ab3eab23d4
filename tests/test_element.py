"""Core arithmetic: normal ordering, brackets, profiles, algebra laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from weylnil import (
    SideMismatchError,
    UniPoly,
    WeylElement,
    ad_power,
    commutator,
    coordinate,
    generators,
    normalize_product,
    poly_at,
    profile,
)

from conftest import rand_element, weyl_elements
from oracles import slow_monomial_product, slow_product

x, d = generators()


def test_product_ccr():
    assert d * x == x * d + 1


def test_product_square_swap():
    assert d**2 * x**2 == x**2 * d**2 + 4 * x * d + 2


def test_product_commuting_generators():
    assert x * x == x**2


def test_product_side_mismatch():
    with pytest.raises(SideMismatchError):
        normalize_product(x, coordinate("z"))


def test_commutator_ccr():
    assert commutator(d, x) == WeylElement.one()


def test_commutator_self_is_zero():
    a = x**2 * d + 3 * d**2
    assert commutator(a, a).is_zero()


def test_commutator_euler_coordinate():
    assert commutator(x * d, x) == x


def test_ad_power_second_derivative():
    assert ad_power(d**2, x, 1) == 2 * d
    assert ad_power(d**2, x, 2).is_zero()


def test_ad_power_zero_steps_identity():
    h = x**3 + d
    assert ad_power(x * d, h, 0) == h


def test_ad_power_fixed_point():
    for s in range(6):
        assert ad_power(x * d, x, s) == x


def test_profile_airy():
    p = profile(d**2 - x)
    assert p.order == 2
    assert p.leading == UniPoly.one()
    assert p.subleading.is_zero()


def test_profile_euler():
    p = profile(x * d)
    assert p.order == 1
    assert p.leading == UniPoly((0, 1))
    assert p.subleading.is_zero()


def test_profile_pure_coordinate():
    p = profile(x**3)
    assert p.order == 0
    assert p.leading == UniPoly((0, 0, 0, 1))


def test_profile_zero_sentinel():
    p = profile(WeylElement.zero())
    assert p.order == -1
    assert p.leading.is_zero()


def test_scalar_mixing_and_division():
    e = (x * d + 1) / 2
    assert 2 * e == x * d + 1
    assert e - e == WeylElement.zero()


def test_poly_at_evaluates_operators():
    q = UniPoly((1, 0, 1))  # t^2 + 1
    assert poly_at(q, d) == d**2 + 1
    assert poly_at(UniPoly.zero(), x) == WeylElement.zero()


def test_equality_requires_matching_side():
    assert coordinate("x") != coordinate("z")
    assert hash(coordinate("x")) != hash(coordinate("z"))


@given(a=weyl_elements(), b=weyl_elements(), c=weyl_elements())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=weyl_elements(), b=weyl_elements(), c=weyl_elements())
def test_jacobi_identity(a, b, c):
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.is_zero()


@given(m=weyl_elements(), a=weyl_elements(), b=weyl_elements())
def test_leibniz_for_bracket(m, a, b):
    assert commutator(m, a * b) == commutator(m, a) * b + a * commutator(m, b)


@given(a=weyl_elements(max_terms=4), b=weyl_elements(max_terms=4))
def test_order_adds_over_a_domain(a, b):
    # top coefficient slices multiply in a polynomial ring, so they never cancel
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).order == a.order + b.order


def test_oracle_equivalence_small_grid():
    for i1 in range(4):
        for j1 in range(4):
            for i2 in range(4):
                for j2 in range(4):
                    fast = (x**i1 * d**j1) * (x**i2 * d**j2)
                    assert fast == slow_monomial_product(i1, j1, i2, j2)


def test_terms_are_read_only():
    e = x * d
    with pytest.raises(TypeError):
        e.terms[(5, 5)] = Fraction(1)


def test_rational_products_match_monomial_oracle():
    # denominators up to 100, so operands lift to different common denominators
    rng = random.Random(31)
    for _ in range(40):
        a = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        assert a * b == slow_product(a, b)


def _to_sympy(e, ring, sympy):
    from sympy.holonomic.holonomic import DifferentialOperator

    x = ring.base.gens[0]
    slices = [sympy.S.Zero] * (e.order + 1)
    for (i, j), c in e.terms.items():
        slices[j] += sympy.Rational(c.numerator, c.denominator) * x**i
    return DifferentialOperator([ring.base.from_sympy(p) for p in slices] or [ring.base.zero], ring)


def _from_sympy(op, ring, sympy):
    x = ring.base.gens[0]
    terms = {}
    for j, coeff in enumerate(op.listofpoly):
        for (i,), c in sympy.Poly(ring.base.to_sympy(coeff), x).terms():
            terms[(i, j)] = Fraction(int(c.p), int(c.q))
    return WeylElement(terms)


def test_products_match_sympy_differential_operators():
    sympy = pytest.importorskip("sympy")
    from sympy.holonomic import DifferentialOperators

    ring, _ = DifferentialOperators(sympy.QQ.old_poly_ring(sympy.Symbol("x")), "Dx")
    rng = random.Random(97)
    for _ in range(30):
        a = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        expected = _to_sympy(a, ring, sympy) * _to_sympy(b, ring, sympy)
        assert a * b == _from_sympy(expected, ring, sympy)
