"""Core arithmetic: normal ordering, brackets, top slices, algebra laws."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given

from weylnil import (
    Fourier,
    FourierInverse,
    ShiftD,
    ShiftX,
    SideMismatchError,
    UniPoly,
    WeylElement,
    ad_nilpotency_test,
    anti_involution,
    apply_generator,
    commutator,
    coordinate,
    generators,
    poly_at,
)

from conftest import rand_element, weyl_elements
from oracles import _slow_power, slow_commutator, slow_monomial_product, slow_product

x, d = generators()


def test_product_ccr():
    assert d * x == x * d + 1


def test_product_square_swap():
    assert d**2 * x**2 == x**2 * d**2 + 4 * x * d + 2


def test_product_commuting_generators():
    assert x * x == x**2


def test_product_side_mismatch():
    with pytest.raises(SideMismatchError, match="^cannot combine an x-side element with a z-side element$"):
        x * coordinate("z")


def test_commutator_ccr():
    assert commutator(d, x) == WeylElement.one()


def test_commutator_self_is_zero():
    a = x**2 * d + 3 * d**2
    assert commutator(a, a).is_zero()


def test_commutator_euler_coordinate():
    assert commutator(x * d, x) == x


def ad_power(op, target, steps):
    """The ``steps``-fold iterated commutator [op, [op, ... [op, target]]]."""
    for _ in range(steps):
        target = commutator(op, target)
    return target


def test_ad_power_second_derivative():
    assert ad_power(d**2, x, 1) == 2 * d
    assert ad_power(d**2, x, 2).is_zero()


def test_ad_power_zero_steps_identity():
    h = x**3 + d
    assert ad_power(x * d, h, 0) == h


def test_ad_power_fixed_point():
    for s in range(6):
        assert ad_power(x * d, x, s) == x


@pytest.mark.parametrize(
    "e, order, leading, subleading",
    [
        (d**2 - x, 2, UniPoly((1,)), UniPoly.zero()),
        (x * d, 1, UniPoly((0, 1)), UniPoly.zero()),
        (x**3, 0, UniPoly((0, 0, 0, 1)), UniPoly.zero()),
        (WeylElement.zero(), -1, UniPoly.zero(), UniPoly.zero()),
    ],
    ids=["airy", "euler", "pure_coordinate", "zero"],
)
def test_order_and_top_slices(e, order, leading, subleading):
    assert e.order == order
    assert e.d_slice(order) == leading
    assert e.d_slice(order - 1) == subleading


def test_scalar_mixing_and_division():
    e = (x * d + 1) / 2
    assert 2 * e == x * d + 1
    assert e - e == WeylElement.zero()


def test_poly_at_evaluates_operators():
    q = UniPoly((1, 0, 1))  # t^2 + 1
    assert poly_at(q, d) == d**2 + 1
    assert poly_at(UniPoly.zero(), x) == WeylElement.zero()


def test_poly_at_with_rational_coefficients_matches_the_power_sum():
    rng = random.Random(47)
    for _ in range(30):
        p = UniPoly([Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))])
        value = rand_element(rng, max_terms=3, max_exp=2, max_num=9, max_den=5, side=rng.choice(("x", "z")))
        expected = WeylElement.zero(value.side)
        for i in range(p.degree + 1):
            power = WeylElement.one(value.side)
            for _ in range(i):
                power = power * value
            expected = expected + p.coeff(i) * power
        assert poly_at(p, value) == expected, (p, value)


def test_powers_match_repeated_oracle_products():
    rng = random.Random(43)
    bases = [WeylElement.zero(), WeylElement.zero("z")]
    bases += [WeylElement.scalar(Fraction(-2, 3)), WeylElement.scalar(5, "z")]
    bases += [
        rand_element(rng, max_terms=3, max_exp=2, max_num=9, max_den=7, side=rng.choice(("x", "z")))
        for _ in range(12)
    ]
    for base in bases:
        for k in range(7):
            assert base**k == WeylElement(_slow_power(base.terms, k), base.side), (base, k)


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


def test_commutator_matches_two_product_oracle():
    # denominators up to 100; the bracket must equal a*b - b*a expanded apart
    rng = random.Random(53)
    for _ in range(40):
        a = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=5, max_exp=4, max_num=100, max_den=100)
        assert commutator(a, b) == slow_commutator(a, b)
        assert commutator(b, a) == slow_commutator(b, a)


def test_commutator_with_zero_or_constant_operand():
    a = rand_element(random.Random(7), max_terms=5, max_exp=4, max_num=100, max_den=100)
    for c in (WeylElement.zero(), WeylElement.scalar(Fraction(-7, 3))):
        assert commutator(a, c) == slow_commutator(a, c) == WeylElement.zero()
        assert commutator(c, a) == slow_commutator(c, a) == WeylElement.zero()


def test_products_and_brackets_match_oracles_to_exponent_ten():
    # every contraction order up to 10 is reached, on up to 8 terms a side
    rng = random.Random(211)
    for _ in range(40):
        a = rand_element(rng, max_terms=8, max_exp=10, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=8, max_exp=10, max_num=100, max_den=100)
        ab, ba = a * b, b * a
        assert ab == slow_product(a, b)
        assert ba == slow_product(b, a)
        assert commutator(a, b) == slow_commutator(a, b) == ab - ba
        assert commutator(b, a) == slow_commutator(b, a) == ba - ab


def test_exchange_weights_over_a_long_recurrence():
    # D^n x^n = sum_t t! C(n, t)^2 x^(n-t) D^(n-t): 301 contraction orders,
    # each weight checked against one built from scratch
    n = 300
    swap = {(n - t, n - t): factorial(t) * comb(n, t) ** 2 for t in range(n + 1)}
    xn, dn = x**n, d**n
    assert apply_generator(Fourier(), xn * dn) == WeylElement({k: (-1) ** n * w for k, w in swap.items()})
    assert dn * xn == WeylElement(swap)
    del swap[(n, n)]
    assert commutator(dn, xn) == WeylElement(swap)


def _monomial(c, i, j):
    return WeylElement({(i, j): c})


@pytest.mark.parametrize(
    "a, b",
    [
        (_monomial(1, 9, 2), _monomial(1, 3, 9)),
        (_monomial(Fraction(-5, 7), 0, 10), _monomial(Fraction(3, 4), 10, 0)),
        (_monomial(2, 10, 10), _monomial(Fraction(1, 3), 10, 10)),
        (_monomial(1, 1, 10), _monomial(1, 10, 1)),
        (_monomial(1, 10, 3) + _monomial(Fraction(1, 9), 0, 7), _monomial(-4, 8, 0) + _monomial(1, 2, 10)),
    ],
)
def test_sparse_high_contraction_pairs_match_oracle(a, b):
    for left, right in ((a, b), (b, a)):
        assert left * right == slow_product(left, right)
        assert commutator(left, right) == slow_commutator(left, right) == left * right - right * left


def test_products_and_brackets_with_zero_or_constant_operands():
    a = rand_element(random.Random(29), max_terms=8, max_exp=10, max_num=100, max_den=100)
    zero = WeylElement.zero()
    assert a * zero == zero * a == zero * zero == zero
    assert commutator(zero, zero) == zero
    for c in (WeylElement.scalar(Fraction(-7, 3)), WeylElement.one()):
        assert a * c == c * a == slow_product(a, c) == a * c.constant_value()
        assert c * c == slow_product(c, c)
        assert commutator(c, c) == commutator(a, c) == commutator(c, a) == zero


# The product and the bracket add into a list over the packed key rectangle
# when it has no more slots than the call makes term products, and into a
# dict otherwise.  The pairs below sit on both sides of that choice and on
# its edge; the count and the rectangle are recomputed here from the terms.

ACCUMULATOR_SIDES = ("below", "equal", "one_above", "above")


def _term_products(left, right, low):
    """Term products of ``left * right`` at the orders ``t >= low``: terms
    ``x^i D^j`` of ``left`` and ``x^k D^l`` of ``right`` meet at the orders
    ``low <= t <= min(j, k)``."""
    return sum(max(min(j, k) + 1 - low, 0) for _, j in left.nums for k, _ in right.nums)


def _grid_operand(rng):
    """Zero or a scalar (1 in 20 each), else distinct monomials drawn from a
    corner of the grid ``x^0..4 D^0..4``, with coefficients p/q, 1 <= |p|,
    q <= 100."""
    r = rng.random()
    if r < 0.05:
        return WeylElement.zero()
    if r < 0.1:
        return WeylElement.scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    grid = [(i, j) for i in range(rng.randint(1, 5)) for j in range(rng.randint(1, 5))]
    keys = rng.sample(grid, rng.randint(1, len(grid)))
    return WeylElement({k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 100), rng.randint(1, 100)) for k in keys})


def _accumulator_pairs():
    """Seeded pairs by ``(kind, side)``: the rectangle below the term product
    count of the product or the bracket, equal to it, one slot above it or
    further above.  Up to four pairs a class, and every pair with a constant
    operand."""
    rng = random.Random(2027)
    picked = {}
    for _ in range(200):
        a, b = _grid_operand(rng), _grid_operand(rng)
        rectangle = (a.x_degree + b.x_degree + 1) * (a.order + b.order + 1)
        counts = (("product", _term_products(a, b, 0)), ("bracket", _term_products(a, b, 1) + _term_products(b, a, 1)))
        for kind, work in counts:
            side = ACCUMULATOR_SIDES[min(max(rectangle - work, -1), 2) + 1]
            cases = picked.setdefault((kind, side), [])
            if len(cases) < 4 or a.is_constant() or b.is_constant():
                cases.append((a, b))
    return picked


def test_products_and_brackets_on_both_sides_of_the_list_choice():
    picked = _accumulator_pairs()
    assert set(picked) == {(kind, side) for kind in ("product", "bracket") for side in ACCUMULATOR_SIDES}
    constants = {c for pairs in picked.values() for pair in pairs for c in pair if c.is_constant()}
    assert WeylElement.zero() in constants and any(not c.is_zero() for c in constants)
    for (kind, _), pairs in picked.items():
        for a, b in pairs:
            if kind == "product":
                assert a * b == slow_product(a, b), (a, b)
                assert b * a == slow_product(b, a), (b, a)
            else:
                assert commutator(a, b) == slow_commutator(a, b), (a, b)


def test_products_and_brackets_on_both_sides_of_the_list_choice_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.holonomic import DifferentialOperators

    ring, _ = DifferentialOperators(sympy.QQ.old_poly_ring(sympy.Symbol("x")), "Dx")
    for (kind, _), pairs in _accumulator_pairs().items():
        for a, b in pairs:
            sa, sb = _to_sympy(a, ring, sympy), _to_sympy(b, ring, sympy)
            if kind == "product":
                assert a * b == _from_sympy(sa * sb, ring, sympy), (a, b)
            else:
                assert commutator(a, b) == _from_sympy(sa * sb - sb * sa, ring, sympy), (a, b)


def _peak_bytes(run):
    """The traced memory peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_deep_product_stays_off_the_rectangle():
    # D^4096 * x^4096 makes 4097 term products over a rectangle of 4097^2
    # slots, whose list alone would take 134 MB; the dict result takes ~15 MB
    n = 4096
    dn, xn = d**n, x**n
    out = []
    assert _peak_bytes(lambda: out.append(dn * xn)) < 32 * 10**6
    (product,) = out
    assert len(product.nums) == n + 1 and product.den == 1
    assert product.nums[(n, n)] == 1 and product.nums[(0, 0)] == factorial(n)


def test_deep_product_with_shallow_terms_stays_off_the_rectangle():
    # 47 terms a side, but only D^2048 and x^2048 meet past t = 0: 47^2 + 2048
    # term products over a rectangle of 2094^2 slots (a 35 MB list).  A count
    # of len * len * orders, 4.5 million, would have taken the list.
    n, k = 2048, 46
    shallow_x = WeylElement({(i, 0): i + 1 for i in range(k)})
    shallow_d = WeylElement({(0, j): j + 1 for j in range(k)})
    a, b = d**n + shallow_x, x**n + shallow_d
    out = []
    assert _peak_bytes(lambda: out.append(a * b)) < 16 * 10**6
    assert out[0] == d**n * x**n + d**n * shallow_d + shallow_x * x**n + shallow_x * shallow_d


# Metamorphic checks at exponents up to the 4096 cap.  A large derivative
# exponent on the left never meets a large coordinate exponent on the right,
# so every product takes at most the contraction orders t <= 3.


def _sparse(rng, xs, ds, max_terms=4):
    """A seeded element of up to ``max_terms`` terms x^i D^j, i in ``xs`` and
    j in ``ds``, with coefficients p/q, |p| <= 100, 1 <= q <= 100."""
    return WeylElement(
        [
            ((rng.choice(xs), rng.choice(ds)), Fraction(rng.randint(-100, 100), rng.randint(1, 100)))
            for _ in range(rng.randint(1, max_terms))
        ]
    )


BIG, SMALL = range(4097), range(4)


def test_anti_involution_reverses_products_at_high_exponents():
    rng = random.Random(4096)
    for _ in range(50):
        a, b = _sparse(rng, BIG, SMALL), _sparse(rng, SMALL, BIG)
        assert anti_involution(a * b) == anti_involution(b) * anti_involution(a)


def test_brackets_are_antisymmetric_differences_at_high_exponents():
    rng = random.Random(4097)
    for _ in range(50):
        c, e = _sparse(rng, BIG, SMALL), _sparse(rng, BIG, SMALL)
        assert commutator(c, e) == c * e - e * c == -commutator(e, c)
        assert anti_involution(commutator(c, e)) == commutator(anti_involution(e), anti_involution(c))


def test_fourier_swap_commutes_with_products_and_brackets():
    rng = random.Random(40)
    swap = Fourier()
    for _ in range(40):
        a, b = _sparse(rng, range(41), range(41), 2), _sparse(rng, range(41), range(41), 2)
        fa, fb = apply_generator(swap, a), apply_generator(swap, b)
        assert apply_generator(swap, a * b) == fa * fb
        assert apply_generator(swap, commutator(a, b)) == commutator(fa, fb)


def test_zero_and_constant_operands_at_high_exponents():
    rng = random.Random(0)
    for side in ("x", "z"):
        zero = WeylElement.zero(side)
        for _ in range(30):
            a = _sparse(rng, BIG, SMALL) if rng.random() < 0.5 else _sparse(rng, SMALL, BIG)
            if side == "z":
                a = anti_involution(a)
            c = WeylElement.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), side)
            assert a * zero == zero * a == zero * c == c * zero == zero * zero == zero
            assert a * c == c * a == a * c.constant_value()
            assert commutator(a, zero) == commutator(zero, a) == commutator(a, c) == zero
            assert commutator(zero, zero) == commutator(c, zero) == commutator(c, c) == zero


def test_products_match_sympy_to_exponent_ten():
    sympy = pytest.importorskip("sympy")
    from sympy.holonomic import DifferentialOperators

    ring, _ = DifferentialOperators(sympy.QQ.old_poly_ring(sympy.Symbol("x")), "Dx")
    rng = random.Random(223)
    for _ in range(10):
        a = rand_element(rng, max_terms=8, max_exp=10, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=8, max_exp=10, max_num=100, max_den=100)
        expected = _to_sympy(a, ring, sympy) * _to_sympy(b, ring, sympy)
        assert a * b == _from_sympy(expected, ring, sympy)


def test_commutator_side_mismatch():
    z, dz = generators("z")
    with pytest.raises(SideMismatchError):
        commutator(x, z)
    with pytest.raises(SideMismatchError):
        commutator(dz, d)


def _assert_canonical(e):
    assert e.den >= 1
    assert all(n != 0 for n in e.nums.values())
    assert gcd(e.den, *e.nums.values()) == 1
    assert e.terms.keys() == e.nums.keys()
    for k, n in e.nums.items():
        assert e.terms[k] == Fraction(n, e.den)


def test_operation_results_are_canonical():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_element(rng, max_terms=5, max_exp=3, max_num=100, max_den=100)
        b = rand_element(rng, max_terms=5, max_exp=3, max_num=100, max_den=100)
        s = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        results = [a + b, a - b, -a, a * b, a * s, s * a, a * 6, a / 4]
        if s:
            results.append(a / s)
        results.append(commutator(a, b))
        # built without _settle: swapping keys keeps the pair canonical
        results += [anti_involution(a), anti_involution(anti_involution(a)), anti_involution(a - a)]
        r = UniPoly([0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3)])
        for gen in (ShiftX(r), ShiftD(r), Fourier(), FourierInverse()):
            results.append(apply_generator(gen, a))
        for e in results:
            _assert_canonical(e)


def test_cancelling_results_reduce_the_denominator():
    half = WeylElement({(1, 1): Fraction(1, 2)})
    assert (half + half).den == 1
    assert (half + half) == x * d
    _assert_canonical(half + half)
    assert ((x * d) / 6 * 3).den == 2
    zero = half - half
    assert zero.den == 1 and not zero.nums
    _assert_canonical(zero)


def test_equal_values_have_equal_pairs_and_hashes():
    rng = random.Random(23)
    a, b, c = (rand_element(rng, max_terms=4, max_exp=3, max_num=100, max_den=100) for _ in range(3))
    cases = [
        (WeylElement({(2, 1): Fraction(2, 4)}), WeylElement({(2, 1): Fraction(1, 2)})),
        ((a * b) * c, a * (b * c)),
        (a - a, WeylElement.zero()),
    ]
    for left, right in cases:
        assert left == right
        assert (left.den, left.nums) == (right.den, right.nums)
        assert hash(left) == hash(right)


def test_division_by_zero_and_scaling_by_zero():
    e = x * d + Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        e / 0
    with pytest.raises(ZeroDivisionError):
        e / Fraction(0)
    for zero in (e * 0, 0 * e, e * Fraction(0)):
        assert zero.is_zero()
        assert zero.den == 1 and not zero.nums
        assert zero == WeylElement.zero()


@pytest.mark.parametrize("divisor", ["3", 0.5, None, x, UniPoly((2,))])
def test_division_by_a_non_number_is_a_type_error(divisor):
    for dividend in (x * d + 1, UniPoly((1, 2))):
        with pytest.raises(TypeError):
            dividend / divisor
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                dividend / zero


def test_structural_queries_read_the_pair():
    e = commutator(x**3 * d / 2, d**2 + x / 3)
    f = commutator(x**3 * d / 2, d**2 + x / 3)
    assert e == f and hash(e) == hash(f)
    assert not e.is_zero() and not e.is_constant()
    assert (e.order, e.x_degree) == (2, 3)
    assert e._terms is None and f._terms is None
    assert e.terms[(3, 0)] == Fraction(1, 6)


def test_shape_and_slices_match_a_scan_of_the_keys():
    rng = random.Random(37)
    elements = [WeylElement.zero(), WeylElement.scalar(3)]
    elements += [rand_element(rng, max_terms=8, max_exp=10) for _ in range(40)]
    for e in elements:
        assert e.x_degree == max((i for i, _ in e.nums), default=-1)
        assert e.order == max((j for _, j in e.nums), default=-1)
        assert e.is_constant() == all(k == (0, 0) for k in e.nums)
        assert e.depends_on_x() == any(i > 0 for i, _ in e.nums)
        assert e.depends_on_d() == any(j > 0 for _, j in e.nums)
        for k in range(-1, 12):
            d_slice = [e.terms.get((i, k), 0) for i in range(11)]
            x_slice = [e.terms.get((k, j), 0) for j in range(11)]
            while d_slice and not d_slice[-1]:
                d_slice.pop()
            while x_slice and not x_slice[-1]:
                x_slice.pop()
            for p, ref in ((e.d_slice(k), d_slice), (e.x_slice(k), x_slice)):
                assert [p.coeff(i) for i in range(p.degree + 1)] == (ref if k >= 0 else [])


def test_terms_view_of_computed_results_is_read_only():
    for e in (commutator(x**2, d), (x * d + 1) / 3, -d):
        with pytest.raises(TypeError):
            e.terms[(5, 5)] = Fraction(1)
        assert e.terms is e.terms


def test_constructor_merges_repeated_keys_to_the_canonical_pair():
    third = Fraction(1, 3)
    cases = [
        # repeated keys, one pair cancelling to zero
        ([((1, 0), third), ((0, 2), 2), ((1, 0), Fraction(1, 6)), ((3, 3), 5), ((3, 3), -5)],
         {(1, 0): Fraction(1, 2), (0, 2): Fraction(2)}),
        # zero coefficients, and int, Fraction and str coefficients
        ({(0, 0): 0, (2, 1): "3/4", (1, 1): 6, (0, 1): Fraction(-5, 10), (4, 0): "0"},
         {(2, 1): Fraction(3, 4), (1, 1): Fraction(6), (0, 1): Fraction(-1, 2)}),
        ([((2, 2), "1/4"), ((2, 2), "-1/4")], {}),
        ([((0, 0), Fraction(1, 6)), ((0, 0), Fraction(1, 3)), ((1, 1), "-2/6")],
         {(0, 0): Fraction(1, 2), (1, 1): Fraction(-1, 3)}),
    ]
    for terms, expected in cases:
        for side in ("x", "z"):
            e = WeylElement(terms, side)
            reference = WeylElement(expected, side)
            _assert_canonical(e)
            assert (e.side, e.den, e.nums) == (reference.side, reference.den, reference.nums)
            assert dict(e.terms) == expected


def test_constructor_rejects_binary_floats():
    # a float would be stored as its exact binary value, 0.1 as 3602879701896397/2^55
    for terms in ({(0, 1): 0.1}, [((0, 0), 1), ((1, 0), 2.0)]):
        with pytest.raises(TypeError, match="float"):
            WeylElement(terms)
    with pytest.raises(TypeError):
        WeylElement.scalar(0.5, "z")
    with pytest.raises(TypeError):
        x * 0.5


@pytest.mark.parametrize(
    "terms, side",
    [
        ({(0, 0): 1}, "y"),
        ({(0, 0): 1}, "D"),
        ({(-1, 0): 1}, "x"),
        ([((0, -2), 1)], "z"),
        ({(1.0, 0): 1}, "x"),
        ([((0, Fraction(1)), 1)], "x"),
        ([(("1", 0), 1)], "x"),
        ({(True, 0): 2}, "x"),
        ({(0, False): 2}, "x"),
        ({(True, True): 1}, "z"),
    ],
)
def test_constructor_rejects_bad_side_and_exponents(terms, side):
    with pytest.raises(ValueError):
        WeylElement(terms, side)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: x.constant_value(), "not constant"),
        (lambda: x**-1, "nonnegative integer"),
        (lambda: ad_nilpotency_test(d, x, -1), "cap must be positive"),
    ],
    ids=["constant-value", "negative-power", "negative-ad-steps"],
)
def test_operation_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
