"""Expression grammar and canonical printing."""

import pytest
from hypothesis import given

from weylnil import ParseError, WeylElement, format_element, generators, parse_expression
from weylnil.exprs import MAX_NESTING
from weylnil.element import coordinate, derivative

from conftest import weyl_elements

x, d = generators()


def test_parse_airy():
    assert parse_expression("D^2 - x") == d**2 - x


def test_parse_noncommutative_product():
    assert parse_expression("D*x") == x * d + 1


def test_parse_square():
    assert parse_expression("(D - x^2)^2") == d**2 - 2 * x**2 * d + x**4 - 2 * x


def test_parse_rational_literal():
    assert parse_expression("1/3 * x^2 - 2") == x**2 / 3 - 2


def test_parse_unary_minus():
    assert parse_expression("-x + 1") == 1 - x
    assert parse_expression("-2*D") == -2 * d


def test_parse_z_side():
    assert parse_expression("Dz^2 - z") == derivative("z") ** 2 - coordinate("z")


def test_parse_mixed_sides_rejected():
    with pytest.raises(ParseError):
        parse_expression("x + z")


def test_parse_unknown_symbol():
    with pytest.raises(ParseError) as info:
        parse_expression("D + y")
    assert info.value.position == 4


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse_expression("D^2 - ")
    assert info.value.position == 6  # offset of the missing operand


def test_parse_exponent_overflow():
    with pytest.raises(ParseError):
        parse_expression("x^100000")


def test_parse_fraction_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("x^1/2")


def test_parse_zero_denominator():
    with pytest.raises(ParseError):
        parse_expression("1/0")


def test_parse_juxtaposition_is_not_product():
    with pytest.raises(ParseError):
        parse_expression("2 x")


def test_format_zero():
    assert format_element(WeylElement.zero()) == "0"


def test_format_euler_plus_one():
    assert format_element(x * d + 1) == "x*D + 1"


def test_format_z_side():
    e = derivative("z") ** 2 - coordinate("z")
    assert format_element(e) == "Dz^2 - z"


def test_format_rational_and_signs():
    e = -x / 2 + d**3 - 3
    assert format_element(e) == "D^3 - 1/2*x - 3"


@given(e=weyl_elements(max_terms=6, max_exp=5))
def test_parse_format_round_trip(e):
    assert parse_expression(format_element(e)) == e


@given(e=weyl_elements(max_terms=6, max_exp=5, side="z"))
def test_parse_format_round_trip_z(e):
    # constants carry no side marker in the grammar, so they parse x-side
    if e.is_constant():
        assert parse_expression(format_element(e)) == WeylElement(e.terms, "x")
    else:
        assert parse_expression(format_element(e)) == e


def test_parse_nesting_limit():
    assert parse_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == x
    with pytest.raises(ParseError) as info:
        parse_expression("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))
    assert info.value.position == MAX_NESTING


def test_parse_symbol_powers_are_monomials():
    assert parse_expression("D^7") == d**7
    assert parse_expression("x^0") == WeylElement.one()
    assert parse_expression("x^4096") == WeylElement({(4096, 0): 1})
    assert parse_expression("Dz^3 * z") == WeylElement({(1, 3): 1, (0, 2): 3}, "z")
    assert parse_expression("(x + D)^2") == x**2 + 2 * x * d + d**2 + 1


def test_parse_long_sum_collects_terms():
    text = " + ".join(f"{k}*x^{k}*D" for k in range(1, 2001)) + " - 1000*x^1000*D"
    expected = WeylElement({(k, 1): k for k in range(1, 2001) if k != 1000})
    assert parse_expression(text) == expected
    assert parse_expression("x - x") == WeylElement.zero()
