"""Expression grammar and canonical printing."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnil import ParseError, WeylElement, generators, parse_expression
from weylnil.exprs import MAX_NESTING
from weylnil.element import coordinate, derivative

from conftest import weyl_elements
from oracles import slow_product

x, d = generators()

# 149 printed terms; a term appended to it is the 150th
_LONG = " + ".join(f"{k}/7*x^{k}*D" for k in range(1, 150))


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
    assert str(WeylElement.zero()) == "0"


def test_format_euler_plus_one():
    assert str(x * d + 1) == "x*D + 1"


def test_format_z_side():
    e = derivative("z") ** 2 - coordinate("z")
    assert str(e) == "Dz^2 - z"


def test_format_rational_and_signs():
    e = -x / 2 + d**3 - 3
    assert str(e) == "D^3 - 1/2*x - 3"


@pytest.mark.parametrize(
    "terms, side, text",
    [
        ({}, "z", "0"),
        ({(0, 0): 1}, "x", "1"),
        ({(0, 0): -1}, "x", "-1"),
        ({(0, 1): -1, (1, 0): 1, (0, 0): -1}, "x", "-D + x - 1"),
        ({(1, 1): 1, (0, 2): -1, (3, 0): -1}, "x", "-D^2 + x*D - x^3"),
        ({(2, 3): Fraction(-3, 2), (1, 0): Fraction(1, 2), (0, 0): 7}, "x", "-3/2*x^2*D^3 + 1/2*x + 7"),
        ({(0, 0): Fraction(-2, 9)}, "x", "-2/9"),
        ({(1, 2): -1, (3, 0): Fraction(2, 5), (0, 1): 1, (0, 0): -1}, "z", "-z*Dz^2 + Dz + 2/5*z^3 - 1"),
    ],
)
def test_print_golden(terms, side, text):
    assert str(WeylElement(terms, side)) == text


@given(e=weyl_elements(max_terms=6, max_exp=5))
def test_parse_format_round_trip(e):
    assert parse_expression(str(e)) == e


@given(e=weyl_elements(max_terms=6, max_exp=5, side="z"))
def test_parse_format_round_trip_z(e):
    # constants carry no side marker in the grammar, so they parse x-side
    if e.is_constant():
        assert parse_expression(str(e)) == WeylElement(e.terms, "x")
    else:
        assert parse_expression(str(e)) == e


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


@pytest.mark.parametrize(
    "text, expected",
    [
        ("D*x", x * d + 1),
        ("D^2*x*3/7*D", (x * d**3 + 2 * d**2) * Fraction(3, 7)),
        ("2*x*1/2", x),
        ("0*x + D", d),
        ("x^0*D^0*3", WeylElement.scalar(3)),
        ("2^3*x", 8 * x),
        ("(1/2)^2*D", d / 4),
        ("3/7^2*D", d * Fraction(9, 49)),
        ("-D*x*D", -(x * d**2) - d),
        ("x*D^0*x", x**2),
        ("D*x + (x^2 - 3/2*D)^2", x * d + 1 + (x**2 - Fraction(3, 2) * d) ** 2),
        ("( + x)", x),
        ("x + x - 2*x", WeylElement.zero()),
    ],
)
def test_parse_product_terms(text, expected):
    assert parse_expression(text) == expected


@st.composite
def factors(draw):
    """A factor's text and the element it stands for."""
    kind = draw(st.sampled_from(["number", "x", "D", "group"]))
    if kind == "number":
        value = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 9)))
        text = f"{value.numerator}/{value.denominator}"
        if value.denominator == 1 and draw(st.booleans()):
            text = str(value.numerator)
        base = WeylElement.scalar(value)
    elif kind == "group":
        base = draw(weyl_elements(max_terms=3, max_exp=2))
        text = f"({str(base)})"
    else:
        text, base = kind, x if kind == "x" else d
    power = 1
    if draw(st.booleans()):
        power = draw(st.integers(0, 2 if kind == "group" else 4))
        text += f"^{power}"
    value = WeylElement.one()
    for _ in range(power):
        value = slow_product(value, base)
    return text, value


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(factors(), min_size=1, max_size=6))
def test_parse_product_matches_product_of_factors(parts):
    expected = WeylElement.one()
    for text, value in parts:
        assert parse_expression(text) == value
        expected = slow_product(expected, value)
    assert parse_expression("*".join(text for text, _ in parts)) == expected


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("x + $", 4, "unexpected character '$'"),
        ("  x+D  @", 7, "unexpected character '@'"),
        ("x + y*$", 6, "unexpected character '$'"),
        ("D^2 *", 5, "unexpected end of input"),
        ("x*(D+)", 5, "unexpected ')'"),
        ("", 0, "unexpected end of input"),
        ("3*q^2", 2, "unknown symbol 'q'"),
        ("D*(x^2 + )", 9, "unexpected ')'"),
        ("1/0*x^9", 0, "zero denominator"),
        pytest.param("x^-1", 2, "exponent must be a nonnegative integer literal", id="negative-exponent"),
        ("x D", 2, "unexpected trailing 'D'"),
        ("x + + $", 6, "unexpected character '$'"),
        ("x + + y", 6, "unknown symbol 'y'"),
        pytest.param("x + + z", 0, "expression mixes x-side and z-side symbols", id="mixed-sides-after-plus"),
        ("1/2/3", 3, "unexpected character '/'"),
        ("Dzz", 0, "unknown symbol 'Dzz'"),
        ("x*Dz", 0, "expression mixes x-side and z-side symbols"),
        ("x^5000*D", 2, "exponent overflow"),
        ("3/0*x", 0, "zero denominator"),
        ("x + -D", 4, "unexpected '-'"),
        ("- - x", 2, "unexpected '-'"),
        ("(x + D", 6, "expected ')'"),
        ("x^2^3", 3, "unexpected trailing '^'"),
        ("(x)D", 3, "unexpected trailing 'D'"),
        ("D*x2", 3, "unexpected trailing '2'"),
        ("()", 1, "unexpected ')'"),
        pytest.param(
            _LONG + " + x^4097*D - 3", len(_LONG) + 5, "exponent overflow", id="long-level-exponent-overflow"
        ),
    ],
)
def test_parse_error_positions(text, position, message):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.position == position
    assert str(info.value).startswith(message)


def _spaced(text: str) -> str:
    return text.replace("*", " * ").replace("^", " ^ ")


@settings(max_examples=150, deadline=None)
@given(e=weyl_elements(max_terms=6, max_exp=5), side=st.sampled_from(["x", "z"]))
def test_spaced_and_grouped_forms_parse_alike(e, side):
    # spaces around every * and ^ make a level that is not printed, so the
    # factor loop reads it
    e = WeylElement(e.terms, side)
    text = str(e)
    expected = e if not e.is_constant() else WeylElement(e.terms, "x")
    assert parse_expression(_spaced(text)) == expected
    assert parse_expression("(" + text + ")") == expected
    assert parse_expression("(" + _spaced(text) + ")") == expected


def test_parse_time_is_linear_in_whitespace():
    started = time.perf_counter()
    assert parse_expression("x" + " " * 20000) == x
    with pytest.raises(ParseError) as info:
        parse_expression("x +" + " " * 20000)
    assert info.value.position == 20003
    assert parse_expression(" " * 20000 + "x*" + " " * 20000 + "D") == x * d
    assert parse_expression(" " * 2500 + "x*" + " " * 2500 + "D") == x * d
    # a digit run that no term match ends: each match attempt starts at the
    # run's first digit only
    with pytest.raises(ParseError) as info:
        parse_expression("x + " + "1" * 20000 + "^2")
    assert info.value.position == 4
    assert time.perf_counter() - started < 2


@pytest.mark.parametrize(
    "text, position",
    [
        ("1" * 5000 + "*x", 0),  # printed levels, refused by the sweep
        ("x + " + "1" * 5000 + "/3*D", 4),
        ("x + 3/" + "1" * 5000 + "*D", 4),
        (_LONG + " - " + "1" * 5000 + "*x*D^2 + x", len(_LONG) + 3),
        ("x^" + "1" * 5000, 2),  # factor loop
        ("D*x*" + "1" * 5000, 4),
        ("(" + "1" * 5000 + ")", 1),
    ],
    ids=[
        "printed-coefficient",
        "printed-numerator",
        "printed-denominator",
        "long-level-coefficient",
        "exponent",
        "factor",
        "group",
    ],
)
def test_long_literal_is_parse_error(text, position):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.position == position
    assert str(info.value).startswith("number literal too long")


_FUZZ_TOKENS = ["x", "D", "z", "Dz", "y", "0", "2", "3/4", "1/0", "+", "-", "*", "^", "(", ")",
                " ", " + ", " - ", "$", "/"]


def test_fuzzed_strings_raise_only_parse_errors():
    rng = random.Random(5)
    for _ in range(20000):
        tokens = []
        for _ in range(rng.randint(0, 12)):
            tok = rng.choice(_FUZZ_TOKENS)
            # no two number tokens in a row: that would make long exponents
            # and slow group powers
            if tokens and tok[0].isdigit() and tokens[-1][-1].isdigit():
                tok = "*"
            tokens.append(tok)
        text = "".join(tokens)
        try:
            parse_expression(text)
        except ParseError:
            pass
