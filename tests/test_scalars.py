import re
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rahman.scalars import (
    PartsMismatch,
    format_rational,
    multinomial,
    over_common_denominator,
    parse_integer,
    parse_rational,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_multinomial_examples():
    assert multinomial(2, [1, 1, 0]) == 2
    assert multinomial(0, [0, 0, 0]) == 1
    assert multinomial(4, [2, 1, 1]) == 12


def test_multinomial_mismatch():
    with pytest.raises(PartsMismatch):
        multinomial(3, [1, 1, 0])
    with pytest.raises(PartsMismatch):
        multinomial(0, [1, -1, 0])


@given(st.integers(0, 12), st.integers(0, 12))
def test_multinomial_times_factorials(r, s):
    n = r + s
    t = 0
    total = n + t
    assert multinomial(total, [r, s, t]) * factorial(r) * factorial(s) * factorial(t) == factorial(total)


@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_string_forms():
    assert format_rational(Fraction(-1, 11)) == "-1/11"
    assert format_rational(Fraction(672)) == "672"
    assert format_rational(672) == "672"
    assert format_rational(-3) == "-3"
    assert parse_rational(" 672 ") == 672
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational_refuses_a_float_or_bool():
    for value in (0.5, 2.0, True):
        with pytest.raises(ValueError, match="exact rational"):
            format_rational(value)


def test_rational_refuses_exponent_notation():
    for text in ("1e3", "2E-1", "1e3000000", " 5e0 "):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    assert parse_rational("1.25") == Fraction(5, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("-0.5") == Fraction(-1, 2)


def test_rational_refuses_digit_group_underscores():
    """Fraction reads "1_0" as 10 from Python 3.11 on, and refuses it on
    3.10; parse_rational refuses it on both, with one message."""
    for text in ("1_0", "1_000/3", "-0.2_5", " 7/1_1 "):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert str(err.value) == f"digit-group underscores are not accepted in {text.strip()!r}"


def test_integer_string_forms():
    assert [parse_integer(text) for text in ("12", " -3 ", "+007", "0")] == [12, -3, 7, 0]


@pytest.mark.parametrize("text", ["1_0", "\u0662", "\u0661\u0663", "1.0", "2/1", "", "+", "1 2"])
def test_an_integer_is_ascii_digits_with_an_optional_sign(text):
    """``int`` reads "1_0" as 10 and the Arabic-Indic digits as 2 and 13;
    parse_integer refuses them, as parse_rational does, in one text."""
    with pytest.raises(ValueError) as err:
        parse_integer(text)
    assert str(err.value) == f"not an integer: {text!r}"


def test_format_rational_prints_past_the_str_digit_limit():
    """Numerator and denominator each have more than the 4300 digits
    str(int) prints by default; both are printed exactly."""
    num, den = -(7**6000), 11**4500
    head, _, tail = format_rational(Fraction(num, den)).partition("/")
    assert (int(Decimal(head)), int(Decimal(tail))) == (num, den)
    assert int(Decimal(format_rational(num))) == num



@given(st.lists(rationals | st.integers(-50, 50), max_size=8))
def test_over_common_denominator(values):
    numerators, den = over_common_denominator(values)
    assert [Fraction(k, den) for k in numerators] == values
    assert all(type(k) is int for k in numerators)
    assert all(den % Fraction(v).denominator == 0 for v in values)


def test_over_common_denominator_uses_the_lcm():
    assert over_common_denominator([Fraction(1, 4), Fraction(-5, 6), 2]) == ([3, -10, 24], 12)
    assert over_common_denominator([]) == ([], 1)


@given(st.text(alphabet="0129+-./ \td", max_size=8))
@settings(max_examples=500)
def test_rational_reads_what_fraction_reads(text):
    """On ASCII text with no exponent or underscore, parse_rational accepts
    exactly the strings Fraction accepts from Python 3.11 on, spaces
    around "/" included, with the same value."""
    try:
        expected = Fraction(re.sub(r"\s*/\s*", "/", text))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


def test_rational_refuses_what_is_not_an_ascii_rational():
    """Fraction's text for "1.d" differs between Pythons, and it reads
    non-ASCII digits; parse_rational refuses both with one message."""
    for text in ("1.d", " 1.d ", "\u0661", "\u0663/\u0664", "1/2/3", ".", "--1"):
        with pytest.raises(ValueError) as err:
            parse_rational(text)
        assert str(err.value) == f"not a rational number: {text.strip()!r}"
    assert parse_rational(" 3 / 4 ") == parse_rational("3\t/4") == Fraction(3, 4)
