"""Exact rational scalars and combinatorial primitives.

Everything in this package is computed over the rationals with zero
tolerance; the ground scalar is :class:`fractions.Fraction`, which is
arbitrary precision and canonical (reduced, positive denominator) after
every operation.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import factorial, gcd, lcm

Rational = Fraction

_RATIONAL = re.compile(r"[-+]?(?:\d+\s*/\s*\d+|\d+(?:\.\d*)?|\.\d+)", re.ASCII)
_INTEGER = re.compile(r"[-+]?\d+", re.ASCII)

__all__ = [
    "Rational",
    "PartsMismatch",
    "exact_rational",
    "parse_rational",
    "parse_integer",
    "format_rational",
    "format_over",
    "over_common_denominator",
    "multinomial",
]


class PartsMismatch(ValueError):
    """Raised when multinomial parts do not sum to the declared total."""


def exact_rational(value, name: str) -> Rational:
    """``value`` as a Fraction; a Fraction is returned as it is.  A float or
    bool raises ValueError, since it would carry round-off (or a truth
    value) into exact results."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"{name} must be an exact rational, got {value!r}")
    return Fraction(value)


def parse_rational(text: str) -> Rational:
    """Parse a rational from its canonical "num/den" string form.

    The denominator part is optional ("672" and "672/1" are the same value),
    plain decimals ("1.25") are accepted, digits are ASCII, and whitespace
    around the string and around "/" is ignored.  Any other string ("1.d")
    raises ValueError in one text on every Python; so do a zero denominator,
    exponent notation ("1e3"), whose exact value can be far too large to
    build, and an underscore ("1_0"), which ``Fraction`` reads only from 3.11.
    """
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted in {text!r}")
    if "_" in text:
        raise ValueError(f"digit-group underscores are not accepted in {text!r}")
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    try:  # Fraction reads spaces around "/" only from Python 3.11 on
        return Fraction("".join(text.split()))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_integer(text: str) -> int:
    """Parse an int: ASCII digits with an optional sign, whitespace around
    the string ignored, as ``parse_rational`` reads its digits.  Any other
    string raises ValueError in one text on every Python, also the ones
    ``int`` reads: an underscore ("1_0", 10) and non-ASCII digits ("\u0662", 2).
    """
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def format_rational(value: Rational) -> str:
    """Serialize a rational as "num/den", omitting "/1" denominators.

    An int is accepted; a float or bool raises ValueError, as at every
    other entry point.  Every value is printed exactly, also one with more
    digits than ``sys.get_int_max_str_digits()`` lets ``str`` print.
    """
    value = exact_rational(value, "value")
    return format_over(value.numerator, value.denominator)


def format_over(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for a den > 0, with no Fraction."""
    if den != 1 and (g := gcd(num, den)) != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past that limit; Decimal(k) prints the same digits
        num, den = (str(Decimal(k)) for k in (num, den))
        return num if den == "1" else f"{num}/{den}"


def over_common_denominator(values) -> tuple:
    """(numerators, den) with value i equal to numerators[i] / den.

    ``den`` is the lcm of the denominators (1 for no values), so a sum of
    products of such values is one integer sum over one denominator.
    """
    values = list(values)
    den = lcm(*(value.denominator for value in values))
    return [value.numerator * (den // value.denominator) for value in values], den


def multinomial(total: int, parts) -> Rational:
    """Multinomial coefficient total! / prod(part!).

    The parts must be nonnegative and sum to ``total``.
    """
    parts = list(parts)
    if any(part < 0 for part in parts):
        raise PartsMismatch(f"negative part in {parts}")
    if sum(parts) != total:
        raise PartsMismatch(f"parts {parts} do not sum to {total}")
    result = factorial(total)
    for part in parts:
        result //= factorial(part)
    return Fraction(result)
