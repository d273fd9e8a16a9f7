"""Exact rational scalars.

Rationals are plain :class:`fractions.Fraction` values: always reduced,
positive denominator, exact arithmetic.  This module adds the text format
used on every external surface ("p/q", or just "p" when the denominator
is 1) and a fixed-precision decimal renderer for CSV output.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

_RATIONAL_TEXT = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p" / "p/q" string to an exact Fraction.

    Floats are rejected on purpose: decimal inputs would smuggle rounding
    into hypotheses that must be decided exactly.  For the same reason,
    and because an exponent such as "1e100000000" would expand into a
    number too large to hold, text is only an optionally signed integer,
    optionally over a positive integer, with surrounding whitespace.
    """
    if isinstance(value, Fraction):
        return value  # immutable: no copy needed
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f"not an exact rational \"p\" or \"p/q\": {value!r}")
        num, den = match.groups()
        num, den = read_integer(num, value), read_integer(den or "1", value)
        if den == 0:
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(num, den)
    raise TypeError(f"not an exact rational: {value!r}")


def read_integer(digits: str, text: str | None = None) -> int:
    """int(digits) for an optionally signed digit string found in `text`
    (by default the digits themselves).

    Past the interpreter's limit on converting digit strings, the
    ValueError names the digit count and the first characters of text.
    """
    try:
        return int(digits)
    except ValueError:
        text = digits if text is None else text
        raise ValueError(
            f"integer of {len(digits.strip().lstrip('+-'))} digits in text starting "
            f"{text.strip()[:20]!r}; at most {sys.get_int_max_str_digits()} are read"
        ) from None


def integer_form(values) -> tuple:
    """(D, numerators): the least D > 0 making every D * v an integer, and
    the list of those integers.

    Zeros and integers are skipped where they cost a big-integer operation:
    a sparse polynomial of high degree has mostly zero coefficients.
    """
    den = 1
    for v in values:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) if v else 0 for v in values]


def reduced_form(den: int, nums) -> tuple:
    """(den, numerators) of the rationals n / den for den > 0, in lowest
    terms: both divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    return den // g, tuple(c // g for c in nums)


def format_rational(q: Fraction) -> str:
    q = as_rational(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # past str()'s limit on digits; Decimal renders any integer
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def sign(q) -> int:
    return (q > 0) - (q < 0)


def format_decimal(q: Fraction, digits: int) -> str:
    """Render q as a decimal string with `digits` fractional digits.

    Rounding is round-half-away-from-zero on the scaled integer; the
    rendering is deterministic and never passes through floats.
    """
    q = as_rational(q)
    return format_quotient(q.numerator, q.denominator, digits)


def format_quotient(num: int, den: int, digits: int) -> str:
    """`format_decimal` of num / den for integers num and den > 0.

    The pair need not be reduced: the floor of num * 10^digits / den and
    the half-up test 2 * rem >= den both read the same for (g num, g den).
    """
    neg = num < 0
    num = -num if neg else num
    scale = 10 ** digits
    scaled, rem = divmod(num * scale, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    try:
        body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    except ValueError:  # past str()'s limit on digits; Decimal renders any integer
        body = f"{Decimal(whole)}.{Decimal(frac):0{digits}}" if digits else str(Decimal(whole))
    return f"-{body}" if neg and scaled else body
