"""Exact rational scalars.

Rationals are plain :class:`fractions.Fraction` values: always reduced,
positive denominator, exact arithmetic.  This module adds the text format
used on every external surface ("p/q", or just "p" when the denominator
is 1) and a fixed-precision decimal renderer for CSV output.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: decimal inputs would smuggle rounding
    into hypotheses that must be decided exactly.
    """
    if isinstance(value, Fraction):
        return value  # immutable: no copy needed
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(q: Fraction) -> str:
    q = as_rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sign(q) -> int:
    return (q > 0) - (q < 0)


def format_decimal(q: Fraction, digits: int) -> str:
    """Render q as a decimal string with `digits` fractional digits.

    Rounding is round-half-away-from-zero on the scaled integer; the
    rendering is deterministic and never passes through floats.
    """
    q = as_rational(q)
    neg = q < 0
    q = -q if neg else q
    scale = 10 ** digits
    scaled, rem = divmod(q.numerator * scale, q.denominator)
    if 2 * rem >= q.denominator:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    body = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    return f"-{body}" if neg and scaled else body
