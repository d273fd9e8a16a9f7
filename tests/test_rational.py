from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernstein_forge import as_rational, format_decimal, format_rational
from bernstein_forge.rational import format_quotient


class TestRationalText:
    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)),
        (" -3/4 ", Fraction(-3, 4)),
        ("+6/4", Fraction(3, 2)),
        ("0/5", Fraction(0)),
    ])
    def test_accepted(self, text, value):
        assert as_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1/0", "1e5000", "1.5", "", "1/-2", "3/ 4", "1_000", "nan", "1/2/3",
    ])
    def test_refused(self, text):
        with pytest.raises(ValueError, match="rational|denominator"):
            as_rational(text)

    @pytest.mark.parametrize("text, digits", [
        ("1" + "0" * 4400, 4401), ("-3/" + "7" * 5000, 5000),
    ], ids=["numerator", "denominator"])
    def test_too_many_digits_named(self, text, digits):
        with pytest.raises(ValueError, match=f"integer of {digits} digits") as info:
            as_rational(text)
        assert repr(text[:20]) in str(info.value)


class TestLongIntegers:
    """Integers past the interpreter's 4300-digit str() limit still render."""

    def test_format_rational(self):
        big = 10 ** 5000 + 7
        assert format_rational(Fraction(big)) == "1" + "0" * 4999 + "7"
        assert format_rational(Fraction(-big, 3)) == "-1" + "0" * 4999 + "7/3"
        assert format_rational(Fraction(3, big)) == "3/1" + "0" * 4999 + "7"

    def test_format_decimal(self):
        assert format_decimal(Fraction(10 ** 5000 + 1, 2), 2) == "5" + "0" * 4999 + ".50"
        assert format_decimal(Fraction(-10 ** 5000), 0) == "-1" + "0" * 5000
        assert format_decimal(Fraction(1, 3), 5000) == "0." + "3" * 5000
        assert format_decimal(Fraction(-1, 10 ** 5000), 5000) == "-0." + "0" * 4999 + "1"


class TestFormatQuotient:
    @given(st.fractions(max_denominator=10**6), st.integers(1, 10**9), st.integers(0, 20))
    def test_unreduced_pair_renders_like_the_fraction(self, q, g, digits):
        assert format_quotient(g * q.numerator, g * q.denominator, digits) == format_decimal(q, digits)

    @pytest.mark.parametrize("num, den, text", [
        (5, 10, "0.5"), (-10, 20, "-0.5"), (1, 20, "0.1"), (-2, 40, "-0.1"), (-1, 40, "0.0"),
    ])
    def test_half_up_on_unreduced_pairs(self, num, den, text):
        assert format_quotient(num, den, 1) == text
