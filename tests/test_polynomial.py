from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_forge import MAX_DEGREE, DegreeTooLarge, NonExactDivision, Polynomial
from bernstein_forge.rational import integer_form, sign


def horner_free_eval(coeffs, x):
    """Independent term-by-term evaluation oracle (no Horner)."""
    x = Fraction(x)
    return sum(Fraction(c) * x**i for i, c in enumerate(coeffs))


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=7).map(Polynomial)


def reference_eval(p, x):
    """Horner's rule over Fractions: the reference for the integer kernel."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# Integers (negative too), small fractions, and denominators above 2^64.
wide_rationals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(Fraction),
    rationals,
    st.builds(
        Fraction,
        st.integers(min_value=-2**80, max_value=2**80),
        st.integers(min_value=2**64 + 1, max_value=2**72),
    ),
)
wide_polys = st.lists(wide_rationals, min_size=0, max_size=8).map(Polynomial)


class TestEval:
    def test_root_at_origin(self):
        p = Polynomial.from_sparse("1:1,3:-1")  # x - x^3
        assert p(0) == 0

    def test_signed_basis_element_vanishes_at_one(self):
        p = Polynomial.from_sparse("0:2,1:-3,3:1")
        assert p(1) == 0

    def test_degree_six_element_at_minus_one(self):
        p = Polynomial.from_sparse("0:5/56,1:-9/28,2:45/112,3:-5/28,6:1/112")
        coeffs = [Fraction(c) for c in ["5/56", "-9/28", "45/112", "-5/28", 0, 0, "1/112"]]
        expected = horner_free_eval(coeffs, -1)
        assert expected == 1
        assert p(-1) == expected

    @given(polys, polys, rationals)
    @settings(max_examples=30, deadline=None)
    def test_evaluation_is_additive(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)

    @given(polys, rationals)
    @settings(max_examples=30, deadline=None)
    def test_horner_matches_term_by_term(self, p, x):
        assert p(x) == horner_free_eval(p.coeffs, x)


class TestIntegerKernel:
    @given(wide_polys, wide_rationals)
    @settings(max_examples=200, deadline=None)
    def test_eval_matches_fraction_horner(self, p, x):
        assert p(x) == reference_eval(p, x)

    @given(wide_polys, wide_rationals)
    @settings(max_examples=200, deadline=None)
    def test_sign_at_matches_fraction_horner(self, p, x):
        assert p.sign_at(x) == sign(reference_eval(p, x))

    @given(wide_polys, wide_rationals)
    @settings(max_examples=100, deadline=None)
    def test_sign_at_zero_on_a_root(self, q, r):
        p = (Polynomial.monomial(1) - Polynomial([r])) * q
        assert p(r) == reference_eval(p, r) == 0
        assert p.sign_at(r) == 0

    @pytest.mark.parametrize("x", [Fraction(-7, 3), 0, 5, Fraction(3, 2**65 + 1)])
    def test_zero_and_constants(self, x):
        assert Polynomial.zero()(x) == 0 and Polynomial.zero().sign_at(x) == 0
        c = Fraction(-5, 2**65 + 1)
        assert Polynomial([c])(x) == c and Polynomial([c]).sign_at(x) == -1

    def test_integer_argument_gives_fraction(self):
        value = Polynomial.from_sparse("0:1/2,3:-1")(-2)
        assert isinstance(value, Fraction) and value == Fraction(17, 2)


class TestPairKernel:
    """sign_at_pair on unreduced pairs (g u, g v), and ratio_at's pairs."""

    @given(st.one_of(st.just(Polynomial.zero()), wide_polys),
           st.integers(min_value=-2**90, max_value=2**90),
           st.one_of(st.just(1), st.integers(min_value=1, max_value=2**90)),
           st.sampled_from([1, 2, 2**67, 3, 15, 2**61 - 1]))
    @settings(max_examples=200, deadline=None)
    def test_sign_at_pair_matches_sign_at(self, p, u, v, g):
        assert p.sign_at_pair(g * u, g * v) == p.sign_at(Fraction(u, v))

    @given(wide_polys, wide_rationals, st.sampled_from([1, 2**40, 7]))
    @settings(max_examples=100, deadline=None)
    def test_zero_on_a_root(self, q, r, g):
        p = (Polynomial.monomial(1) - Polynomial([r])) * q
        assert p.sign_at_pair(g * r.numerator, g * r.denominator) == 0

    @given(wide_polys, wide_rationals)
    @settings(max_examples=200, deadline=None)
    def test_ratio_at_pair(self, p, x):
        """The unreduced pair (sum of n_i u^i v^(d-i), D v^d), term by term."""
        den, nums = integer_form(p.coeffs)
        u, v, d = x.numerator, x.denominator, len(nums) - 1
        expected = (sum(c * u**i * v ** (d - i) for i, c in enumerate(nums)), den * v**d)
        assert p.ratio_at(x) == (expected if nums else (0, 1))


class TestRootOrder:
    @given(wide_polys, rationals, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_planted_order(self, q, r, k):
        # Order k planted at r, plus whatever order q itself has there.
        p = q
        for _ in range(k):
            p = p * (Polynomial.monomial(1) - Polynomial([r]))
        extra = 0
        while not q.is_zero and q.sign_at(r) == 0:
            q, extra = q.derivative(), extra + 1
        expected = 9 if q.is_zero else min(k + extra, 9)
        assert p.root_order(r, 9) == expected

    def test_count_stops_at_the_limit(self):
        p = Polynomial.monomial(5)
        assert p.root_order(0, 3) == 3
        assert p.root_order(0, 6) == 5
        assert p.root_order(1, 6) == 0


class TestTaylorAndCombination:
    @given(wide_polys, wide_rationals, st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_taylor_at_matches_derivatives(self, p, x, count):
        assert p.taylor_at(x, count) == tuple(
            reference_eval(p.derivative(j), x) / factorial(j) for j in range(count))

    @given(st.lists(st.tuples(wide_rationals, wide_polys), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_combination_matches_scaled_sum(self, terms):
        expected = Polynomial.zero()
        for c, p in terms:
            expected = expected + p.scale(c)
        assert Polynomial.combination([c for c, _ in terms], [p for _, p in terms]) == expected


class TestDerivative:
    def test_power_rule(self):
        assert Polynomial.monomial(3).derivative() == Polynomial.from_sparse("2:3")

    def test_constant(self):
        assert Polynomial.one().derivative().is_zero

    def test_cubic_with_shifted_square_derivative(self):
        f1 = Polynomial.from_sparse("1:3/8,2:-1/2,3:1/3")
        # 3/8 - x + x^2 = (x - 1/2)^2 + 1/8
        assert f1.derivative() == Polynomial.from_sparse("0:3/8,1:-1,2:1")

    @given(polys, polys)
    @settings(max_examples=30, deadline=None)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs


class TestDivision:
    def test_strip_endpoint_factors(self):
        p = Polynomial.from_sparse("1:1,3:-1")  # x - x^3
        d = Polynomial.from_sparse("0:1,2:-1")  # (x+1)(1-x)
        assert p.div_exact(d) == Polynomial.monomial(1)

    def test_half_geometric_factor(self):
        p = Polynomial.from_sparse("0:1/2,3:-1/2")  # (1 - x^3)/2
        d = Polynomial.from_sparse("0:1,1:-1")
        q = p.div_exact(d)
        assert q == Polynomial.from_sparse("0:1/2,1:1/2,2:1/2")
        assert q * d == p  # multiply-back oracle

    def test_monomials(self):
        assert Polynomial.monomial(3).div_exact(Polynomial.monomial(2)) == Polynomial.monomial(1)

    def test_inexact_division_raises(self):
        with pytest.raises(NonExactDivision):
            Polynomial.from_sparse("0:1,2:1").div_exact(Polynomial.from_sparse("0:1,1:1"))

    @given(polys, polys.filter(lambda d: not d.is_zero))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_constructed_products(self, p, d):
        assert (p * d).div_exact(d) == p


class TestRepresentation:
    def test_zero_polynomial_canonical(self):
        z = Polynomial([0, 0, 0])
        assert z.is_zero
        assert z.coeffs == ()
        assert z.degree == float("-inf")

    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_sparse_roundtrip(self):
        text = "0:1/4,2:-3/8,6:1/8"
        assert Polynomial.from_sparse(text).to_sparse() == text
        assert Polynomial.from_sparse("").is_zero
        assert Polynomial.from_sparse("0:0").to_sparse() == "0:0"

    @pytest.mark.parametrize("text, named", [
        ("x:1", "'x:1'"), ("1", "'1'"), ("0:1, -1:1", "'-1:1'"), ("2 3:1", "'2 3:1'"),
        ("1:2:3", "'2:3'"), ("1" + "0" * 4400 + ":1", "4401 digits"),
    ], ids=["degree-not-integer", "no-colon", "negative-degree", "two-degrees",
            "two-colons", "degree-digits"])
    def test_sparse_grammar_refusals_named(self, text, named):
        with pytest.raises(ValueError) as info:
            Polynomial.from_sparse(text)
        assert named in str(info.value)
        assert "set_int_max_str_digits" not in str(info.value)

    def test_degree_cap(self):
        assert Polynomial.from_sparse(f"{MAX_DEGREE}:1").degree == MAX_DEGREE
        with pytest.raises(DegreeTooLarge, match=f"sparse degree {MAX_DEGREE + 1} "):
            Polynomial.from_sparse(f"0:1,{MAX_DEGREE + 1}:1")

    def test_primitive_clears_denominators(self):
        p = Polynomial.from_sparse("0:1/2,1:3/4")
        assert p.primitive() == Polynomial.from_sparse("0:2,1:3")
