import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstein_forge import MAX_DEGREE, DegreeTooLarge, Polynomial, cli, polynomial
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
    """sign_at_pair on unreduced pairs (g u, g v), and evaluation as one pair."""

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
    def test_call_is_the_pair_quotient(self, p, x):
        """p(x) is (sum of n_i u^i v^(d-i)) / (D v^d), summed term by term."""
        den, nums = integer_form(p.coeffs)
        u, v, d = x.numerator, x.denominator, len(nums) - 1
        expected = sum(c * u**i * v ** (d - i) for i, c in enumerate(nums))
        value = p(x)
        assert isinstance(value, Fraction)
        assert value == (Fraction(expected, den * v**d) if nums else 0)


class TestGridNumerators:
    """grid_numerators against Fraction evaluation at (u0 + h i)/v."""

    @given(st.one_of(st.just(Polynomial.zero()), wide_rationals.map(lambda c: Polynomial([c])),
                     wide_polys),
           st.integers(min_value=-2**70, max_value=2**70),
           st.integers(min_value=-2**20, max_value=2**20),
           st.one_of(st.just(1), st.integers(min_value=2, max_value=2**70)),
           st.sampled_from(["none", "one", "at most d + 1", "more"]),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_evaluation(self, p, u0, h, v, size, extra):
        d = max(p.degree, 0)
        count = {"none": 0, "one": 1, "at most d + 1": min(extra, d + 1),
                 "more": d + 2 + extra}[size]
        den, nums = p.grid_numerators(u0, h, v, count)
        assert den == (p.form[0] * v**d if not p.is_zero else 1)
        got = [Fraction(n, den) for n in nums]
        assert got == [reference_eval(p, Fraction(u0 + h * i, v)) for i in range(count)]

    def test_lazy_for_any_count(self):
        # A count far past what a list could hold: only what is read is built.
        p = Polynomial.from_sparse("0:-3/7,2:5,5:-1/3")
        den, nums = p.grid_numerators(-40, 3, 11, 10**18)
        assert [Fraction(n, den) for n in islice(nums, 50)] == [
            p(Fraction(-40 + 3 * i, 11)) for i in range(50)]


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
        assert p.order_and_sign(r, 9)[0] == expected

    @given(wide_polys, rationals, st.integers(0, 4), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_leading_zeros_of_the_taylor_coefficients(self, q, r, k, limit):
        # The definition: order_and_sign stops at the first non-zero
        # coefficient but must count what all `limit` coefficients would give.
        p = q
        for _ in range(k):
            p = p * Polynomial([-r, 1])
        taylor = p.taylor_form(r, limit)[1]
        expected = next((j for j, t in enumerate(taylor) if t), limit)
        assert p.order_and_sign(r, limit)[0] == expected

    @given(wide_polys, rationals, st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_sign_is_the_first_non_zero_derivative(self, q, r, k):
        # The sign component, which Sturm chains read just beside a point,
        # against derivatives taken on the Fraction coefficients.
        p = q
        for _ in range(k):
            p = p * Polynomial([-r, 1])
        cs, order = ref_trim(p.coeffs), 0
        while cs and sign(sum(c * r**i for i, c in enumerate(cs))) == 0:
            cs, order = ref_derivative(cs), order + 1
        # Degrees stay below 12, so only the zero polynomial reaches the limit.
        want = (order, sign(sum(c * r**i for i, c in enumerate(cs)))) if cs else (13, 0)
        assert p.order_and_sign(r, 13) == want

    def test_count_stops_at_the_limit(self):
        p = Polynomial.monomial(5)
        assert p.order_and_sign(0, 3)[0] == 3
        assert p.order_and_sign(0, 6)[0] == 5
        assert p.order_and_sign(1, 6)[0] == 0


class TestTaylorAndCombination:
    @given(wide_polys, wide_rationals, st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_taylor_form_matches_derivatives(self, p, x, count):
        den, nums = p.taylor_form(x, count)
        assert den > 0 and gcd(den, *nums) == 1
        assert tuple(Fraction(c, den) for c in nums) == tuple(
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
    """Exact divisions leave a zero remainder, which ends a Sturm chain."""

    def test_strip_endpoint_factors(self):
        p = Polynomial.from_sparse("1:1,3:-1")  # x - x^3
        d = Polynomial.from_sparse("0:1,2:-1")  # (x+1)(1-x)
        assert (p % d).is_zero

    def test_half_geometric_factor(self):
        p = Polynomial.from_sparse("0:1/2,3:-1/2")  # (1 - x^3)/2
        d = Polynomial.from_sparse("0:1,1:-1")
        assert (p % d).is_zero
        assert (p % Polynomial.from_sparse("0:1,1:1")) == Polynomial([1])  # p(-1) = 1

    def test_monomials(self):
        assert (Polynomial.monomial(3) % Polynomial.monomial(2)).is_zero

    @given(polys, polys.filter(lambda d: not d.is_zero))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_constructed_products(self, p, d):
        assert ((p * d) % d).is_zero


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


# -- the integer form against Fraction-coefficient references ----------------
#
# The loops below are the Fraction arithmetic that `Polynomial` ran before it
# stored only integer numerators over one denominator.  They work on tuples
# of Fractions, lowest degree first, trailing zeros trimmed.

def ref_trim(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return ref_trim((a[i] + b[i] if i < len(b) else a[i]) for i in range(len(a)))


def ref_neg(a) -> tuple:
    return ref_trim(-c for c in a)


def ref_sub(a, b) -> tuple:
    return ref_add(a, ref_neg(b))


def ref_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_scale(a, s) -> tuple:
    return ref_trim(Fraction(s) * c for c in a)


def ref_derivative(a) -> tuple:
    return ref_trim(i * c for i, c in enumerate(a) if i > 0)


def ref_primitive(a) -> tuple:
    if not a:
        return ()
    den = lcm(*(c.denominator for c in a))
    nums = [int(c * den) for c in a]
    content = gcd(*nums)
    return ref_trim(v // content for v in nums)


def ref_divrem(a, d) -> tuple:
    rem = list(a)
    dd = len(d) - 1
    lead = d[-1]
    q = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - dd - 1, -1, -1):
        factor = rem[i + dd] / lead
        if factor == 0:
            continue
        q[i] = factor
        for j, dc in enumerate(d):
            rem[i + j] -= factor * dc
    return ref_trim(q), ref_trim(rem[:dd])


def assert_canonical(p):
    den, nums = p.form
    assert den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert p.coeffs == tuple(Fraction(c, den) for c in nums)


nonzero_polys = wide_polys.filter(lambda p: not p.is_zero)
# Sparse polynomials: long division by one drops degree by more than 1 at a step.
sparse_polys = st.dictionaries(
    st.integers(0, 14), wide_rationals.filter(bool), min_size=1, max_size=4,
).map(lambda terms: Polynomial([terms.get(i, 0) for i in range(max(terms) + 1)]))


class TestIntegerForm:
    @given(st.lists(wide_rationals, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_constructor_builds_the_canonical_form(self, cs):
        p = Polynomial(cs)
        assert_canonical(p)
        assert p.coeffs == ref_trim(cs)

    @given(wide_polys, wide_polys, wide_rationals)
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_the_fraction_reference(self, p, q, c):
        a, b = p.coeffs, q.coeffs
        for got, expected in [
            (p + q, ref_add(a, b)),
            (p - q, ref_sub(a, b)),
            (-p, ref_neg(a)),
            (p * q, ref_mul(a, b)),
            (p.scale(c), ref_scale(a, c)),
            (p.derivative(), ref_derivative(a)),
            (p.derivative(2), ref_derivative(ref_derivative(a))),
            (p.primitive(), ref_primitive(a)),
            (Polynomial.combination((c, 1), (p, q)), ref_add(ref_scale(a, c), b)),
        ]:
            assert_canonical(got)
            assert got.coeffs == expected

    @given(st.one_of(wide_polys, sparse_polys), st.one_of(nonzero_polys, sparse_polys),
           st.one_of(wide_polys, sparse_polys))
    # p % p' with q = 0, as in a Sturm chain: the divisor 1 - 9x^8 leads negative,
    # a drop from degree 11 to 1, and a negative lead over D = 3.
    @example(Polynomial.zero(), Polynomial.from_sparse("0:1,8:-9"),
             Polynomial.from_sparse("0:1,1:1,9:-1"))
    @example(Polynomial.zero(), Polynomial.from_sparse("0:-7/2,11:4"),
             Polynomial.from_sparse("0:3,1:-7/2,12:1/3"))
    @example(Polynomial.zero(), Polynomial.from_sparse("3:8/3,10:-11"),
             Polynomial.from_sparse("0:-5/7,4:2/3,11:-1"))
    @settings(max_examples=150, deadline=None)
    def test_division_matches_the_fraction_reference(self, q, d, r):
        for p in (q * d, q * d + r):
            _, remainder = ref_divrem(p.coeffs, d.coeffs)
            got = p % d
            assert_canonical(got)
            assert got.coeffs == remainder

    @given(wide_polys, wide_polys, wide_rationals.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_equal_exactly_when_the_forms_are(self, p, q, c):
        for other in (q, Polynomial(p.coeffs), p.scale(c).scale(1 / c), (p - q) + q,
                      Polynomial.combination((c, -c, 1), (q, q, p))):
            same_form = p.form == other.form
            assert (p == other) == same_form == (p.coeffs == other.coeffs)
            if p == other:
                assert hash(p) == hash(other)

    def test_zero_has_denominator_one(self):
        for z in (Polynomial.zero(), Polynomial([Fraction(1, 3)]).scale(0),
                  Polynomial([Fraction(1, 3), 1]) - Polynomial([Fraction(1, 3), 1])):
            assert z.form == (1, [])
            assert z == Polynomial.zero() and hash(z) == hash(Polynomial.zero())

    def test_views_are_fractions(self):
        p = Polynomial.from_sparse("0:1/6,2:-3/4")
        assert p.form == (12, [2, 0, -9])
        assert p.coeffs == (Fraction(1, 6), Fraction(0), Fraction(-3, 4))
        assert p.leading == Fraction(-3, 4) and p.coeff(1) == 0 and p.coeff(7) == 0


def test_remainders_build_no_quotient(monkeypatch):
    """`%` runs on the integer numerators: it builds no Fraction and makes
    no integer_form conversion.  The quotient it discards has up to deg p
    coefficients over powers of d's leading coefficient: paying for their
    least common denominator once took span{1, x, x^800} from 3.5 to 308 s."""
    p = Polynomial.monomial(800) + Polynomial([1, 1])
    d = Polynomial([3, 2**64 + 1])
    built = []
    with monkeypatch.context() as m:
        for name in ("Fraction", "integer_form"):
            original = getattr(polynomial, name)
            m.setattr(polynomial, name,
                      lambda *args, name=name, original=original:
                      built.append(name) or original(*args))
        remainder = p % d
    assert built == []
    assert remainder == Polynomial([p(Fraction(-3, 2**64 + 1))])  # remainder theorem


def test_degree_2000_chains_answer():
    """`basis` of [0, 1, 3, 2000] on [-1, 1] builds two Sturm chains of
    degree 2000, whose remainders discard long quotients; it answers in
    about 1 s, in a process of its own so that a hang fails the test."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import sys\nfrom bernstein_forge import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, "basis",
         json.dumps({"exponents": [0, 1, 3, 2000], "a": "-1", "b": "1"})],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("sign-changing") == 2
