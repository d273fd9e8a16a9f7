from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_forge import (
    BadTolerance,
    NoBracket,
    Polynomial,
    ZeroPolynomial,
    bisect_root,
    classify_on_interval,
    isolate_roots,
    rational_root_in,
    rational_roots,
    sturm_chain,
    sturm_count,
)
from bernstein_forge.rational import sign

X = Polynomial.monomial(1)
ONE = Polynomial.one()


def linear(root):
    return X - Polynomial([Fraction(root)])


# Rationals in (-2, 2), many with denominators above 10^7.
big_denominator_roots = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=50),
    st.integers(min_value=10**7 + 1, max_value=10**15).flatmap(
        lambda d: st.integers(min_value=-2 * d + 1, max_value=2 * d - 1).map(
            lambda k: Fraction(k, d)
        )
    ),
)
# Factors without a rational root and without a real root in [-2, 2]:
# x^2 + c has none at all, x^2 - 5 and x^3 - 9 have irrational ones outside.
node_factors = st.one_of(
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**6).map(
        lambda c: Polynomial([c, 0, 1])
    ),
    st.just(Polynomial.from_sparse("0:-5,2:1")),
    st.just(Polynomial.from_sparse("0:-9,3:1")),
)
# ... and with irrational roots inside [-2, 2] as well.
irrational_factors = st.one_of(
    node_factors,
    st.just(Polynomial.from_sparse("0:-2,2:1")),
    st.just(Polynomial.from_sparse("0:-3,3:1")),
)


class TestSturmCount:
    def test_no_real_roots(self):
        p = Polynomial.from_sparse("0:1,2:1")
        assert sturm_count(p, -1, 1, include_lo=False, include_hi=False) == 0

    def test_odd_cubic_crosses_origin(self):
        p = Polynomial.from_sparse("1:1,3:-1")
        assert sturm_count(p, -1, 1, include_lo=False, include_hi=False) == 1

    def test_real_root_outside_interval(self):
        p = Polynomial.from_sparse("0:4,3:1")  # root -4^(1/3) ~ -1.587
        assert sturm_count(p, -1, 2, include_lo=False, include_hi=False) == 0

    def test_endpoint_openness(self):
        p = linear(1) * linear(-1)
        assert sturm_count(p, -1, 1, include_lo=True, include_hi=True) == 2
        assert sturm_count(p, -1, 1, include_lo=False, include_hi=True) == 1
        assert sturm_count(p, -1, 1, include_lo=False, include_hi=False) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sturm_count(Polynomial.zero(), 0, 1, include_lo=False, include_hi=False)

    def test_multiple_root_counted_once(self):
        p = linear(0) * linear(0) * linear(Fraction(1, 2))
        assert sturm_count(p, -1, 1, include_lo=False, include_hi=False) == 2

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        st.fractions(min_value=-6, max_value=0, max_denominator=7),
        st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_constructed_factor_products(self, roots, lo, hi):
        p = ONE
        for r in roots:
            p = p * linear(r)
        want = sum(1 for r in roots if lo < r < hi)
        assert sturm_count(p, lo, hi, include_lo=False, include_hi=False) == want


# Decimal stand-in for sqrt(2), closer to it than any fraction with
# denominator at most 9, so comparisons with lo and hi are exact.
SQRT2 = Fraction(14142135623730951, 10**16)
# Optional square-free factor: none, x^2 - 2 (roots +-sqrt(2)), x^2 + 1.
EXTRAS = [(ONE, ()), (Polynomial.from_sparse("0:-2,2:1"), (-SQRT2, SQRT2)),
          (Polynomial.from_sparse("0:1,2:1"), ())]


@st.composite
def multiple_root_cases(draw):
    """p = c * prod (x - r_i)^m_i * extra, and an interval that often ends on a root."""
    roots = draw(st.dictionaries(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.integers(min_value=1, max_value=4),
        min_size=1, max_size=4,
    ))
    c = draw(st.sampled_from((1, -1))) * draw(
        st.fractions(min_value=Fraction(1, 9), max_value=4, max_denominator=9))
    extra, extra_roots = draw(st.sampled_from(EXTRAS))
    endpoint = st.one_of(
        st.sampled_from(sorted(roots)),
        st.fractions(min_value=-4, max_value=4, max_denominator=9),
    )
    lo, hi = sorted((draw(endpoint), draw(endpoint)))
    if lo == hi:
        hi += 1
    p, sf = ONE.scale(c), ONE.scale(c)
    for r, m in roots.items():
        for _ in range(m):
            p = p * linear(r)
        sf = sf * linear(r)
    return p * extra, sf * extra, sorted(roots) + list(extra_roots), lo, hi


class TestMultipleRoots:
    @given(multiple_root_cases())
    @settings(max_examples=200, deadline=None)
    def test_counts_isolation_and_squarefree_part(self, case):
        p, sf, roots, lo, hi = case
        inside = sum(1 for r in roots if lo < r < hi)
        at_lo, at_hi = lo in roots, hi in roots
        for include_lo in (False, True):
            for include_hi in (False, True):
                want = inside + (include_lo and at_lo) + (include_hi and at_hi)
                got = sturm_count(p, lo, hi, include_lo=include_lo, include_hi=include_hi)
                assert got == want
        assert len(isolate_roots(p, lo, hi)) == inside
        assert sturm_chain(p).sequence[0] == sf


def reference_sign(p, x):
    """Sign of p(x) by Horner's rule over Fractions: the reference for sign_at."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return sign(acc)


class TestChainSigns:
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=2**70),
            min_size=2,
            max_size=6,
        ).map(Polynomial).filter(lambda p: p.degree >= 1),
        st.one_of(
            st.integers(min_value=-6, max_value=6).map(Fraction),
            st.fractions(min_value=-6, max_value=6, max_denominator=2**70),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_variations_match_fraction_signs(self, p, x):
        chain = sturm_chain(p)
        signs = [reference_sign(q, x) for q in chain.sequence]
        signs = [s for s in signs if s != 0]
        want = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert chain.variations(x) == want


class TestClassify:
    def test_sign_changing_cubic(self):
        cls = classify_on_interval(Polynomial.from_sparse("1:1,3:-1"), -1, 1)
        assert cls.verdict == "sign-changing"
        negative = [w for w in cls.witnesses if getattr(w, "sign", 0) < 0]
        assert negative and all(
            Polynomial.from_sparse("1:1,3:-1")(w.x) < 0 for w in negative
        )

    def test_strictly_positive_factored(self):
        cls = classify_on_interval(Polynomial.from_sparse("0:1/2,2:-1/2"), -1, 1)
        assert cls.verdict == "strictly-positive"

    def test_strictly_positive_shifted_square(self):
        cls = classify_on_interval(Polynomial.from_sparse("0:3/8,1:-1,2:1"), 0, 1)
        assert cls.verdict == "strictly-positive"

    def test_interior_double_zero_is_non_negative(self):
        p = linear(Fraction(1, 3)) * linear(Fraction(1, 3))
        cls = classify_on_interval(p, 0, 1)
        assert cls.verdict == "non-negative-with-interior-zeros"

    def test_identically_zero(self):
        assert classify_on_interval(Polynomial.zero(), 0, 1).verdict == "identically-zero"

    def test_witness_serialization(self):
        cls = classify_on_interval(Polynomial.from_sparse("1:1,3:-1"), -1, 1)
        payload = cls.to_json()
        assert payload["verdict"] == "sign-changing"
        assert all(w["kind"] in ("sample", "root-interval") for w in payload["witnesses"])

    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_squares_never_sign_changing(self, roots):
        p = ONE
        for r in roots:
            p = p * linear(r)
        cls = classify_on_interval(p * p, -4, 4)
        assert cls.verdict in ("strictly-positive", "non-negative-with-interior-zeros")
        if any(-4 < r < 4 for r in roots):
            assert cls.verdict == "non-negative-with-interior-zeros"


class TestBisect:
    def test_rational_root_enclosed(self):
        p = Polynomial.from_sparse("0:-1,3:1")
        enc = bisect_root(p, -1, 2, Fraction(1, 10**12))
        assert enc.lo <= 1 <= enc.hi
        assert enc.width <= Fraction(1, 10**12)

    def test_cube_root_three_quarters(self):
        p = Polynomial.from_sparse("0:-3/4,3:1")
        enc = bisect_root(p, -1, 1, Fraction(1, 1000))
        assert enc.lo**3 <= Fraction(3, 4) <= enc.hi**3  # cubing oracle
        assert enc.width <= Fraction(1, 1000)

    def test_cube_root_five_quarters(self):
        p = Polynomial.from_sparse("0:-5/4,3:1")
        enc = bisect_root(p, -1, 2, Fraction(1, 1000))
        assert enc.lo**3 <= Fraction(5, 4) <= enc.hi**3
        assert enc.width <= Fraction(1, 1000)

    def test_endpoint_root_is_exact(self):
        p = linear(2)
        enc = bisect_root(p, 2, 3, Fraction(1, 100))
        assert enc.is_exact and enc.lo == 2

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            bisect_root(Polynomial.from_sparse("0:1,2:1"), -1, 1, Fraction(1, 100))

    def test_enclosure_signs_opposite(self):
        p = Polynomial.from_sparse("0:-2,3:1")
        enc = bisect_root(p, 0, 2, Fraction(1, 2**20))
        assert not enc.is_exact
        assert p(enc.lo) * p(enc.hi) < 0

    @pytest.mark.parametrize("tol", [0, -1])
    def test_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(BadTolerance):
            bisect_root(Polynomial.from_sparse("0:-2,2:1"), 0, 2, tol)

    def test_serialization(self):
        p = linear(Fraction(1, 2))
        enc = bisect_root(p, Fraction(1, 2), 1, Fraction(1, 10))
        assert enc.to_json() == {"lo": "1/2", "hi": "1/2"}


class TestRationalRoots:
    def test_finds_small_rationals(self):
        p = linear(Fraction(2, 3)) * linear(-2) * linear(0)
        assert rational_roots(p) == [-2, 0, Fraction(2, 3)]

    def test_irrational_only(self):
        assert rational_roots(Polynomial.from_sparse("0:-2,2:1")) == []

    def test_large_coefficients_not_capped(self):
        r = Fraction(123456791, 98765431)
        assert rational_roots(linear(r) * Polynomial.from_sparse("0:1,2:1")) == [r]

    @given(big_denominator_roots, irrational_factors)
    @settings(max_examples=40, deadline=None)
    def test_rational_root_among_irrational_ones(self, r, factor):
        roots = rational_roots(linear(r) * linear(r) * factor * X)
        assert roots == sorted({Fraction(0), r})


class TestNodeRecovery:
    """bisect_root, then rational_root_in: the node search of build_operator."""

    @given(big_denominator_roots, node_factors,
           st.fractions(min_value=Fraction(-9, 2), max_value=Fraction(9, 2), max_denominator=10**9)
           .filter(lambda c: c != 0),
           st.sampled_from([Fraction(1, 10), Fraction(1, 10**12), Fraction(1, 10**60)]))
    @settings(max_examples=60, deadline=None)
    def test_rational_node_comes_back_exact(self, r, factor, scale, tol):
        p = (linear(r) * factor).scale(scale)
        enc = bisect_root(p, -2, 2, tol)
        assert rational_root_in(p, enc) == r

    @given(st.integers(min_value=2, max_value=10**9).filter(lambda m: isqrt(m) ** 2 != m),
           st.sampled_from([Fraction(1, 10), Fraction(1, 10**30)]))
    @settings(max_examples=40, deadline=None)
    def test_irrational_node_gives_none(self, m, tol):
        p = Polynomial([-m, 0, 1])  # root sqrt(m), irrational
        enc = bisect_root(p, 0, m, tol)
        assert not enc.is_exact
        assert rational_root_in(p, enc) is None


class TestIsolation:
    def test_disjoint_and_complete(self):
        p = linear(Fraction(-1, 2)) * linear(0) * linear(Fraction(3, 4))
        encs = isolate_roots(p, -1, 1)
        assert len(encs) == 3
        for e, root in zip(encs, [Fraction(-1, 2), 0, Fraction(3, 4)]):
            assert e.lo <= root <= e.hi
        for e1, e2 in zip(encs, encs[1:]):
            assert e1.hi <= e2.lo
