from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstein_forge import (
    BadTolerance,
    Enclosure,
    NoBracket,
    Polynomial,
    ZeroPolynomial,
    bisect_root,
    classify_on_interval,
    isolate_roots,
    rational_root_in,
    sturm_chain,
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


def open_count(p, lo, hi):
    """Distinct roots of p in the open (lo, hi), by Sturm's theorem."""
    chain = sturm_chain(p)
    return chain.variations(lo, 1) - chain.variations(hi, -1)


class TestSturmCount:
    def test_no_real_roots(self):
        p = Polynomial.from_sparse("0:1,2:1")
        assert open_count(p, -1, 1) == 0

    def test_odd_cubic_crosses_origin(self):
        p = Polynomial.from_sparse("1:1,3:-1")
        assert open_count(p, -1, 1) == 1

    def test_real_root_outside_interval(self):
        p = Polynomial.from_sparse("0:4,3:1")  # root -4^(1/3) ~ -1.587
        assert open_count(p, -1, 2) == 0

    def test_endpoint_openness(self):
        p = linear(1) * linear(-1)
        assert open_count(p, -1, 1) == 0
        assert open_count(p, -2, 1) == 1
        assert open_count(p, -1, 2) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sturm_chain(Polynomial.zero())

    def test_multiple_root_counted_once(self):
        p = linear(0) * linear(0) * linear(Fraction(1, 2))
        assert open_count(p, -1, 1) == 2

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
        assert open_count(p, lo, hi) == want


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
        # The chain of p is its bare remainder sequence, not divided by
        # gcd(p, p'), and counts and isolates as its square-free part does.
        p, sf, roots, lo, hi = case
        inside = sum(1 for r in roots if lo < r < hi)
        chain = sturm_chain(p)
        assert chain.sequence[:2] == (p, p.derivative())
        assert chain.variations(lo, 1) - chain.variations(hi, -1) == inside
        assert open_count(sf, lo, hi) == inside
        encs = isolate_roots(p, lo, hi)
        assert len(encs) == inside
        assert encs == isolate_roots(sf, lo, hi)


def reference_sign(cs, x):
    """Sign of the polynomial with Fraction coefficients cs at x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return sign(acc)


def one_sided_sign(p, x, side):
    """Sign of p != 0 just right of x (side 1) or just left of it (side -1):
    that of its first derivative not zero at x, of order j, times side^j.
    Derivatives are taken on the Fraction coefficients."""
    cs, j = list(p.coeffs), 0
    while reference_sign(cs, x) == 0:
        cs, j = [i * c for i, c in enumerate(cs) if i], j + 1
    return reference_sign(cs, x) * side**j


class TestChainSigns:
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=2**70),
            min_size=1,
            max_size=6,
        ).map(Polynomial).filter(lambda p: not p.is_zero),
        st.one_of(
            st.integers(min_value=-6, max_value=6).map(Fraction),
            st.fractions(min_value=-6, max_value=6, max_denominator=2**70),
        ),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_variations_match_fraction_signs(self, q, x, m):
        # A root of order m planted at x makes the elements vanish there.
        p = q
        for _ in range(m):
            p = p * linear(x)
        if p.degree < 1:
            p = p * linear(x)
        chain = sturm_chain(p)
        for side in (1, -1):
            signs = [one_sided_sign(e, x, side) for e in chain.sequence]
            want = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert chain.variations(x, side) == want


class TestClassify:
    def test_sign_changing_cubic(self):
        cls = classify_on_interval(Polynomial.from_sparse("1:1,3:-1"), -1, 1)
        assert cls.verdict == "sign-changing"
        negative = [w for w in cls.samples if w.sign < 0]
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

    @pytest.mark.parametrize("sparse, verdict, witnesses", [
        ("2:-1", "non-positive-with-interior-zeros", [
            {"kind": "sample", "x": "-1", "sign": -1},
            {"kind": "sample", "x": "1", "sign": -1},
            {"kind": "root-interval", "lo": "-1", "hi": "1"},
        ]),
        ("1:-1/2,2:1", "sign-changing", [  # exact roots 0 and 1/2
            {"kind": "sample", "x": "-1/2", "sign": 1},
            {"kind": "sample", "x": "1/4", "sign": -1},
            {"kind": "sample", "x": "3/4", "sign": 1},
            {"kind": "root-interval", "lo": "0", "hi": "0"},
            {"kind": "root-interval", "lo": "1/2", "hi": "1/2"},
        ]),
    ])
    def test_witness_bytes(self, sparse, verdict, witnesses):
        cls = classify_on_interval(Polynomial.from_sparse(sparse), -1, 1)
        assert cls.to_json() == {"verdict": verdict, "witnesses": witnesses}

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

    @pytest.mark.parametrize("lo, hi", [(3, -1), (1, 1)])
    def test_bracket_not_increasing_refused(self, lo, hi):
        with pytest.raises(ValueError, match="need lo < hi"):
            bisect_root(linear(1), lo, hi, Fraction(1, 100))

    def test_tolerance_checked_before_bracket(self):
        with pytest.raises(BadTolerance):
            bisect_root(linear(1), 3, -1, 0)


def fraction_bisect_reference(p, lo, hi, tol):
    """The bisection loop over Fractions, one gcd per operation: the
    reference for bisect_root's integer loop, which must return the same
    enclosures and raise where this raises."""
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {tol}")
    s_lo, s_hi = p.sign_at(lo), p.sign_at(hi)
    if s_lo == 0:
        return Enclosure(lo, lo)
    if s_hi == 0:
        return Enclosure(hi, hi)
    if s_lo == s_hi:
        raise NoBracket(f"p({lo}) and p({hi}) have equal sign")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s == 0:
            return Enclosure(mid, mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Enclosure(lo, hi)


def _outcome(bisect, *args):
    try:
        return bisect(*args)
    except (NoBracket, BadTolerance) as exc:
        return type(exc)


# Brackets with unrelated, mostly non-dyadic denominators.
brackets = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=60), min_size=2, max_size=2,
    unique=True,
).map(sorted)
cofactors = st.one_of(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30), min_size=1, max_size=5),
).map(Polynomial)
tolerances = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(1, 10), Fraction(1, 10**100)]),
    st.integers(min_value=1, max_value=100).map(lambda k: Fraction(1, 10**k)),
    st.fractions(min_value=Fraction(1, 10**6), max_value=7, max_denominator=10**6),
    st.sampled_from([Fraction(0), Fraction(-1, 3)]),
)


@st.composite
def bisect_cases(draw):
    """(p, lo, hi, tol): p has a root planted inside the bracket, on a
    dyadic point of it (an exact midpoint hit), at an endpoint, or nowhere;
    tol is drawn alone or as the bracket's width over a power of two, where
    the loop must stop exactly on the tolerance."""
    lo, hi = draw(brackets)
    where = draw(st.sampled_from(["inside", "dyadic", "endpoint", "none"]))
    p = draw(cofactors)
    if where == "inside":
        p = linear(draw(st.fractions(min_value=lo, max_value=hi, max_denominator=10**6))) * p
    elif where == "dyadic":
        m = draw(st.integers(min_value=1, max_value=12))
        j = draw(st.integers(min_value=1, max_value=2**m - 1))
        p = linear(lo + (hi - lo) * Fraction(j, 2**m)) * p
    elif where == "endpoint":
        p = linear(draw(st.sampled_from([lo, hi]))) * p
    tol = draw(st.one_of(
        tolerances,
        st.integers(min_value=0, max_value=40).map(lambda k: (hi - lo) / 2**k),
    ))
    return p, lo, hi, tol


class TestBisectReference:
    @given(bisect_cases())
    @example((linear(Fraction(1, 7)) * (X * X + ONE), Fraction(-2, 3), Fraction(7, 5),
              Fraction(1, 10**100)))
    @example((linear(Fraction(-2, 3) + Fraction(31, 15) * Fraction(3, 8)),
              Fraction(-2, 3), Fraction(7, 5), Fraction(1, 3)))
    @example((linear(Fraction(1, 7)), Fraction(-2, 3), Fraction(7, 5), Fraction(31, 15 * 2**5)))
    @settings(max_examples=300, deadline=None)
    def test_same_enclosures_and_refusals(self, case):
        p, lo, hi, tol = case
        got = _outcome(bisect_root, p, lo, hi, tol)
        assert got == _outcome(fraction_bisect_reference, p, lo, hi, tol)


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
        assert rational_root_in(p, enc) == Enclosure(r, r)

    @given(st.integers(min_value=2, max_value=10**9).filter(lambda m: isqrt(m) ** 2 != m),
           st.sampled_from([Fraction(1, 10), Fraction(1, 10**30)]))
    @settings(max_examples=40, deadline=None)
    def test_irrational_node_keeps_enclosure(self, m, tol):
        p = Polynomial([-m, 0, 1])  # root sqrt(m), irrational
        enc = bisect_root(p, 0, m, tol)
        assert not enc.is_exact
        assert rational_root_in(p, enc) == enc

    def test_exact_midpoint_hit(self):
        # The fine bisection of [0, 1] lands on 1/2 at its first midpoint.
        half = Enclosure(Fraction(1, 2), Fraction(1, 2))
        assert rational_root_in(Polynomial.from_sparse("0:-1,1:2"), Enclosure(0, 1)) == half


class TestIsolation:
    def test_disjoint_and_complete(self):
        p = linear(Fraction(-1, 2)) * linear(0) * linear(Fraction(3, 4))
        encs = isolate_roots(p, -1, 1)
        assert len(encs) == 3
        for e, root in zip(encs, [Fraction(-1, 2), 0, Fraction(3, 4)]):
            assert e.lo <= root <= e.hi
        for e1, e2 in zip(encs, encs[1:]):
            assert e1.hi <= e2.lo
