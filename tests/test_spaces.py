import random
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bernstein_forge import (
    MAX_DEGREE,
    MAX_DIMENSION,
    MAX_SIZE,
    BadExponents,
    BadInterval,
    BernsteinBasis,
    ConstantNotInSpace,
    DegreeTooLarge,
    DerivedBasisUnavailable,
    DimensionTooLarge,
    NoBasisReport,
    NonPositiveScalar,
    NotInSpace,
    Polynomial,
    basis_from_generators,
    bernstein_basis,
    build_space,
    coordinates,
    derived_space,
    normalize_partition_of_unity,
    normalize_when_possible,
)
from bernstein_forge.rational import format_rational
from bernstein_forge.spaces import GRADE_POSITIVE, derived_numerator
from bernstein_forge.sturm import classify_on_interval
from test_linsolve import reference_coordinates, reference_nullspace

X = Polynomial.monomial(1)
ONE = Polynomial.one()
X3 = Polynomial.monomial(3)


def classical_element(n, k, a, b):
    """Direct binomial-form construction used as an independent oracle."""
    a, b = Fraction(a), Fraction(b)
    left = X - Polynomial([a])
    right = Polynomial([b]) - X
    p = Polynomial([Fraction(comb(n, k), (b - a) ** n)])
    for _ in range(k):
        p = p * left
    for _ in range(n - k):
        p = p * right
    return p


class TestBuildSpace:
    def test_examples(self):
        assert build_space([0, 3], -1, 1).dimension == 2
        assert build_space([0, 1, 2, 3, 6], -1, 2).order == 4
        assert build_space([0, 1], 0, 1).exponents == (0, 1)

    def test_bad_inputs(self):
        with pytest.raises(BadExponents):
            build_space([3, 0], -1, 1)
        with pytest.raises(BadExponents):
            build_space([0, 0, 1], -1, 1)
        with pytest.raises(BadInterval):
            build_space([0, 1], 1, 1)

    def test_top_exponent_cap(self):
        assert build_space([0, MAX_DEGREE], 1, 2).order == 1
        with pytest.raises(DegreeTooLarge, match=f"top exponent {10**9} "):
            build_space([0, 10**9], 1, 2)

    def test_dimension_cap(self):
        assert build_space(range(MAX_DIMENSION), 1, 2).dimension == MAX_DIMENSION
        with pytest.raises(DimensionTooLarge, match=f"dimension {MAX_DIMENSION + 1} "):
            build_space(range(MAX_DIMENSION + 1), 1, 2)

    def test_joint_size_limit(self):
        # n^2 e at most MAX_SIZE: [0, 1, MAX_DEGREE] at the limit, full n = 32, n = 32 to e = 78.
        assert build_space([0, 1, MAX_DEGREE], 1, 2).order == 2
        assert build_space(range(MAX_DIMENSION), 1, 2).order == 32
        assert build_space([*range(32), 78], 1, 2).order == 32
        with pytest.raises(DegreeTooLarge, match=r"order 32 and top exponent 79 has n\^2 e"):
            build_space([*range(32), 79], 1, 2)
        with pytest.raises(DegreeTooLarge, match=f"order 3 and top exponent {MAX_DEGREE} "):
            build_space([0, 1, 2, MAX_DEGREE], 1, 2)

    @pytest.mark.parametrize("exponents", [3, "01", [0, 1.5], [0, True], [0, "1"]])
    def test_exponents_must_be_integers(self, exponents):
        with pytest.raises(BadExponents):
            build_space(exponents, 0, 1)

    @pytest.mark.parametrize("a", [0.5, True, None])
    def test_endpoints_must_be_exact(self, a):
        with pytest.raises(BadInterval):
            build_space([0, 1], a, 1)

    def test_json_roundtrip(self):
        space = build_space([0, 1, 2, 3, 6], -1, 2)
        assert build_space(**{
            "exponents": space.to_json()["exponents"],
            "a": space.to_json()["a"],
            "b": space.to_json()["b"],
        }) == space


class TestBernsteinBasis:
    def test_e1_positive_pair(self):
        basis = bernstein_basis(build_space([0, 3], -1, 1))
        assert isinstance(basis, BernsteinBasis)
        assert basis.positivity == "positive"
        norm = normalize_partition_of_unity(basis)
        assert [p.to_sparse() for p in norm.elements] == ["0:1/2,3:-1/2", "0:1/2,3:1/2"]

    def test_e2_shifted_interval_refused(self):
        result = bernstein_basis(build_space([0, 1, 3], -1, 2))
        assert isinstance(result, NoBasisReport)
        assert result.kind == "forced-extra-zero"
        assert result.index == 2 and result.endpoint == "b"
        # Witness is (a multiple of) (x+1)^2 (x-2), which vanishes at b.
        assert result.witness(2) == 0 and result.witness(-1) == 0

    def test_forced_extra_zero_at_a(self):
        result = bernstein_basis(build_space([0, 2], 0, 1))
        assert isinstance(result, NoBasisReport)
        assert (result.kind, result.index, result.endpoint) == ("forced-extra-zero", 1, "a")
        assert result.witness.to_sparse() == "2:1"

    def test_forced_extra_zero_at_a_order_zero(self):
        # n = 0: no vanishing conditions, but x^2 vanishes at a itself.
        result = bernstein_basis(build_space([2], 0, 1))
        assert isinstance(result, NoBasisReport)
        assert (result.kind, result.index, result.endpoint) == ("forced-extra-zero", 0, "a")
        assert result.witness.to_sparse() == "2:1"

    def test_e2_symmetric_interval_signed(self):
        basis = bernstein_basis(build_space([0, 1, 3], -1, 1))
        assert basis.grade == "signed"
        assert basis.elements[1] == Polynomial.from_sparse("1:1,3:-1")
        assert basis.classifications[1].verdict == "sign-changing"

    def test_zero_orders_exact(self):
        basis = bernstein_basis(build_space([0, 1, 2, 3, 6], -1, 1))
        n = basis.order
        for k, p in enumerate(basis.elements):
            for j in range(k):
                assert p.derivative(j)(-1) == 0
            assert p.derivative(k)(-1) != 0
            for j in range(n - k):
                assert p.derivative(j)(1) == 0
            assert p.derivative(n - k)(1) != 0

    def test_uniqueness_up_to_scaling(self):
        # Construct the same space from a different generating set; the
        # canonical scaling must make the two constructions identical.
        space = build_space([0, 1, 2, 3], -1, 2)
        direct = bernstein_basis(space)
        mixed = [
            ONE + X,
            X - X3.scale(2),
            Polynomial.monomial(2) + X3,
            X3 - ONE,
        ]
        other = basis_from_generators(mixed, -1, 2)
        assert direct.elements == other.elements

    @pytest.mark.parametrize("generators", [
        [X, X.scale(2), ONE],
        [ONE, X, X.scale(3), Polynomial.monomial(2)],
    ])
    def test_dependent_generators_refused(self, generators):
        with pytest.raises(ValueError, match="linearly dependent"):
            basis_from_generators(generators, 0, 1)

    def test_dimension_one_space(self):
        basis = bernstein_basis(build_space([0], 0, 1))
        assert basis.elements == (ONE,)


class TestNormalization:
    def test_classical_binomial_form(self):
        random.seed(7)
        for n in range(1, 6):
            basis = normalize_partition_of_unity(
                bernstein_basis(build_space(list(range(n + 1)), 0, 1))
            )
            for k, p in enumerate(basis.elements):
                assert p == classical_element(n, k, 0, 1)

    def test_partition_of_unity_exact(self):
        basis = normalize_partition_of_unity(
            bernstein_basis(build_space([0, 1, 2, 3, 6], -1, 2))
        )
        total = Polynomial.zero()
        for p in basis.elements:
            total = total + p
        assert total == ONE
        assert basis.grade == "normalized"

    def test_constant_not_in_space(self):
        basis = bernstein_basis(build_space([1, 2], 1, 2))
        with pytest.raises(ConstantNotInSpace):
            normalize_partition_of_unity(basis)

    def test_signed_basis_refused(self):
        basis = bernstein_basis(build_space([0, 1, 3], -1, 1))
        assert basis.positivity == "signed"
        with pytest.raises(NonPositiveScalar, match="cannot normalize a signed basis"):
            normalize_partition_of_unity(basis)


class TestNormalizeWhenPossible:
    def test_normalizes_a_positive_basis(self):
        basis = bernstein_basis(build_space([0, 3], -1, 1))
        assert normalize_when_possible(basis) == normalize_partition_of_unity(basis)

    @pytest.mark.parametrize("exponents, a, b", [
        ([0, 1, 3], -1, 2),  # no basis: the refusal report
        ([0, 1, 3], -1, 1),  # signed basis
        ([1, 2], 1, 2),  # positive basis, constant not in the span
    ])
    def test_passes_through_unchanged(self, exponents, a, b):
        result = bernstein_basis(build_space(exponents, a, b))
        assert normalize_when_possible(result) is result


class TestCoordinates:
    def test_ex1_gamma(self):
        basis = normalize_partition_of_unity(
            bernstein_basis(build_space([0, 1, 2, 3, 6], -1, 1))
        )
        coords = coordinates(X3, basis)
        assert coords == (-1, Fraction(3, 4), 0, Fraction(-3, 4), 1)

    def test_p3_shifted_gamma(self):
        basis = normalize_partition_of_unity(
            bernstein_basis(build_space([0, 1, 2, 3], -1, 2))
        )
        assert coordinates(X3, basis) == (-1, 2, -4, 8)

    def test_partition_coordinates_of_one(self):
        basis = normalize_partition_of_unity(
            bernstein_basis(build_space([0, 1, 2, 3], -1, 2))
        )
        assert coordinates(ONE, basis) == (1, 1, 1, 1)

    def test_not_in_space(self):
        basis = bernstein_basis(build_space([0, 3], -1, 1))
        with pytest.raises(NotInSpace):
            coordinates(Polynomial.monomial(2), basis)

    def test_no_elements(self):
        # span{x^2} divided by f0 = x^2 is constant: the derived basis is empty.
        derived = derived_of(build_space([2], 1, 2), Polynomial.monomial(2))
        assert coordinates(Polynomial.zero(), derived) == ()
        with pytest.raises(NotInSpace):
            coordinates(ONE, derived)

    def test_roundtrip_random_members(self):
        random.seed(11)
        basis = normalize_partition_of_unity(
            bernstein_basis(build_space([0, 1, 2, 3, 6], -1, 1))
        )
        for _ in range(10):
            f = Polynomial.zero()
            for e in (0, 1, 2, 3, 6):
                f = f + Polynomial.monomial(e, Fraction(random.randint(-9, 9), random.randint(1, 5)))
            coords = coordinates(f, basis)
            recon = Polynomial.zero()
            for c, p in zip(coords, basis.elements):
                recon = recon + p.scale(c)
            assert recon == f


def derived_of(space, f0):
    """The derived basis of (space, f0) as existence_report builds it: from
    the base basis that normalize_when_possible returns, and beta."""
    basis = normalize_when_possible(bernstein_basis(space))
    return derived_space(basis, coordinates(f0, basis), f0)


class TestDerivedSpace:
    def test_e4_numerator_span(self):
        derived = derived_of(build_space([0, 1, 2, 3, 6], -1, 1), ONE)
        support = sorted({e for p in derived.elements for e in p.support()})
        assert support == [0, 1, 2, 5]
        assert derived.positivity == "positive"
        assert len(derived.elements) == 4

    def test_p3_derived_is_standard_quadratic_basis(self):
        derived = derived_of(build_space([0, 1, 2, 3], 0, 1), ONE)
        assert [p.to_sparse() for p in derived.elements] == [
            "0:1,1:-2,2:1",   # (1-x)^2
            "1:2,2:-2",       # 2x(1-x)
            "2:1",            # x^2
        ]

    def test_constant_space(self):
        derived = derived_of(build_space([0, 1], 0, 1), ONE)
        assert derived.elements == (ONE,)

    def test_dimension_drop(self):
        for exps in ([0, 1, 2, 3], [0, 1, 2, 3, 6], [0, 3]):
            space = build_space(exps, -1, 1)
            assert len(derived_of(space, ONE).elements) == space.order

    def test_nontrivial_f0(self):
        # f0 = 1 + x^2 is positive on [-1, 1]; derived numerators live in
        # polynomial arithmetic and keep exact zero orders.
        space = build_space([0, 1, 2, 3], -1, 1)
        f0 = Polynomial.from_sparse("0:1,2:1")
        derived = derived_of(space, f0)
        n = space.order
        for k, q in enumerate(derived.elements):
            for j in range(k):
                assert q.derivative(j)(-1) == 0
            assert q.derivative(k)(-1) != 0
            for j in range(n - 1 - k):
                assert q.derivative(j)(1) == 0

    def test_one_generator_space(self):
        # span{x^2} divided by f0 = x^2 is constant: the derived space is {0}.
        space = build_space([2], 1, 2)
        derived = derived_of(space, Polynomial.monomial(2))
        assert derived.elements == ()
        assert derived.zero_orders == ()
        assert not derived.normalized


def greedy_generators(space, f0):
    """Reference: the independent images an ascending greedy search keeps."""
    f0d = f0.derivative()
    images = [g.derivative() * f0 - g * f0d for g in space.monomials()]
    independent = []
    for img in images:
        if img.is_zero:
            continue
        if not independent:
            independent.append(img)
            continue
        try:
            reference_coordinates(img, independent)
        except NotInSpace:
            independent.append(img)
    return independent


def small_rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


@st.composite
def spans_with_weights(draw):
    """(space, f0): a full or gap span of dimension >= 2 on a negative,
    straddling or positive interval, and an f0 in the span, positive on
    [a, b]: 1, a monomial, c (x - a) + d, or a positive quadratic."""
    if draw(st.booleans()):
        exps = set(range(draw(st.integers(2, 6))))
    else:
        exps = set(draw(st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True)))
    side = draw(st.sampled_from(["negative", "straddle", "positive"]))
    width = draw(small_rationals(1, 12))
    if side == "negative":
        b = -draw(small_rationals(1, 8))
        a = b - width
    elif side == "positive":
        a = draw(small_rationals(1, 8))
        b = a + width
    else:
        a = -draw(small_rationals(1, 8))
        b = draw(small_rationals(1, 8))
    kind = draw(st.sampled_from(["one", "monomial", "linear", "quadratic"]))
    if kind == "one":
        exps.add(0)
        f0 = ONE
    elif kind == "monomial":
        positive = [e for e in sorted(exps) if e == 0 or a > 0 or (e % 2 == 0 and b < 0)]
        if not positive:
            exps.add(0)
            positive = [0]
        f0 = Polynomial.monomial(draw(st.sampled_from(positive)))
    elif kind == "linear":
        exps |= {0, 1}
        c = draw(small_rationals(-6, 6))
        d = draw(small_rationals(1, 8)) + max(-c * (b - a), 0)
        f0 = Polynomial([d - c * a, c])
    else:
        exps |= {0, 1, 2}
        m = draw(small_rationals(-12, 12))
        eps = draw(small_rationals(1, 8))
        f0 = Polynomial([m * m + eps, -2 * m, 1])
    return build_space(sorted(exps), a, b), f0


def agreed_coordinates(f, basis):
    """coordinates(f, basis), checked against the Bareiss reference: the
    same vector, or None when both raise NotInSpace."""
    try:
        expected = reference_coordinates(f, basis.elements)
    except NotInSpace:
        with pytest.raises(NotInSpace):
            coordinates(f, basis)
        return None
    assert coordinates(f, basis) == expected
    return expected


class TestCoordinatesAgainstReference:
    @given(spans_with_weights(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_base_and_derived_bases(self, case, data):
        space, f0 = case
        coeffs = [0] * (space.exponents[-1] + 1)
        for e in space.exponents:
            coeffs[e] = data.draw(small_rationals(-9, 9))
        f1 = Polynomial(coeffs)
        m = data.draw(st.sampled_from(
            [m for m in range(space.exponents[-1] + 2) if m not in space.exponents]))
        primitive = bernstein_basis(space)
        assume(not isinstance(primitive, NoBasisReport))
        basis = normalize_when_possible(primitive)
        for b in (primitive, basis):
            assert agreed_coordinates(f0, b) is not None
            assert agreed_coordinates(f1, b) is not None
            assert (agreed_coordinates(ONE, b) is None) == (0 not in space.exponents)
            assert agreed_coordinates(Polynomial.monomial(m), b) is None

        beta = coordinates(f0, basis)
        if all(bk > 0 for bk in beta):
            derived = derived_space(basis, beta, f0)
            assert agreed_coordinates(derived_numerator(f1, f0), derived) is not None
            for f in (f0, f1, ONE):
                agreed_coordinates(f, derived)


def taylor_reference(p, a, count):
    """p^(j)(a) / j! = sum_i binom(i, j) c_i a^(i - j) for j < count, over Fractions."""
    return tuple(sum((comb(i, j) * c * a ** (i - j) for i, c in enumerate(p.coeffs) if i >= j),
                     Fraction(0)) for j in range(count))


class TestCarriedJets:
    @given(spans_with_weights())
    @settings(max_examples=150, deadline=None)
    def test_jets_are_the_elements_taylor_coefficients(self, case):
        space, f0 = case
        primitive = bernstein_basis(space)
        assume(not isinstance(primitive, NoBasisReport))
        bases = [primitive, normalize_when_possible(primitive)]
        beta = coordinates(f0, bases[1])
        if all(bk > 0 for bk in beta):
            images = [derived_numerator(g, f0) for g in space.monomials() if g.degree != f0.degree]
            by_solves = basis_from_generators(images, space.a, space.b)
            bases += [derived_space(bases[1], beta, f0), by_solves,
                      normalize_when_possible(by_solves)]
        for basis in bases:
            assert len(basis.jets) == len(basis.elements)
            for (den, nums), p in zip(basis.jets, basis.elements):
                assert den > 0 and gcd(den, *nums) == 1
                assert tuple(Fraction(v, den) for v in nums) == taylor_reference(
                    p, space.a, len(basis.elements))


def derived_reference(space, f0):
    """Reference: the derived basis by null-space solves over the images of
    the monomials, all but the one of x^deg(f0)."""
    images = [derived_numerator(g, f0) for g in space.monomials() if g.degree != f0.degree]
    return normalize_when_possible(basis_from_generators(images, space.a, space.b))


class TestDerivedGenerators:
    @given(spans_with_weights())
    @settings(max_examples=150, deadline=None)
    def test_theorem_drops_exactly_the_greedy_reject(self, case):
        space, f0 = case
        f0d = f0.derivative()
        kept = [g.derivative() * f0 - g * f0d
                for g in space.monomials() if g.degree != f0.degree]
        independent = greedy_generators(space, f0)
        assert kept == independent
        rank = sympy.Matrix([
            [sympy.Rational(c.numerator, c.denominator) for c in
             (img.coeff(i) for i in range(2 * max(space.exponents) + 1))]
            for img in kept
        ]).rank()
        assert rank == len(kept) == space.order

        basis = normalize_when_possible(bernstein_basis(space))
        if isinstance(basis, NoBasisReport):
            return
        beta = coordinates(f0, basis)
        if all(bk > 0 for bk in beta):
            reference = derived_reference(space, f0)
            assert derived_space(basis, beta, f0).to_json() == reference.to_json()
        else:
            with pytest.raises(DerivedBasisUnavailable):
                derived_space(basis, beta, f0)


@st.composite
def planted_problems(draw):
    """(space, f0, ratios): a span and f0 from spans_with_weights whose base
    basis exists with every beta_k > 0, and planted ratios r_k."""
    space, f0 = draw(spans_with_weights())
    basis = normalize_when_possible(bernstein_basis(space))
    assume(not isinstance(basis, NoBasisReport))
    assume(all(bk > 0 for bk in coordinates(f0, basis)))
    ratios = draw(st.lists(small_rationals(-9, 9), min_size=space.dimension,
                           max_size=space.dimension))
    return space, f0, ratios


def check_tail_sum_identity(space, f0, ratios):
    """With T_k = sum_{j>=k} beta_j p_j / f0 and f1 = sum r_k beta_k p_k,
    f1 / f0 = r_0 + sum_{k>=1} (r_k - r_{k-1}) T_k.  The numerator N_k of
    T_k' is s_k Q_{k-1} with s_k > 0, so w_{k-1} = s_k (r_k - r_{k-1})."""
    basis = normalize_when_possible(bernstein_basis(space))
    beta = coordinates(f0, basis)
    derived = derived_space(basis, beta, f0)
    assert derived.to_json() == derived_reference(space, f0).to_json()

    f1 = Polynomial.zero()
    for r, bk, p in zip(ratios, beta, basis.elements):
        f1 = f1 + p.scale(r * bk)
    assert coordinates(f1, basis) == tuple(r * bk for r, bk in zip(ratios, beta))
    w = coordinates(derived_numerator(f1, f0), derived)

    tail = Polynomial.zero()
    for k in range(space.order, 0, -1):
        tail = tail + basis.elements[k].scale(beta[k])
        numerator, q = derived_numerator(tail, f0), derived.elements[k - 1]
        s_k = numerator.leading / q.leading
        assert numerator == q.scale(s_k)
        assert s_k > 0
        assert w[k - 1] == s_k * (ratios[k] - ratios[k - 1])


class TestAbelIdentity:
    @given(planted_problems())
    @settings(max_examples=120, deadline=None)
    def test_planted(self, case):
        check_tail_sum_identity(*case)

    @pytest.mark.parametrize("exponents, a, b, f0", [
        ([0, 1, 2, 5], -2, Fraction(-1, 2), "0:1,2:1"),
        ([0, 1, 2, 5], -1, Fraction(1, 2), "0:1,2:1"),
        ([0, 1, 2, 5], Fraction(1, 2), 2, "0:1,2:1"),
        ([0, 1, 3, 6], -2, Fraction(-1, 2), "0:3,1:1"),
        ([0, 1, 2, 5], -1, Fraction(1, 2), "0:2,1:1"),
        ([0, 1, 3, 6], Fraction(1, 2), 2, "0:3,1:1"),
        ([0, 1, 3, 4], Fraction(-1, 3), 2, "0:3,1:1"),  # signed base and derived bases
    ])
    def test_gap_spans_on_every_side(self, exponents, a, b, f0):
        space = build_space(exponents, a, b)
        ratios = [Fraction(v, 3) for v in (2, -1, 4, 0, 5, -7)[:space.dimension]]
        check_tail_sum_identity(space, Polynomial.from_sparse(f0), ratios)


def every_index_reference(space):
    """Reference: the refusal loop that solves every index k = 0..n and
    keeps the highest failure; otherwise the oriented primitive elements."""
    gens, a, b = space.monomials(), space.a, space.b
    n = len(gens) - 1
    at_a = [[g.derivative(j)(a) for g in gens] for j in range(n + 1)]
    at_b = [[g.derivative(j)(b) for g in gens] for j in range(n + 1)]
    elements, failures = [], []
    for k in range(n + 1):
        rows = at_a[:k] + at_b[:n - k]
        null = reference_nullspace(rows) if rows else ((Fraction(1),),)
        if len(null) != 1:
            failures.append({"index": k, "kind": "degenerate-solution-space",
                             "nullity": len(null)})
            continue
        p = Polynomial.zero()
        for c, g in zip(null[0], gens):
            p = p + g.scale(c)
        da, db = p.derivative(k)(a), p.derivative(n - k)(b)
        if da == 0 or db == 0:
            failures.append({"index": k, "kind": "forced-extra-zero",
                             "endpoint": "a" if da == 0 else "b",
                             "witness": p.primitive().to_sparse()})
            continue
        elements.append(p.primitive() if db * (-1) ** (n - k) > 0 else (-p).primitive())
    return failures[-1] if failures else elements


def derived_fields_json(basis):
    """Reference to_json: zero orders, positivity and scaling derived from
    the element count, the elements' verdicts and `normalized`."""
    verdicts = {c.verdict for c in basis.classifications}
    if verdicts <= {"strictly-positive"}:
        positivity = "positive"
    elif verdicts <= {"strictly-positive", "non-negative-with-interior-zeros"}:
        positivity = "non-negative"
    else:
        positivity = "signed"
    n = len(basis.elements) - 1
    return {
        "a": format_rational(basis.a),
        "b": format_rational(basis.b),
        "grade": "normalized" if basis.normalized else positivity,
        "positivity": positivity,
        "scaling": "partition-of-unity" if basis.normalized else "primitive",
        "elements": [p.to_sparse() for p in basis.elements],
        "zero_orders": [[k, n - k] for k in range(n + 1)],
        "classifications": [c.to_json() for c in basis.classifications],
    }


@st.composite
def monomial_spans(draw):
    """1 to 6 exponents from 0..12 on a negative, straddling or positive interval."""
    exps = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True)))
    side = draw(st.sampled_from(["negative", "straddle", "positive"]))
    width = draw(small_rationals(1, 12))
    if side == "negative":
        b = -draw(small_rationals(0, 8))
        a = b - width
    elif side == "positive":
        a = draw(small_rationals(0, 8))
        b = a + width
    else:
        a, b = -draw(small_rationals(1, 8)), draw(small_rationals(1, 8))
    return build_space(exps, a, b)


class TestRefusalChoice:
    @given(monomial_spans())
    @settings(max_examples=200, deadline=None)
    def test_matches_every_index_reference(self, space):
        result = bernstein_basis(space)
        reference = every_index_reference(space)
        if isinstance(reference, dict):
            assert result.to_json() == reference
            return
        assert result.elements == tuple(reference)
        assert result.classifications == tuple(
            classify_on_interval(p, space.a, space.b) for p in reference)
        for basis in (result, normalize_when_possible(result)):
            assert basis.to_json() == derived_fields_json(basis)


@st.composite
def one_signed_spans(draw):
    """1 to 6 exponents from 0..13 on an interval 0 < a < b, or its mirror."""
    exps = sorted(draw(st.lists(st.integers(0, 13), min_size=1, max_size=6, unique=True)))
    a = draw(small_rationals(1, 8))
    b = a + draw(small_rationals(1, 12))
    return build_space(exps, *((-b, -a) if draw(st.booleans()) else (a, b)))


class TestOneSignedIntervals:
    @given(one_signed_spans())
    @settings(max_examples=200, deadline=None)
    def test_strictly_positive_basis(self, space):
        """On an interval inside (0, inf) or (-inf, 0) a monomial span is an
        extended Chebyshev space (Descartes' rule of signs), so it has a
        Bernstein basis of strictly positive elements: Mazure, "Chebyshev
        spaces and Bernstein bases", Constr. Approx. (2005)."""
        basis = bernstein_basis(space)
        assert isinstance(basis, BernsteinBasis)
        assert basis.positivity == GRADE_POSITIVE
