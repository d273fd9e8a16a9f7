"""Monomial-span spaces and Bernstein basis construction.

A Bernstein basis element of index k vanishes to order exactly k at the
left endpoint and exactly n-k at the right endpoint.  Construction imposes
the vanishing conditions as Taylor coefficients at the endpoints on the
coefficient vector over the space's generators, which works uniformly for
sparse exponent sets where factoring (x-a)^k would leave the span.  The
tables of those Taylor coefficients are integer rows, and each element is
an integer null vector of some of them, so a basis is built without
Fractions.  The same exact orders make the Taylor coefficients of a basis
at a triangular: the basis carries them (its jets, read off the table at
a), and coordinates come by forward substitution on their numerators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Optional, Union

from .errors import (
    BadExponents,
    BadInterval,
    ConstantNotInSpace,
    DegreeTooLarge,
    DerivedBasisUnavailable,
    DimensionTooLarge,
    NonPositiveScalar,
    NotInSpace,
)
from .linsolve import solve_linear
from .polynomial import MAX_DEGREE, Polynomial, check_degree
from .rational import as_rational, format_rational, reduced_form, sign
from .sturm import (
    NONNEG_INTERIOR_ZEROS,
    STRICTLY_POSITIVE,
    classify_on_interval,
)

GRADE_SIGNED = "signed"
GRADE_NON_NEGATIVE = "non-negative"
GRADE_POSITIVE = "positive"
GRADE_NORMALIZED = "normalized"

FORCED_EXTRA_ZERO = "forced-extra-zero"
DEGENERATE_SOLUTION_SPACE = "degenerate-solution-space"

MAX_DIMENSION = 33  # the most monomials in a space; its basis costs O(n^4)

# The largest n^2 e for a space of order n and top exponent e: that of
# [0, 1, MAX_DEGREE].  On a 2-core Xeon under CPython 3.11, as a CLI process,
# `bernstein-forge basis` of [0..n-1, e] on [1, 2] at n^2 e = MAX_SIZE takes
# 0.30 s at n = 2 and at most 0.21 s for n = 3..32, where [0..23, 20000] ran
# over 300 s.  `bernstein-forge exists` on the same spans with (f0, f1) =
# (1, x) takes 0.56 s at n = 2, 0.23 s at n = 3 and at most 0.27 s for
# n = 4..32.
MAX_SIZE = 4 * MAX_DEGREE


@dataclass(frozen=True)
class MonomialSpace:
    """Span of distinct monomials x^e over a rational interval [a, b]."""

    exponents: tuple
    a: Fraction
    b: Fraction

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def order(self) -> int:
        """n, where the space has dimension n + 1."""
        return len(self.exponents) - 1

    def monomials(self) -> list:
        return [Polynomial.monomial(e) for e in self.exponents]

    def contains(self, f: Polynomial) -> bool:
        return all(e in self.exponents for e in f.support())

    def to_json(self):
        return {
            "exponents": list(self.exponents),
            "a": format_rational(self.a),
            "b": format_rational(self.b),
        }

    @classmethod
    def from_json(cls, obj) -> "MonomialSpace":
        return build_space(*descriptor_fields(obj, "space", ("exponents", "a", "b")))


def descriptor_fields(obj, kind: str, keys: tuple) -> list:
    """The values of keys in a JSON descriptor, refused unless all are there."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} descriptor must be a JSON object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{kind} descriptor is missing key {key!r}")
    return [obj[key] for key in keys]


def build_space(exponents, a, b) -> MonomialSpace:
    """The span of x^e over [a, b]; exponents are ints, a and b exact rationals.

    A top exponent above polynomial.MAX_DEGREE, or an order n and top
    exponent e with n^2 e above MAX_SIZE, is refused by DegreeTooLarge, and
    more than MAX_DIMENSION exponents by DimensionTooLarge.
    """
    if not isinstance(exponents, (list, tuple, range)) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in exponents
    ):
        raise BadExponents(f"exponents must be a list of integers, got {exponents!r}")
    exps = tuple(exponents)
    if not exps or any(e < 0 for e in exps) or any(
        x >= y for x, y in zip(exps, exps[1:])
    ):
        raise BadExponents(f"exponents must be non-negative, strictly increasing: {exps}")
    if len(exps) > MAX_DIMENSION:
        raise DimensionTooLarge(f"space dimension {len(exps)} is above the maximum {MAX_DIMENSION}")
    check_degree(exps[-1], "top exponent")
    size = (len(exps) - 1) ** 2 * exps[-1]
    if size > MAX_SIZE:
        raise DegreeTooLarge(f"space of order {len(exps) - 1} and top exponent {exps[-1]} "
                             f"has n^2 e = {size}, above the maximum {MAX_SIZE}")
    try:
        a, b = as_rational(a), as_rational(b)
    except TypeError as exc:
        raise BadInterval(f"interval endpoints must be integers or \"p/q\" strings: {exc}") from None
    if not a < b:
        raise BadInterval(f"need a < b, got [{format_rational(a)}, {format_rational(b)}]")
    return MonomialSpace(exps, a, b)


@dataclass(frozen=True)
class NoBasisReport:
    """Why no Bernstein basis exists, with a checkable witness.

    kind is "forced-extra-zero" when the unique candidate for index k
    vanishes to higher order than required at `endpoint`, and
    "degenerate-solution-space" when the vanishing conditions leave more
    than one degree of freedom (nullity carries the dimension).
    """

    index: int
    kind: str
    endpoint: Optional[str] = None  # "a" or "b" for forced-extra-zero
    witness: Optional[Polynomial] = None
    nullity: Optional[int] = None

    def to_json(self):
        out = {"index": self.index, "kind": self.kind}
        if self.endpoint is not None:
            out["endpoint"] = self.endpoint
        if self.witness is not None:
            out["witness"] = self.witness.to_sparse()
        if self.nullity is not None:
            out["nullity"] = self.nullity
        return out


@dataclass(frozen=True)
class BernsteinBasis:
    """Elements p_0..p_n with their sign verdicts on (a, b).

    jets[k] is (E, numerators) with p_k^(j)(a) / j! = numerators[j] / E for
    j = 0..n, in lowest terms: the first k numerators are zero and the next
    is not, by construction.  Whatever builds a basis sets them.
    """

    elements: tuple  # n + 1 Polynomials
    classifications: tuple  # per element SignClassification on (a, b)
    normalized: bool
    a: Fraction
    b: Fraction
    jets: tuple

    @property
    def order(self) -> int:
        return len(self.elements) - 1

    @property
    def zero_orders(self) -> tuple:
        """Per element (order at a, order at b): (k, n - k) by construction."""
        n = self.order
        return tuple((k, n - k) for k in range(n + 1))

    @property
    def positivity(self) -> str:
        """signed | non-negative | positive, from the elements' verdicts."""
        verdicts = {c.verdict for c in self.classifications}
        if verdicts <= {STRICTLY_POSITIVE}:
            return GRADE_POSITIVE
        if verdicts <= {STRICTLY_POSITIVE, NONNEG_INTERIOR_ZEROS}:
            return GRADE_NON_NEGATIVE
        return GRADE_SIGNED

    @property
    def scaling(self) -> str:
        return "partition-of-unity" if self.normalized else "primitive"

    @property
    def grade(self) -> str:
        return GRADE_NORMALIZED if self.normalized else self.positivity

    def to_json(self):
        return {
            "a": format_rational(self.a),
            "b": format_rational(self.b),
            "grade": self.grade,
            "positivity": self.positivity,
            "scaling": self.scaling,
            "elements": [p.to_sparse() for p in self.elements],
            "zero_orders": [list(z) for z in self.zero_orders],
            "classifications": [c.to_json() for c in self.classifications],
        }


def basis_from_generators(generators, a, b) -> Union[BernsteinBasis, NoBasisReport]:
    """Bernstein basis of span(generators) on [a, b], or a refusal report.

    Element k is the solution of p^(j)(a) = 0 for j < k and p^(j)(b) = 0
    for j < n-k, required to be one-dimensional with the zero orders exact.
    Scaling is canonical: integer primitive coefficients, oriented so the
    element is positive immediately to the left of b.  Raises ValueError
    when a candidate is the zero polynomial: the generators are then
    linearly dependent.
    """
    a, b = as_rational(a), as_rational(b)
    n = len(generators) - 1
    at_a, gains, den_a = _taylor_table(generators, a, n + 1)
    at_b = _taylor_table(generators, b, n + 1)[0]

    # From k = n down, so the first failure met is the highest failing
    # index: the refusal pinpoints the most constrained element.
    elements, jets = [], []
    for k in range(n, -1, -1):
        rows = at_a[:k] + at_b[:n - k]
        null = solve_linear(rows).nullspace if rows else ((1,),)
        if len(null) != 1:
            return NoBasisReport(k, DEGENERATE_SOLUTION_SPACE, nullity=len(null))
        coords = null[0]
        p = Polynomial.combination(coords, generators)
        if p.is_zero:  # the null vector is a dependency among the generators
            raise ValueError("generators are linearly dependent")
        # p^(j)(a) / j! for j >= k and p^(n-k)(b) / (n-k)!, read from the
        # tables up to positive factors; those at a for j < k are zero.
        m = n - k
        dots = [sum(c * v for c, v in zip(coords, row)) for row in at_a[k:]]
        db = sum(c * v for c, v in zip(coords, at_b[m]))
        if dots[0] == 0 or db == 0:
            return NoBasisReport(
                k, FORCED_EXTRA_ZERO, endpoint="a" if dots[0] == 0 else "b", witness=p.primitive()
            )
        # Orient positive just inside b: sign there is that of db * (-1)^(n-k).
        orient = sign(db) * (-1) ** m
        den, nums = p.form  # p.primitive() is p times den / gcd(*nums)
        elements.append(p.primitive() if orient > 0 else -p.primitive())
        jets.append(reduced_form(den_a * gcd(*nums), [0] * k + [
            orient * den * g * d for g, d in zip(gains[k:], dots)]))
    elements.reverse()
    jets.reverse()
    classifications = tuple(classify_on_interval(p, a, b) for p in elements)
    return BernsteinBasis(tuple(elements), classifications, normalized=False, a=a, b=b,
                          jets=tuple(jets))


def _taylor_table(generators, x, count: int) -> tuple:
    """(rows, gains, D): rows[j][i] gains[j] / D = g_i^(j)(x) / j! for the
    generators g_i and j < count, each row primitive.

    Scaling a row by a positive number leaves its null vectors and the
    signs of its dot products unchanged.
    """
    forms = [g.taylor_form(x, count) for g in generators]
    den = lcm(*(e for e, _ in forms))
    rows, gains = [], []
    for row in zip(*([c * (den // e) for c in nums] for e, nums in forms)):
        g = gcd(*row) or 1
        rows.append([c // g for c in row])
        gains.append(g)
    return rows, gains, den


def bernstein_basis(space: MonomialSpace) -> Union[BernsteinBasis, NoBasisReport]:
    return basis_from_generators(space.monomials(), space.a, space.b)


def normalize_partition_of_unity(basis: BernsteinBasis) -> BernsteinBasis:
    """Rescale a non-negative basis so the elements sum exactly to 1."""
    if basis.positivity == GRADE_SIGNED:
        raise NonPositiveScalar("cannot normalize a signed basis")
    try:
        scalars = coordinates(Polynomial.one(), basis)
    except NotInSpace as exc:
        raise ConstantNotInSpace("constant 1 is not in the span") from exc
    if any(c <= 0 for c in scalars):
        raise NonPositiveScalar(f"non-positive partition scalar in {scalars}")
    # Verdicts are invariant under scaling by c > 0.
    return replace(basis, elements=tuple(p.scale(c) for p, c in zip(basis.elements, scalars)),
                   jets=tuple(reduced_form(den * c.denominator, [c.numerator * v for v in nums])
                              for (den, nums), c in zip(basis.jets, scalars)),
                   normalized=True)


def normalize_when_possible(
    result: Union[BernsteinBasis, NoBasisReport],
) -> Union[BernsteinBasis, NoBasisReport]:
    """The basis the operator theory works in: normalized when possible.

    A refusal report or a signed basis passes through unchanged, and so
    does a basis whose span lacks the constant 1; any other failure of the
    normalization propagates.
    """
    if isinstance(result, NoBasisReport) or result.positivity == GRADE_SIGNED:
        return result
    try:
        return normalize_partition_of_unity(result)
    except ConstantNotInSpace:
        return result


def coordinates(f: Polynomial, basis: BernsteinBasis) -> tuple:
    """Exact coordinate vector of f in the basis; NotInSpace when f is not
    in its span.

    Element k has exact order k at a, so the Taylor coefficients at a of
    the elements form a lower-triangular matrix with a non-zero diagonal,
    and forward substitution on those of f gives the only candidate.  It
    runs on the integer numerators of the jets over one running product of
    the diagonal entries; each coordinate becomes a Fraction at the end.
    One exact check that the sum of c_k p_k is f decides membership.
    """
    jets = basis.jets
    den, target = f.taylor_form(basis.a, len(jets))
    # z_k = c_k den / E_k, the solution of sum_{k<=i} z_k jet_k[i] = target[i],
    # is scaled[k] / prod, prod the product of the diagonal entries so far.
    prod, scaled = 1, []
    for i, (_, own) in enumerate(jets):
        rest = sum(z * jet[i] for z, (_, jet) in zip(scaled, jets))  # elements k < i
        scaled = [z * own[i] for z in scaled]
        scaled.append(target[i] * prod - rest)
        prod *= own[i]
    coords = tuple(Fraction(z * e, prod * den) for z, (e, _) in zip(scaled, jets))
    if Polynomial.combination(coords, basis.elements) != f:
        raise NotInSpace(f"{f.to_sparse()} is not in the span")
    return coords


def certify_positive_on_closed(p: Polynomial, a, b) -> bool:
    """Exact check that p > 0 on the closed interval [a, b]."""
    if p.sign_at(a) <= 0 or p.sign_at(b) <= 0:
        return False
    return classify_on_interval(p, a, b).verdict == STRICTLY_POSITIVE


def derived_numerator(f: Polynomial, f0: Polynomial) -> Polynomial:
    """f' f0 - f f0', the numerator of (f / f0)' over the common f0^2."""
    return f.derivative() * f0 - f * f0.derivative()


def derived_space(basis: BernsteinBasis, beta, f0: Polynomial) -> BernsteinBasis:
    """Bernstein basis of {d/dx (f / f0) : f in the space}, by numerators.

    `basis` is the space's basis p_0..p_n as normalize_when_possible returns
    it, and beta = coordinates(f0, basis) > 0, else DerivedBasisUnavailable.
    An element Q stands for Q / f0^2: same zero orders and sign verdicts.

    Element k-1 is primitive(N_k), N_k = derived_numerator(S_k, f0) for the
    tail sum S_k = sum_{j>=k} beta_j p_j, k = 1..n.  S_k has exact order k at
    a (beta_k != 0), so N_k = f0^2 (S_k / f0)' has exact order k-1 there.
    f0 - S_k = sum_{j<k} beta_j p_j has exact order n-k+1 at b and, led by
    beta_{k-1} p_{k-1}, is positive just inside b; so N_k = -f0^2 ((f0 - S_k)
    / f0)' has exact order n-k at b and is positive just inside b.  N_1..N_n
    span the n-dimensional numerator space and are triangular at both ends:
    order >= k-1 at a leaves only N_j with j >= k, order >= n-k at b only
    j <= k.  So each index has nullity 1 and exact orders, and primitive(N_k)
    is what basis_from_generators returns for index k-1.  The basis is
    normalized when possible.
    """
    if any(bk <= 0 for bk in beta):
        raise DerivedBasisUnavailable("derived basis needs every beta_k > 0")
    # S_n, S_{n-1}, ..., S_1: the terms beta_k p_k from k = n down to 1, summed.
    tails = accumulate(p.scale(bk) for p, bk in zip(basis.elements[:0:-1], beta[:0:-1]))
    elements = [derived_numerator(s, f0).primitive() for s in tails][::-1]
    classifications = tuple(classify_on_interval(q, basis.a, basis.b) for q in elements)
    jets = tuple(q.taylor_form(basis.a, len(elements)) for q in elements)
    return normalize_when_possible(BernsteinBasis(
        tuple(elements), classifications, normalized=False, a=basis.a, b=basis.b, jets=jets))
