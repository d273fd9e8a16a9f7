"""Monomial-span spaces and Bernstein basis construction.

A Bernstein basis element of index k vanishes to order exactly k at the
left endpoint and exactly n-k at the right endpoint.  Construction imposes
the vanishing conditions as derivative evaluations on the coefficient
vector over the space's generators, which works uniformly for sparse
exponent sets where factoring (x-a)^k would leave the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    BadExponents,
    BadInterval,
    ConstantNotInSpace,
    F0NotPositive,
    IdentityViolation,
    InconsistentSystem,
    NonPositiveScalar,
    NotInSpace,
)
from .linsolve import solve_linear
from .polynomial import Polynomial
from .rational import as_rational, format_rational, sign
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
    """The span of x^e over [a, b]; exponents are ints, a and b exact rationals."""
    if not isinstance(exponents, (list, tuple, range)) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in exponents
    ):
        raise BadExponents(f"exponents must be a list of integers, got {exponents!r}")
    exps = tuple(exponents)
    if not exps or any(e < 0 for e in exps) or any(
        x >= y for x, y in zip(exps, exps[1:])
    ):
        raise BadExponents(f"exponents must be non-negative, strictly increasing: {exps}")
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
    elements: tuple  # n + 1 Polynomials
    zero_orders: tuple  # per element (order at a, order at b)
    classifications: tuple  # per element SignClassification on (a, b)
    positivity: str  # signed | non-negative | positive
    normalized: bool
    scaling: str
    a: Fraction
    b: Fraction

    @property
    def grade(self) -> str:
        return GRADE_NORMALIZED if self.normalized else self.positivity

    @property
    def order(self) -> int:
        return len(self.elements) - 1

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


def _grade_from(classifications) -> str:
    verdicts = {c.verdict for c in classifications}
    if verdicts <= {STRICTLY_POSITIVE}:
        return GRADE_POSITIVE
    if verdicts <= {STRICTLY_POSITIVE, NONNEG_INTERIOR_ZEROS}:
        return GRADE_NON_NEGATIVE
    return GRADE_SIGNED


def basis_from_generators(generators, a, b) -> Union[BernsteinBasis, NoBasisReport]:
    """Bernstein basis of span(generators) on [a, b], or a refusal report.

    Element k is the solution of p^(j)(a) = 0 for j < k and p^(j)(b) = 0
    for j < n-k, required to be one-dimensional with the zero orders exact.
    Scaling is canonical: integer primitive coefficients, oriented so the
    element is positive immediately to the left of b.
    """
    a, b = as_rational(a), as_rational(b)
    n = len(generators) - 1
    ders = [[g] for g in generators]
    for column in ders:
        for _ in range(n):
            column.append(column[-1].derivative())
    # Row j of each table: the j-th derivatives of the generators at a (b).
    at_a = [[column[j](a) for column in ders] for j in range(n + 1)]
    at_b = [[column[j](b) for column in ders] for j in range(n + 1)]

    elements = []
    failures = []
    for k in range(n + 1):
        rows = at_a[:k] + at_b[:n - k]
        if rows:
            null = solve_linear(rows).nullspace
        else:  # n == 0: no conditions, the space itself
            null = ((Fraction(1),),)
        if len(null) != 1:
            failures.append(NoBasisReport(k, DEGENERATE_SOLUTION_SPACE, nullity=len(null)))
            continue
        coords = null[0]
        p = Polynomial.zero()
        for c, g in zip(coords, generators):
            p = p + g.scale(c)
        # p^(k)(a) and p^(n-k)(b), read from the tables.
        m = n - k
        da = sum(c * v for c, v in zip(coords, at_a[k]))
        db = sum(c * v for c, v in zip(coords, at_b[m]))
        if da == 0 or db == 0:
            failures.append(NoBasisReport(
                k, FORCED_EXTRA_ZERO, endpoint="a" if da == 0 else "b", witness=p.primitive()
            ))
            continue
        # Orient positive just inside b: sign there is p^(n-k)(b) * (-1)^(n-k).
        if sign(db) * (-1) ** m < 0:
            p = -p
        elements.append(p.primitive())
    if failures:
        # Every index is checked; report the highest failing one so the
        # refusal pinpoints the most constrained element.
        return failures[-1]

    classifications = tuple(classify_on_interval(p, a, b) for p in elements)
    return BernsteinBasis(
        elements=tuple(elements),
        zero_orders=tuple((k, n - k) for k in range(n + 1)),
        classifications=classifications,
        positivity=_grade_from(classifications),
        normalized=False,
        scaling="primitive",
        a=a,
        b=b,
    )


def bernstein_basis(space: MonomialSpace) -> Union[BernsteinBasis, NoBasisReport]:
    return basis_from_generators(space.monomials(), space.a, space.b)


def _element_matrix(elements):
    height = max(len(p.coeffs) for p in elements)
    height = max(height, 1)
    return [[p.coeff(i) for p in elements] for i in range(height)], height


def normalize_partition_of_unity(basis: BernsteinBasis) -> BernsteinBasis:
    """Rescale a non-negative basis so the elements sum exactly to 1."""
    if basis.positivity == GRADE_SIGNED:
        raise NonPositiveScalar("cannot normalize a signed basis")
    matrix, height = _element_matrix(basis.elements)
    rhs = [Fraction(1)] + [Fraction(0)] * (height - 1)
    try:
        sol = solve_linear(matrix, rhs)
    except InconsistentSystem as exc:
        raise ConstantNotInSpace("constant 1 is not in the span") from exc
    scalars = sol.particular
    if any(c <= 0 for c in scalars):
        raise NonPositiveScalar(f"non-positive partition scalar in {scalars}")
    return BernsteinBasis(
        elements=tuple(p.scale(c) for p, c in zip(basis.elements, scalars)),
        zero_orders=basis.zero_orders,
        classifications=basis.classifications,  # verdicts invariant under c > 0
        positivity=basis.positivity,
        normalized=True,
        scaling="partition-of-unity",
        a=basis.a,
        b=basis.b,
    )


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


def coordinates(f: Polynomial, basis: Union[BernsteinBasis, tuple, list]) -> tuple:
    """Exact coordinate vector of f in the given basis elements."""
    elements = basis.elements if isinstance(basis, BernsteinBasis) else tuple(basis)
    matrix, height = _element_matrix(elements)
    if len(f.coeffs) > height:
        raise NotInSpace(f"{f.to_sparse()} has degree beyond the span")
    rhs = [f.coeff(i) for i in range(height)]
    try:
        sol = solve_linear(matrix, rhs)
    except InconsistentSystem as exc:
        raise NotInSpace(f"{f.to_sparse()} is not in the span") from exc
    return sol.particular


@dataclass(frozen=True)
class DerivedSpaceRep:
    """Derived space {(f/f0)'} represented by numerator polynomials.

    Each stored basis element Q satisfies q = Q / f0^2 for the actual
    derived-space element q; since f0^2 > 0 on [a, b], zero orders and
    sign classifications transfer unchanged.
    """

    base_space: MonomialSpace
    f0: Polynomial
    basis: BernsteinBasis

    def to_json(self):
        return {
            "base_space": self.base_space.to_json(),
            "f0": self.f0.to_sparse(),
            "basis": self.basis.to_json(),
        }


def certify_positive_on_closed(p: Polynomial, a, b) -> bool:
    """Exact check that p > 0 on the closed interval [a, b]."""
    if p.sign_at(a) <= 0 or p.sign_at(b) <= 0:
        return False
    return classify_on_interval(p, a, b).verdict == STRICTLY_POSITIVE


def derived_space(space: MonomialSpace, f0: Polynomial) -> Union[DerivedSpaceRep, NoBasisReport]:
    """Numerator-space representation of {d/dx (f / f0) : f in the space}.

    The images g' f0 - g f0' of the monomial generators span a space of
    dimension n (the kernel is span{f0}); its Bernstein basis is built with
    target zero orders (k, n-1-k) and normalized to a partition of unity
    whenever the constant lies in the span and the basis is non-negative.
    """
    if not space.contains(f0):
        raise NotInSpace("f0 must lie in the space")
    if not certify_positive_on_closed(f0, space.a, space.b):
        raise F0NotPositive("f0 must be strictly positive on [a, b]")

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
            coordinates(img, independent)
        except NotInSpace:
            independent.append(img)
    if len(independent) != space.order:
        raise IdentityViolation(
            f"derived space has dimension {len(independent)}, expected {space.order}"
        )

    result = normalize_when_possible(basis_from_generators(independent, space.a, space.b))
    if isinstance(result, NoBasisReport):
        return result
    return DerivedSpaceRep(base_space=space, f0=f0, basis=result)
