"""Certified root counting, sign classification, and bisection enclosures.

Everything here runs over exact rationals: a sign verdict rests on a
Descartes certificate (no root in the interval, from sign variations and
endpoint root orders) or else on a Sturm chain's exact counts of distinct
real roots; classifications carry checkable witnesses, and bisection
midpoint signs never see a float.  Every test that needs only a sign uses
`Polynomial.sign_at`, which builds no Fraction.  Bisection goes further:
it halves integer numerators over one doubling denominator and tests each
midpoint with `Polynomial.sign_at_pair` on that unreduced pair, so it
builds Fractions only for what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadTolerance, NoBracket, ZeroPolynomial
from .polynomial import Polynomial
from .rational import as_rational, format_rational, integer_form

STRICTLY_POSITIVE = "strictly-positive"
NONNEG_INTERIOR_ZEROS = "non-negative-with-interior-zeros"
SIGN_CHANGING = "sign-changing"
STRICTLY_NEGATIVE = "strictly-negative"
NONPOS_INTERIOR_ZEROS = "non-positive-with-interior-zeros"
IDENTICALLY_ZERO = "identically-zero"


@dataclass(frozen=True)
class SturmChain:
    """Sturm sequence of the square-free polynomial sequence[0].

    variations(lo) - variations(hi) counts its distinct roots in (lo, hi].
    """

    sequence: tuple

    def variations(self, x) -> int:
        x = as_rational(x)
        signs = [p.sign_at(x) for p in self.sequence]
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def open_count(self, lo, hi) -> int:
        """Number of distinct roots of sequence[0] in the open (lo, hi)."""
        at_hi = self.sequence[0].sign_at(hi) == 0
        return self.variations(lo) - self.variations(hi) - at_hi


@dataclass(frozen=True)
class SampleWitness:
    x: Fraction
    sign: int

    def to_json(self):
        return {"kind": "sample", "x": format_rational(self.x), "sign": self.sign}


@dataclass(frozen=True)
class Enclosure:
    """Rational interval [lo, hi]; lo == hi marks an exact rational."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_json(self):
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}


@dataclass(frozen=True)
class SignClassification:
    """A verdict with its witnesses: exact sign samples and the enclosures
    of the interior roots."""

    verdict: str
    samples: tuple  # SampleWitness per sample point
    roots: tuple  # Enclosure per distinct interior root

    def to_json(self):
        return {
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.samples]
            + [{"kind": "root-interval", **e.to_json()} for e in self.roots],
        }


def sturm_chain(p: Polynomial) -> SturmChain:
    """Sturm chain of the square-free part of p, from one remainder sequence.

    The signed remainder sequence of (p, p') ends at g, gcd(p, p') up to a
    constant.  Dividing each element by monic g, when g is not constant,
    leaves a Sturm sequence of the square-free part p / g (Basu, Pollack &
    Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    seq = [p]
    if p.degree > 0:
        seq.append(p.derivative())
        while seq[-1].degree > 0:
            rem = seq[-2] % seq[-1]
            if rem.is_zero:
                break
            seq.append(-rem)
        if seq[-1].degree > 0:
            g = seq[-1].monic()
            seq = [q.div_exact(g) for q in seq]
    return SturmChain(tuple(seq))


def sturm_count(
    p: Polynomial,
    lo,
    hi,
    *,
    include_lo: bool,
    include_hi: bool,
) -> int:
    """Exact number of distinct real roots of p in the given interval.

    Endpoint openness is explicit; there is no silent default.
    """
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    lo, hi = as_rational(lo), as_rational(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    count = sturm_chain(p).open_count(lo, hi)
    if include_lo and p.sign_at(lo) == 0:
        count += 1
    if include_hi and p.sign_at(hi) == 0:
        count += 1
    return count


def isolate_roots(p: Polynomial, a, b) -> list:
    """Disjoint enclosures for the distinct roots of p in the open (a, b).

    Each element is an Enclosure; exact rational roots come back with
    zero width, every other enclosure has non-root endpoints and contains
    exactly one distinct root.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree <= 0:
        return []
    a, b = as_rational(a), as_rational(b)
    chain = sturm_chain(p)
    sf = chain.sequence[0]  # the square-free part of p
    out = []
    stack = [(a, b, chain.open_count(a, b))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and sf.sign_at(lo) != 0 and sf.sign_at(hi) != 0:
            out.append(Enclosure(lo, hi))
            continue
        mid = (lo + hi) / 2
        if sf.sign_at(mid) == 0:
            out.append(Enclosure(mid, mid))
        stack.append((lo, mid, chain.open_count(lo, mid)))
        stack.append((mid, hi, chain.open_count(mid, hi)))
    out.sort(key=lambda e: e.lo)
    return out


def descartes_root_free(p: Polynomial, a, b) -> bool:
    """True when Descartes' rule of signs proves p has no root in (a, b).

    For 0 <= a < b, p has at most V roots in (0, inf), counted with
    multiplicity, where V is the number of sign variations of its
    coefficients.  The roots at b, and at a when a > 0, are among them, so
    once their orders add up to V none is left for (a, b).  A root at 0 is
    not positive and is not counted.  For a < b <= 0 the same holds for
    p(-x) on [-b, -a], whose coefficients flip sign at odd degrees and
    whose root orders at -b and -a are those of p at b and a.  For a < 0 < b
    the interval is split at 0, which must not be a root.  A count short of
    V, or the zero polynomial, proves nothing: False.
    """
    if p.is_zero:
        return False
    if a < 0 < b:
        return p.sign_at(0) != 0 and descartes_root_free(p, a, 0) and descartes_root_free(p, 0, b)
    mirrored = b <= 0
    signs = [(c > 0) != (mirrored and i % 2 == 1) for i, c in enumerate(p.coeffs) if c]
    budget = sum(s != t for s, t in zip(signs, signs[1:]))
    for end in (a, b):
        if end != 0 and budget > 0:
            budget -= p.root_order(end, budget)
    return budget <= 0


def classify_on_interval(p: Polynomial, a, b) -> SignClassification:
    """Sign behavior of p on the open interval (a, b), with witnesses.

    When `descartes_root_free` certifies that (a, b) holds no root, one
    exact sample at the midpoint decides the verdict.  Otherwise interior
    zeros are isolated by a Sturm chain; exact sign samples between the
    root regions decide the verdict, which distinguishes strict positivity
    from non-negativity with interior zeros (even-multiplicity roots).
    Both certificates give the same verdict and witnesses.
    """
    a, b = as_rational(a), as_rational(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.is_zero:
        return SignClassification(IDENTICALLY_ZERO, (SampleWitness((a + b) / 2, 0),), ())

    enclosures = [] if descartes_root_free(p, a, b) else isolate_roots(p, a, b)
    if not enclosures:
        m = (a + b) / 2
        s = p.sign_at(m)
        verdict = STRICTLY_POSITIVE if s > 0 else STRICTLY_NEGATIVE
        return SignClassification(verdict, (SampleWitness(m, s),), ())

    # Sample points strictly between consecutive root regions.  Shared
    # enclosure endpoints are themselves non-roots and usable directly.
    points = []
    cursor = a
    for enc in enclosures:
        if cursor == enc.lo:
            if p.sign_at(cursor) != 0:
                points.append(cursor)
        else:
            points.append((cursor + enc.lo) / 2)
        cursor = enc.hi
    points.append(b if cursor == b else (cursor + b) / 2)

    samples = []
    signs = set()
    for x in points:
        s = p.sign_at(x)
        if s == 0:  # only possible at the closed-boundary samples a or b
            continue
        signs.add(s)
        samples.append(SampleWitness(x, s))

    if signs == {1}:
        verdict = NONNEG_INTERIOR_ZEROS
    elif signs == {-1}:
        verdict = NONPOS_INTERIOR_ZEROS
    else:
        verdict = SIGN_CHANGING
    return SignClassification(verdict, tuple(samples), tuple(enclosures))


def rational_root_in(p: Polynomial, enc: Enclosure) -> Enclosure:
    """enc narrowed to the root of p in it when that root is rational, else enc.

    enc is exact or brackets a sign change of p around its only root, as
    `bisect_root` and `isolate_roots` return them (the latter for the
    square-free part).  With N the leading coefficient of the primitive
    integer form of p, a rational root has a denominator dividing N, and
    two distinct such rationals lie at least 1/N^2 apart.  So once a copy
    of enc is halved to width 1/(2 N^2), the only candidate is the fraction
    nearest its midpoint with denominator at most N, tested exactly.
    """
    if enc.is_exact:
        return enc
    n = int(abs(p.primitive().leading))
    fine = bisect_root(p, enc.lo, enc.hi, Fraction(1, 2 * n * n))
    if fine.is_exact:
        return fine
    candidate = fine.midpoint().limit_denominator(n)
    if fine.lo < candidate < fine.hi and p.sign_at(candidate) == 0:
        return Enclosure(candidate, candidate)
    return enc


def bisect_root(p: Polynomial, lo, hi, tol) -> Enclosure:
    """Certified bisection enclosure of width <= tol for a sign change of p.

    Endpoint roots and exact midpoint hits come back with zero width.
    Raises BadTolerance unless tol > 0, ValueError unless lo < hi, and
    NoBracket when the exact endpoint signs agree and neither endpoint is
    a root.

    The halvings run on integers.  With lo = L/D and hi = (L + W)/D over
    one denominator, the midpoint is (2L + W)/2D: each step doubles L and
    D, keeps W, and tests the sign of p at the unreduced pair.  The width
    W/D halves each step, so the step count is known before the first.
    The midpoints are the dyadic points of a Fraction loop, in the same
    order; Fractions are built only for a midpoint root or the result.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    tol = as_rational(tol)
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {format_rational(tol)}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    s_lo, s_hi = p.sign_at(lo), p.sign_at(hi)
    if s_lo == 0:
        return Enclosure(lo, lo)
    if s_hi == 0:
        return Enclosure(hi, hi)
    if s_lo == s_hi:
        raise NoBracket(
            f"p({format_rational(lo)}) and p({format_rational(hi)}) have equal sign"
        )
    den, (num, high) = integer_form((lo, hi))
    width = high - num
    # The least k with width * tol.den <= tol.num * den * 2^k.
    steps = ((width * tol.denominator - 1) // (tol.numerator * den)).bit_length()
    sign_at_pair = p.sign_at_pair
    for _ in range(steps):
        num <<= 1
        den <<= 1
        s = sign_at_pair(num + width, den)
        if s == 0:
            mid = Fraction(num + width, den)
            return Enclosure(mid, mid)
        if s == s_lo:
            num += width
    return Enclosure(Fraction(num, den), Fraction(num + width, den))
