"""Certified root counting, sign classification, and bisection enclosures.

Everything here runs over exact rationals: Sturm chains give exact counts
of distinct real roots, classifications carry checkable witnesses, and
bisection midpoint signs never see a float.  Every test that needs only a
sign uses `Polynomial.sign_at`, which builds no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BadTolerance, NoBracket, ZeroPolynomial
from .polynomial import Polynomial
from .rational import as_rational, format_rational

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
class RootIntervalWitness:
    lo: Fraction
    hi: Fraction

    def to_json(self):
        return {
            "kind": "root-interval",
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
        }


@dataclass(frozen=True)
class SignClassification:
    verdict: str
    witnesses: tuple

    def to_json(self):
        return {
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


@dataclass(frozen=True)
class RootEnclosure:
    """Rational bracket around a root; lo == hi marks an exact rational root."""

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

    Each element is a RootEnclosure; exact rational roots come back with
    zero width, every other enclosure has non-root endpoints and contains
    exactly one distinct root.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree <= 0:
        return []
    return _isolate(sturm_chain(p), as_rational(a), as_rational(b))


def _isolate(chain: SturmChain, a: Fraction, b: Fraction) -> list:
    """isolate_roots for the square-free chain.sequence[0], reusing its chain."""
    sf = chain.sequence[0]
    out = []
    stack = [(a, b, chain.open_count(a, b))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1 and sf.sign_at(lo) != 0 and sf.sign_at(hi) != 0:
            out.append(RootEnclosure(lo, hi))
            continue
        mid = (lo + hi) / 2
        if sf.sign_at(mid) == 0:
            out.append(RootEnclosure(mid, mid))
        stack.append((lo, mid, chain.open_count(lo, mid)))
        stack.append((mid, hi, chain.open_count(mid, hi)))
    out.sort(key=lambda e: e.lo)
    return out


def classify_on_interval(p: Polynomial, a, b) -> SignClassification:
    """Sign behavior of p on the open interval (a, b), with witnesses.

    Interior zeros are isolated first; exact sign samples between the root
    regions decide the verdict, which distinguishes strict positivity from
    non-negativity with interior zeros (even-multiplicity roots).
    """
    a, b = as_rational(a), as_rational(b)
    if not a < b:
        raise ValueError("need a < b")
    if p.is_zero:
        return SignClassification(IDENTICALLY_ZERO, (SampleWitness((a + b) / 2, 0),))

    enclosures = isolate_roots(p, a, b)
    if not enclosures:
        m = (a + b) / 2
        s = p.sign_at(m)
        verdict = STRICTLY_POSITIVE if s > 0 else STRICTLY_NEGATIVE
        return SignClassification(verdict, (SampleWitness(m, s),))

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

    witnesses = []
    signs = set()
    for x in points:
        s = p.sign_at(x)
        if s == 0:  # only possible at the closed-boundary samples a or b
            continue
        signs.add(s)
        witnesses.append(SampleWitness(x, s))
    witnesses.extend(RootIntervalWitness(e.lo, e.hi) for e in enclosures)

    if signs == {1}:
        verdict = NONNEG_INTERIOR_ZEROS
    elif signs == {-1}:
        verdict = NONPOS_INTERIOR_ZEROS
    else:
        verdict = SIGN_CHANGING
    return SignClassification(verdict, tuple(witnesses))


def rational_roots(p: Polynomial) -> list:
    """Exact rational roots of p, sorted, whatever the coefficient size.

    The root 0 is split off as a power of x; the other real roots are
    isolated inside the Cauchy bound and each enclosure is tested by
    `rational_root_in`.
    """
    if p.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    coeffs = p.coeffs
    shift = next(i for i, c in enumerate(coeffs) if c != 0)
    roots = [Fraction(0)] if shift else []
    q = Polynomial(coeffs[shift:])
    if q.degree <= 0:
        return roots
    bound = 1 + max(abs(c) for c in q.coeffs[:-1]) / abs(q.leading)
    chain = sturm_chain(q)
    for enc in _isolate(chain, -bound, bound):
        root = rational_root_in(chain.sequence[0], enc)
        if root is not None:
            roots.append(root)
    return sorted(roots)


def rational_root_in(p: Polynomial, enc: RootEnclosure) -> Optional[Fraction]:
    """The root of p in enc when it is rational, else None.

    enc is exact or brackets a sign change of p around its only root, as
    `bisect_root` and `isolate_roots` return them (the latter for the
    square-free part).  With N the leading coefficient of the primitive
    integer form of p, a rational root has a denominator dividing N, and
    two distinct such rationals lie at least 1/N^2 apart.  So once a copy
    of enc is halved to width 1/(2 N^2), the only candidate is the fraction
    nearest its midpoint with denominator at most N, tested exactly.
    """
    if enc.is_exact:
        return enc.lo
    n = int(abs(p.primitive().leading))
    fine = bisect_root(p, enc.lo, enc.hi, Fraction(1, 2 * n * n))
    if fine.is_exact:
        return fine.lo
    candidate = fine.midpoint().limit_denominator(n)
    if fine.lo < candidate < fine.hi and p.sign_at(candidate) == 0:
        return candidate
    return None


def bisect_root(p: Polynomial, lo, hi, tol) -> RootEnclosure:
    """Certified bisection enclosure of width <= tol for a sign change of p.

    Endpoint roots and exact midpoint hits come back with zero width.
    Raises BadTolerance unless tol > 0, and NoBracket when the exact
    endpoint signs agree and neither endpoint is a root.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    tol = as_rational(tol)
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {format_rational(tol)}")
    s_lo, s_hi = p.sign_at(lo), p.sign_at(hi)
    if s_lo == 0:
        return RootEnclosure(lo, lo)
    if s_hi == 0:
        return RootEnclosure(hi, hi)
    if s_lo == s_hi:
        raise NoBracket(
            f"p({format_rational(lo)}) and p({format_rational(hi)}) have equal sign"
        )
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s == 0:
            return RootEnclosure(mid, mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return RootEnclosure(lo, hi)
