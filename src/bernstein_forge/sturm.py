"""Certified root counting, sign classification, and bisection enclosures.

Everything here runs over exact rationals: a sign verdict rests on a
Descartes certificate that the interval holds no root, or else on a Sturm
chain's exact counts of distinct real roots; classifications carry
checkable witnesses, and bisection midpoint signs never see a float.  The
certificate has three stages, cheapest first (`descartes_root_free`):
coefficient sign variations against the endpoint root orders, a split at
0 for an interval with 0 inside, and the sign variations of the Bernstein
form on the interval alone (`bernstein_variations`, O(d^2) integer
additions, run up to degree BERNSTEIN_MAX_DEGREE, whose comment gives its
timing table).  Sturm chains are left for isolating roots: a Bernstein
count above 1 proves nothing about where they are.  Every test that needs
only a sign uses `Polynomial.sign_at`, which builds no Fraction.
`bisect_root` goes further: it refines a bracket on bisection's dyadic
grid by quadratic interval refinement, reading `Polynomial.value_at_pair`
on integer pairs, so it builds Fractions only for what it returns.  With
one distinct root in the bracket its enclosure is exactly bisection's;
with several it is a certified sign-change cell of the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd

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
    """Signed remainder sequence of (p, p'), p = sequence[0].

    Read just right of lo and just left of hi, where no element vanishes,
    variations(lo, 1) - variations(hi, -1) counts the distinct roots of p
    in (lo, hi).
    """

    sequence: tuple

    def variations(self, x, side: int) -> int:
        """Sign variations of the chain just right of x (side = 1) or just
        left of it (side = -1).

        Each element's sign there is that of its first non-zero Taylor
        coefficient at x, times side^k for k the order of its root at x.
        """
        orders_and_signs = (q.order_and_sign(x, q.degree + 1) for q in self.sequence)
        return _variations(s * side**k for k, s in orders_and_signs)


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
    """The signed remainder sequence of (p, p'), which ends at g, gcd(p, p')
    up to a constant.

    Every element is a multiple of g, and every root of g is a root of p.
    At a point x that is not a root of p, dividing the elements by g(x) != 0
    leaves their sign variations unchanged: there the chain has the
    variations of the Sturm sequence of the square-free part p / g (Basu,
    Pollack & Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    `SturmChain` reads its signs just beside a point, where no element
    vanishes, so no division by g is needed.
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
    return SturmChain(tuple(seq))


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
    out = []
    # (lo, hi, variations just right of lo, variations just left of hi)
    stack = [(a, b, chain.variations(a, 1), chain.variations(b, -1))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        k = v_lo - v_hi
        if k == 0:
            continue
        if k == 1 and p.sign_at(lo) != 0 and p.sign_at(hi) != 0:
            out.append(Enclosure(lo, hi))
            continue
        mid = (lo + hi) / 2
        if p.sign_at(mid) == 0:
            out.append(Enclosure(mid, mid))
            left, right = chain.variations(mid, -1), chain.variations(mid, 1)
        else:  # no root of p at mid, so the count does not change across it
            left = right = chain.variations(mid, 1)
        stack.append((lo, mid, v_lo, left))
        stack.append((mid, hi, right, v_hi))
    out.sort(key=lambda e: e.lo)
    return out


# The largest degree at which `descartes_root_free` runs its Bernstein-form
# stage.  Under CPython 3.11 on a 2-core Xeon, `bernstein_variations` of
# 3 - 7x/2 + 5x^2 - x^d takes, on an interval with an endpoint at 0 (every
# half of a split) and on (-2/3, -1/2):
#
#     degree d      500      1000     2000     5000
#     (-1, 0)       0.007 s  0.020 s  0.11 s   1.9 s
#     (-2/3, -1/2)  0.029 s  0.13 s   1.1 s    15 s
#
# The cost grows faster than d^2, since the integers grow with d, and a
# sign-changing element pays it for nothing before its Sturm chain: with
# no bound, `basis` of [0, 1, 3, 5000] on [-1, 1] takes 19 s instead of
# 10 s.  At this bound [0, 1, 2, 2000] on [-1, 2] answers in 1.1 s.
BERNSTEIN_MAX_DEGREE = 2000


def _variations(values) -> int:
    """Sign changes along the sequence values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _shift_by_one(high_first: list) -> list:
    """Coefficients of p(x + 1), lowest degree first, from those of p(x),
    highest degree first.

    Synthetic division by x - 1 is one running sum over the coefficients:
    its last entry is the remainder, the next coefficient of p(x + 1), and
    the rest is the quotient to divide again.
    """
    cs, out = high_first, []
    while cs:
        cs = list(accumulate(cs))
        out.append(cs.pop())
    return out


def bernstein_variations(p: Polynomial, a, b) -> int:
    """Sign variations of (1 + t)^d p((a t + b)/(1 + t)) for p != 0 of
    degree d, zero coefficients skipped.

    The map t -> (a t + b)/(1 + t) takes (0, inf) onto (a, b), so by
    Descartes' rule the count bounds the number of roots of p in the open
    (a, b), with multiplicity, and has its parity when p(a) p(b) != 0: 0
    proves (a, b) root-free (Vincent's transform; Collins & Akritas,
    SYMSAC 1976).  Roots at b and at a turn into zero coefficients at t^0
    and into a lower degree, which are skipped.  On integers throughout:
    with a = u/D and b = v/D, the numerators of D^d p(z/D) are shifted by
    u (scaled by u^i, shifted by 1 and divided back), scaled by (v - u)^i,
    reversed and shifted by 1, in O(d^2) additions.  The count is the same
    for (b, a), so an endpoint at 0 goes first and its shift is skipped.
    """
    a, b = (b, a) if b == 0 else (a, b)
    den, (u, v) = integer_form((as_rational(a), as_rational(b)))
    nums = p.form[1]
    d = len(nums) - 1
    cs = [c * den ** (d - i) for i, c in enumerate(nums)]
    if u:
        cs = _shift_by_one([c * u**i for i, c in enumerate(cs)][::-1])
        cs = [c // u**i for i, c in enumerate(cs)]
    # Scaled by (v - u)^i, lowest degree first: the reversal, highest first.
    return _variations(_shift_by_one([c * (v - u) ** i for i, c in enumerate(cs)]))


def descartes_root_free(p: Polynomial, a, b) -> bool:
    """True when Descartes' rule of signs proves p has no root in (a, b).

    Three stages, cheapest first:

    1. Endpoint Descartes.  For 0 <= a < b, p has at most V roots in
       (0, inf), counted with multiplicity, where V is the number of sign
       variations of its coefficients.  The roots at b, and at a when
       a > 0, are among them, so once their orders add up to V none is left
       for (a, b).  A root at 0 is not positive and is not counted.  For
       a < b <= 0 the same holds for p(-x) on [-b, -a], whose coefficients
       flip sign at odd degrees and whose root orders at -b and -a are
       those of p at b and a.
    2. Split at 0.  For a < 0 < b the interval is split at 0, which must
       not be a root, and each half runs stages 1 and 3.
    3. Bernstein form.  When stage 1 leaves roots unaccounted for, which
       happens when p has roots outside [a, b] on the same side of 0, and
       p has degree at most BERNSTEIN_MAX_DEGREE, `bernstein_variations`
       counts the variations of p on (a, b) alone; 0 proves it root-free.
       It is skipped when p has opposite signs just inside a and just
       inside b, which proves a root.  Those signs come from the first
       non-zero Taylor coefficient at each end, which stage 1's root orders
       walk to: its sign just right of the end, times (-1)^order just left
       of it.  At an end 0, which the split leaves only where p(0) != 0,
       it is the sign of p(0).

    Endpoint orders short of V with a positive Bernstein count, a sign
    change, or no count above the bound prove nothing, and neither does
    the zero polynomial: False.
    """
    if p.is_zero:
        return False
    if a < 0 < b:
        return p.sign_at(0) != 0 and descartes_root_free(p, a, 0) and descartes_root_free(p, 0, b)
    nums = p.form[1]
    budget = _variations(-c if b <= 0 and i % 2 else c for i, c in enumerate(nums) if c)
    inside = 1  # the sign of p just inside a times that just inside b; 0 if unknown
    for end, side in ((a, 1), (b, -1)):
        order, s = p.order_and_sign(end, budget) if end else (0, nums[0])
        budget -= order
        inside *= s * side**order
    if budget and inside >= 0 and p.degree <= BERNSTEIN_MAX_DEGREE:
        budget = bernstein_variations(p, a, b)
    return budget == 0


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

    # Never 0: a gap midpoint, an end tested above, or b (ends an enclosure only if p(b) != 0).
    samples = [SampleWitness(x, p.sign_at(x)) for x in points]
    signs = {w.sign for w in samples}

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
    `bisect_root` and `isolate_roots` return them.  With N the leading
    coefficient of the primitive integer form of p, a rational root has a
    denominator dividing N, and two distinct such rationals lie at least
    1/N^2 apart.  So once a copy of enc is halved to width 1/(2 N^2), the
    only candidate is the fraction nearest its midpoint with denominator at
    most N, tested exactly.  An enc that is already that narrow is not
    halved again.
    """
    if enc.is_exact:
        return enc
    nums = p.form[1]
    n = abs(nums[-1]) // gcd(*nums)
    tol = Fraction(1, 2 * n * n)
    fine = enc if enc.width <= tol else bisect_root(p, enc.lo, enc.hi, tol)
    if fine.is_exact:
        return fine
    candidate = fine.midpoint().limit_denominator(n)
    if fine.lo < candidate < fine.hi and p.sign_at(candidate) == 0:
        return Enclosure(candidate, candidate)
    return enc


def bisect_root(p: Polynomial, lo, hi, tol) -> Enclosure:
    """Certified enclosure of width <= tol for a sign change of p in [lo, hi].

    Raises BadTolerance unless tol > 0, ValueError unless lo < hi, and
    NoBracket when the exact endpoint signs agree and neither endpoint is
    a root; an endpoint root comes back with zero width.

    The result lies on bisection's grid: with s the least step count that
    takes hi - lo to tol by halvings, it is a cell [x_j, x_(j+1)] of the
    points x_j = lo + j (hi - lo) / 2^s, with exact, non-zero, opposite end
    signs, or a grid point where p is exactly 0.  When [lo, hi] holds one
    distinct root of p, that is the cell of the root, or the root itself
    when it is a grid point: bisection's own enclosure.

    The search is quadratic interval refinement (Abbott, ACM Commun.
    Comput. Algebra 2014; Kerber & Sagraloff, ISSAC 2011).  Each bracket
    is a cell of bisection's dyadic tree.  A round cuts it into N = 2^b
    sub-cells, snaps the secant guess to one of them, and tests it with
    one or two exact signs.  A sub-cell that brackets the sign change is
    the next bracket and N is squared; otherwise the probe is dropped, b
    is halved (down to 2), and the m-th miss since the last success with
    N > 4 takes 2^m halvings of the bracket.  Near a simple root the
    secant is good to about twice as many bits each round, so s bits cost
    O(log s) rounds rather than s evaluations; near a multiple root it
    converges only linearly, and the halvings keep the count close to
    bisection's.

    All of it runs on integers.  With lo = L/D and hi = (L + W)/D, grid
    point j at level l is (L 2^l + j W)/(D 2^l), evaluated over that pair
    with the power of 2 in j cancelled first; the Horner values of the two
    ends share the denominator of their level, so the secant guess is one
    integer division.  Fractions are built only for what is returned.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    tol = as_rational(tol)
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {format_rational(tol)}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    den, (num, high) = integer_form((lo, hi))
    f_lo, f_hi = p.value_at_pair(num, den), p.value_at_pair(high, den)
    if not f_lo:
        return Enclosure(lo, lo)
    if not f_hi:
        return Enclosure(hi, hi)
    if (f_lo > 0) == (f_hi > 0):
        raise NoBracket(
            f"p({format_rational(lo)}) and p({format_rational(hi)}) have equal sign"
        )
    if f_lo > 0:  # make p negative at lo and positive at hi
        p, f_lo, f_hi = -p, -f_lo, -f_hi
    width, d, value = high - num, p.degree, p.value_at_pair
    # The least k with width * tol.den <= tol.num * den * 2^k.
    steps = ((width * tol.denominator - 1) // (tol.numerator * den)).bit_length()

    def pair(level, j):
        """Grid point j of the level, 0 < j < 2^level, as an integer pair
        with the power of 2 in j cancelled, and that power's exponent."""
        z = (j & -j).bit_length() - 1
        return (num << level - z) + (j >> z) * width, den << level - z, z

    # The bracket is cell [cell, cell + 1] of the level; f_lo < 0 < f_hi
    # are p's Horner values at its ends, over the level's denominator.
    level = cell = misses = 0
    bits = 2
    while level < steps:
        b = min(bits, steps - level)
        n = 1 << b
        # The secant guess, rounded to a point of the sub-grid, then moved inside.
        guess = (2 * n * -f_lo + f_hi - f_lo) // (2 * (f_hi - f_lo))
        j = min(max(guess, 1), n - 1)
        u, v, z = pair(level + b, (cell << b) + j)
        f_j = value(u, v) << z * d
        if not f_j:
            return Enclosure(Fraction(u, v), Fraction(u, v))
        k = j + 1 if f_j < 0 else j - 1  # the neighbour across the sign change
        if k in (0, n):
            f_k = (f_hi if k else f_lo) << b * d
        else:
            u, v, z = pair(level + b, (cell << b) + k)
            f_k = value(u, v) << z * d
            if not f_k:
                return Enclosure(Fraction(u, v), Fraction(u, v))
        if (f_k > 0) != (f_j > 0):
            level += b
            cell = (cell << b) + min(j, k)
            f_lo, f_hi = (f_j, f_k) if j < k else (f_k, f_j)
            misses = 0 if b > 2 else misses
            bits = 2 * b
            continue
        # The probe missed: drop it and halve the bracket 2^misses times.
        misses += 1
        bits = max(2, b // 2)
        for _ in range(min(1 << misses, steps - level)):
            level += 1
            cell <<= 1
            u, v = (num << level) + (cell + 1) * width, den << level
            f = value(u, v)
            if not f:
                return Enclosure(Fraction(u, v), Fraction(u, v))
            if f < 0:
                cell += 1
                f_lo, f_hi = f, f_hi << d
            else:
                f_lo, f_hi = f_lo << d, f
    return Enclosure(Fraction((num << steps) + cell * width, den << steps),
                     Fraction((num << steps) + (cell + 1) * width, den << steps))
