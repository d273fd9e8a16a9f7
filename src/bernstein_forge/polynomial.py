"""Dense univariate polynomials over exact rationals.

Coefficients are stored densely, index = monomial degree, trailing zeros
trimmed.  The zero polynomial has an empty coefficient tuple and degree
``-inf`` so that degree comparisons are never ambiguous.

Evaluation and sign tests run fraction-free: each polynomial caches one
common denominator D > 0 with integer numerators, and p(u/v) is the
homogeneous Horner sum over Python ints divided by D v^d at the end.
`sign_at_pair(u, v)` reads the sign of p(u/v) from that sum, with u/v
not necessarily in lowest terms.

Degrees are capped at MAX_DEGREE: a dense polynomial stores one
coefficient per degree, so a sparse text such as "1000000000:1" would
otherwise ask for gigabytes before any check could refuse it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DegreeTooLarge, NonExactDivision
from .rational import as_rational, format_rational, integer_form, read_integer

# One "degree:coefficient" term; the coefficient is checked by as_rational.
_SPARSE_TERM = re.compile(r"(\d+)\s*:(.*)", re.DOTALL)

_NEG_INF = float("-inf")

# The largest degree read from input (a sparse term or a space's top
# exponent).  On a 2-core Xeon under CPython 3.11, `bernstein-forge basis`
# of span{1, x, x^m} on [1, 2] takes 1.0 s at m = 10000, 1.9 s at this m
# and 9 s at m = 50000, growing faster than m; peak RSS stays under 30 MB.
MAX_DEGREE = 20000


def check_degree(degree: int, what: str) -> None:
    """Refuse a degree above MAX_DEGREE with DegreeTooLarge naming `what`."""
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(f"{what} {degree} is above the maximum degree {MAX_DEGREE}")


def _homogeneous_horner(nums: list, u: int, v: int) -> int:
    """The sum of n_i u^i v^(d-i) for integers u and v > 0, d = len(nums) - 1.

    With D the common denominator of the numerators nums, p(u/v) equals
    the sum over D v^d; D and v are positive, so the sum carries the sign
    of p(u/v), whether or not u/v is in lowest terms.
    """
    rest = reversed(nums)
    acc = next(rest)
    if v == 1:
        for c in rest:
            acc = acc * u + c
        return acc
    vp = 1
    for c in rest:
        vp *= v
        acc = acc * u + c * vp
    return acc


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs", "_den", "_nums")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._nums = None  # integer form, built on first use by _integer_form

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        c = as_rational(coeff)
        if c == 0:
            return cls.zero()
        return cls((0,) * degree + (c,))

    @classmethod
    def from_sparse(cls, text: str) -> "Polynomial":
        """Parse the sparse "degree:coefficient" pair format.

        Example: ``"0:1/4,2:-3/8,6:1/8"``.  Terms are separated by commas;
        each is a non-negative integer degree, a colon and a rational (see
        `as_rational`), with whitespace allowed around each part.  A term
        outside this grammar is refused by a ValueError naming it, and a
        degree above MAX_DEGREE by DegreeTooLarge.  The empty string and
        ``"0:0"`` both denote the zero polynomial.
        """
        text = text.strip()
        if not text:
            return cls.zero()
        coeffs: dict[int, Fraction] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            match = _SPARSE_TERM.fullmatch(chunk)
            if match is None:
                raise ValueError(
                    f"sparse term is not \"degree:coefficient\" with a non-negative "
                    f"integer degree: {chunk!r}"
                )
            deg_s, coef_s = match.groups()
            deg = read_integer(deg_s, chunk)
            check_degree(deg, "sparse degree")
            if deg in coeffs:
                raise ValueError(f"duplicate degree {deg} in sparse polynomial")
            coeffs[deg] = as_rational(coef_s)
        if not coeffs:
            return cls.zero()
        top = max(coeffs)
        return cls(coeffs.get(i, 0) for i in range(top + 1))

    def to_sparse(self) -> str:
        if self.is_zero:
            return "0:0"
        return ",".join(
            f"{i}:{format_rational(c)}" for i, c in enumerate(self._coeffs) if c != 0
        )

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else _NEG_INF

    def coeff(self, k: int) -> Fraction:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self._coeffs) if c != 0)

    @property
    def _integer_form(self) -> tuple:
        """(D, numerators): the least D > 0 making every D * c an integer.

        Kept as a slot pair holding a list, not as tuples: short tuples
        outlive their polynomial on the interpreter's tuple free lists.
        """
        if self._nums is None:
            self._den, self._nums = integer_form(self._coeffs)
        return self._den, self._nums

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(
            (a[i] + b[i] if i < len(b) else a[i]) for i in range(len(a))
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    @classmethod
    def combination(cls, scalars, polys) -> "Polynomial":
        """sum(c * p for c, p in zip(scalars, polys)), summed on integer
        numerators over one common denominator."""
        terms = []
        for c, p in zip(scalars, polys):
            c = as_rational(c)
            if c and not p.is_zero:
                den, nums = p._integer_form
                terms.append((c.numerator, c.denominator * den, nums))
        common = lcm(*(den for _, den, _ in terms))
        acc = [0] * max((len(nums) for _, _, nums in terms), default=0)
        for num, den, nums in terms:
            factor = num * (common // den)
            for i, v in enumerate(nums):
                if v:
                    acc[i] += factor * v
        # Zero sums stay int 0: no Fraction(0, common) over a large common.
        return cls(Fraction(v, common) if v else 0 for v in acc)

    def scale(self, scalar) -> "Polynomial":
        s = as_rational(scalar)
        return Polynomial(s * c for c in self._coeffs)

    def __call__(self, x) -> Fraction:
        """Exact evaluation by fraction-free Horner; one Fraction at the end."""
        return Fraction(*self.ratio_at(x))

    def ratio_at(self, x) -> tuple:
        """p(x) as an unreduced integer pair (num, den) with den > 0."""
        den, nums = self._integer_form
        if not nums:
            return 0, 1
        x = as_rational(x)
        v = x.denominator
        return _homogeneous_horner(nums, x.numerator, v), den * v ** (len(nums) - 1)

    def sign_at(self, x) -> int:
        """Exact sign of p(x) (-1, 0 or 1), without building the value."""
        x = as_rational(x)
        return self.sign_at_pair(x.numerator, x.denominator)

    def sign_at_pair(self, u: int, v: int) -> int:
        """Exact sign of p(u/v) for integers u and v > 0; u/v need not be
        reduced, so a caller can keep a running pair without a gcd."""
        nums = self._nums
        if nums is None:  # read the slot first: one call less on the hot path
            nums = self._integer_form[1]
        if not nums:
            return 0
        acc = _homogeneous_horner(nums, u, v)
        return (acc > 0) - (acc < 0)

    def taylor_at(self, x, count: int) -> tuple:
        """(p^(j)(x) / j! for j < count): the Taylor coefficients of p at x.

        Works on the integer numerators: those of p^(j) / j! are the ones
        of p^(j-1) / (j-1)! differentiated and divided by j, which is exact
        (they are D binom(i, j) c_i).  Each value is a homogeneous Horner sum.
        """
        x = as_rational(x)
        u, v = x.numerator, x.denominator
        den, nums = self._integer_form
        out = []
        for j in range(count):
            if j:
                nums = [i * c // j for i, c in enumerate(nums) if i]
            out.append(Fraction(_homogeneous_horner(nums, u, v), den * v ** (len(nums) - 1))
                       if nums else Fraction(0))
        return tuple(out)

    def root_order(self, x, limit: int) -> int:
        """Order of the root of p at x (0 when p(x) != 0), counted up to limit:
        the leading zeros of taylor_at(x, limit).  The zero polynomial gives limit."""
        return next((j for j, t in enumerate(self.taylor_at(x, limit)) if t), limit)

    def derivative(self, order: int = 1) -> "Polynomial":
        p = self
        for _ in range(order):
            p = Polynomial(i * c for i, c in enumerate(p._coeffs) if i > 0)
        return p

    def divrem(self, d: "Polynomial") -> tuple:
        """Exact quotient/remainder with rational coefficients."""
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        dd = len(d._coeffs) - 1
        lead = d._coeffs[-1]
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / lead
            if factor == 0:
                continue
            q[i] = factor
            for j, dc in enumerate(d._coeffs):
                rem[i + j] -= factor * dc
        return Polynomial(q), Polynomial(rem[:dd])

    def div_exact(self, d: "Polynomial") -> "Polynomial":
        """Quotient q with self = q * d; raises NonExactDivision otherwise."""
        q, r = self.divrem(d)
        if not r.is_zero:
            raise NonExactDivision(
                f"remainder {r.to_sparse()} dividing {self.to_sparse()} by {d.to_sparse()}"
            )
        return q

    def __mod__(self, d: "Polynomial") -> "Polynomial":
        return self.divrem(d)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def primitive(self) -> "Polynomial":
        """Clear denominators and divide by the integer content.

        Keeps the sign of the input; orientation is the caller's business.
        """
        if self.is_zero:
            return self
        nums = self._integer_form[1]
        content = 0
        for v in nums:
            content = gcd(content, v)
        return Polynomial(v // content for v in nums)

    # -- comparisons / misc ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_sparse()!r})"
