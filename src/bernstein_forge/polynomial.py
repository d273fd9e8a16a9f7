"""Dense univariate polynomials over exact rationals, in one integer form.

A polynomial sum(c_i x^i) is stored as integer numerators n_i over one
denominator D > 0, c_i = n_i / D, index = monomial degree.  The form is
canonical: D is the least such denominator, so gcd(D, n_0, ..., n_d) = 1,
and trailing zeros are trimmed.  Equality and hashing compare it directly.
The zero polynomial has no numerators, D = 1, and degree ``-inf`` so that
degree comparisons are never ambiguous.

Fractions appear only at the edges.  The constructor, `monomial` and
`from_sparse` read rationals in; `coeffs`, `coeff` and `leading` are
Fraction views built on demand.  Arithmetic works on the numerators, and
every result is reduced once, by gcd(D, *numerators), in `_form`.
Evaluation is fraction-free: p(u/v) is the homogeneous Horner sum over
Python ints divided by D v^d, one Fraction at the end, and
`sign_at_pair(u, v)` reads the sign of p(u/v) from that sum, with u/v not
necessarily in lowest terms.  On an equispaced grid (u0 + h i)/v that sum
is a polynomial of degree d in i, so `grid_numerators` runs Horner at the
first d + 1 points and reaches every later one by d integer additions
through its forward-difference table.  The one division is `%`, whose
loop alone runs over Fractions; it builds only the remainder, since the
least common denominator of the quotient it discards can be huge.

Degrees are capped at MAX_DEGREE: a dense polynomial stores one
coefficient per degree, so a sparse text such as "1000000000:1" would
otherwise ask for gigabytes before any check could refuse it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd, lcm
from typing import Iterable

from .errors import DegreeTooLarge
from .rational import as_rational, format_rational, integer_form, read_integer, reduced_form

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


def _form(den: int, nums: list) -> "Polynomial":
    """The polynomial sum(nums[i] x^i) / den for den > 0, in canonical form.

    Every arithmetic result is built here: trailing zeros are trimmed (in
    place) and the pair is reduced by gcd(den, *nums).
    """
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    p = object.__new__(Polynomial)
    p._den, p._nums = den, nums
    return p


class Polynomial:
    """Immutable dense polynomial over the rationals: integer numerators
    over their least positive common denominator (see the module notes)."""

    __slots__ = ("_den", "_nums")

    def __init__(self, coeffs: Iterable = ()):
        den, nums = integer_form([as_rational(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        # Reduced coefficients leave gcd(den, *nums) = 1; zeros have den 1.
        self._den, self._nums = den, nums

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
        return _form(c.denominator, [0] * degree + [c.numerator])

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
        return cls(coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1))

    def to_sparse(self) -> str:
        den = self._den
        return ",".join(
            f"{i}:{format_rational(Fraction(c, den))}" for i, c in enumerate(self._nums) if c
        ) or "0:0"

    # -- basic queries -----------------------------------------------------

    @property
    def form(self) -> tuple:
        """(D, numerators): the stored integer form, numerators lowest
        degree first.  The list is the polynomial's own: not to be mutated."""
        return self._den, self._nums

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(c, den) for c in self._nums)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else _NEG_INF

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._nums[k], self._den) if 0 <= k < len(self._nums) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self._nums) if c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.combination((1, 1), (self, other))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.combination((1, -1), (self, other))

    def __neg__(self) -> "Polynomial":
        return _form(self._den, [-c for c in self._nums])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0] * (len(self._nums) + len(other._nums) - 1)
            for i, a in enumerate(self._nums):
                if a:
                    for j, b in enumerate(other._nums):
                        out[i + j] += a * b
            return _form(self._den * other._den, out)
        return self.scale(other)

    __rmul__ = __mul__

    @classmethod
    def combination(cls, scalars, polys) -> "Polynomial":
        """sum(c * p for c, p in zip(scalars, polys)), summed on integer
        numerators over one common denominator.  Integer scalars are used as
        they are, with no Fraction built."""
        terms = []
        for c, p in zip(scalars, polys):
            if not isinstance(c, int):
                c = as_rational(c)
            if c and p._nums:
                terms.append((c.numerator, c.denominator * p._den, p._nums))
        common = lcm(*(den for _, den, _ in terms))
        acc = [0] * max((len(nums) for _, _, nums in terms), default=0)
        for num, den, nums in terms:
            factor = num * (common // den)
            for i, v in enumerate(nums):
                if v:
                    acc[i] += factor * v
        return _form(common, acc)

    def scale(self, scalar) -> "Polynomial":
        s = as_rational(scalar)
        return _form(s.denominator * self._den, [s.numerator * c for c in self._nums])

    def __call__(self, x) -> Fraction:
        """Exact evaluation by fraction-free Horner; one Fraction at the end."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        x = as_rational(x)
        v = x.denominator
        return Fraction(_homogeneous_horner(nums, x.numerator, v),
                        self._den * v ** (len(nums) - 1))

    def grid_numerators(self, u0: int, h: int, v: int, count: int) -> tuple:
        """(den, numerators): p((u0 + h i)/v) = numerators[i] / den for
        i < count, for integers u0, h and v > 0; den = D v^d, and the
        numerators come from a lazy iterator, unreduced.

        The homogeneous Horner sum at u0 + h i is a polynomial of degree d
        in i, so its d-th forward difference is constant (Knuth, TAOCP
        Vol. 2, 4.6.4).  Horner runs at the first d + 1 points only; their
        difference table gives each order's first entry, and each order is
        the running sum of the next one: d nested `accumulate`s, d integer
        additions per later point, and O(d) memory whatever count is.
        """
        nums = self._nums
        if not nums:
            return 1, repeat(0, count)
        d = len(nums) - 1
        row = [_homogeneous_horner(nums, u0 + h * i, v) for i in range(min(count, d + 1))]
        den = self._den * v**d
        if count <= d + 1:
            return den, iter(row)
        firsts = []
        while row:
            firsts.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        values = repeat(firsts.pop())
        for first in reversed(firsts):
            values = accumulate(values, initial=first)
        return den, islice(values, count)

    def sign_at(self, x) -> int:
        """Exact sign of p(x) (-1, 0 or 1), without building the value."""
        x = as_rational(x)
        return self.sign_at_pair(x.numerator, x.denominator)

    def sign_at_pair(self, u: int, v: int) -> int:
        """Exact sign of p(u/v) for integers u and v > 0; u/v need not be
        reduced, so a caller can keep a running pair without a gcd."""
        if not self._nums:
            return 0
        acc = _homogeneous_horner(self._nums, u, v)
        return (acc > 0) - (acc < 0)

    def taylor_form(self, x, count: int) -> tuple:
        """(E, numerators): the Taylor coefficients p^(j)(x) / j! for j < count
        as numerators[j] / E, over their least positive common denominator."""
        u, v = as_rational(x).as_integer_ratio()
        nums = [h * v ** j for j, h in enumerate(islice(self._taylor_numerators(u, v), count))]
        nums += [0] * (count - len(nums))
        return reduced_form(self._den * v ** max(len(self._nums) - 1, 0), nums)

    def _taylor_numerators(self, u: int, v: int):
        """Yield, for j = 0 .. degree, the integer h_j with p^(j)(x) / j! =
        h_j / (D v^(degree - j)) at x = u/v, v > 0.

        Works on the integer numerators: those of p^(j) / j! are the ones
        of p^(j-1) / (j-1)! differentiated and divided by j, which is exact
        (they are D binom(i, j) c_i).  Each h_j is a homogeneous Horner sum,
        computed only when the consumer asks for it.
        """
        nums = self._nums
        j = 0
        while nums:
            yield _homogeneous_horner(nums, u, v)
            j += 1
            nums = [i * c // j for i, c in enumerate(nums) if i]

    def order_and_sign(self, x, limit: int) -> tuple:
        """(k, s): the index k < limit of the first non-zero Taylor
        coefficient of p at x and its sign s, computed only up to it, or
        (limit, 0) when the first limit coefficients are all zero.

        k is the order of the root of p at x (0 when p(x) != 0), and s the
        sign of p just right of x.
        """
        u, v = as_rational(x).as_integer_ratio()
        for j, num in enumerate(islice(self._taylor_numerators(u, v), limit)):
            if num:
                return j, (num > 0) - (num < 0)
        return limit, 0

    def derivative(self, order: int = 1) -> "Polynomial":
        p = self
        for _ in range(order):
            p = _form(p._den, [i * c for i, c in enumerate(p._nums) if i])
        return p

    def __mod__(self, d: "Polynomial") -> "Polynomial":
        """The remainder of long division by d, of degree below deg d.

        The loop runs over the numerators: those of self are q times those
        of d plus r, with len(r) = deg d, so self % d is r / D for D the
        denominator of self.  Only r is brought to the integer form.
        """
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._nums)
        divisor = d._nums
        dd = len(divisor) - 1
        lead = Fraction(divisor[-1])
        for i in range(len(rem) - dd - 1, -1, -1):
            factor = rem[i + dd] / lead
            if factor:
                for j, c in enumerate(divisor):
                    rem[i + j] -= factor * c
        den, nums = integer_form(rem[:dd])
        return _form(den * self._den, nums)

    def primitive(self) -> "Polynomial":
        """Clear denominators and divide by the integer content.

        Keeps the sign of the input; orientation is the caller's business.
        """
        if self.is_zero:
            return self
        content = gcd(*self._nums)
        return _form(1, [c // content for c in self._nums])

    # -- comparisons / misc ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, *self._nums))

    def __repr__(self) -> str:
        return f"Polynomial({self.to_sparse()!r})"
