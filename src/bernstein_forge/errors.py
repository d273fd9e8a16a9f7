"""Exception types shared across the package."""


class BernsteinForgeError(Exception):
    """Base class for all library errors."""


class NonExactDivision(BernsteinForgeError):
    """Polynomial division left a nonzero remainder."""


class ZeroPolynomial(BernsteinForgeError):
    """Operation undefined for the zero polynomial."""


class NoBracket(BernsteinForgeError):
    """Bisection endpoints have equal nonzero signs."""


class BadExponents(BernsteinForgeError):
    """Exponent list is not strictly increasing and non-negative."""


class DegreeTooLarge(BernsteinForgeError):
    """An exponent or polynomial degree is above polynomial.MAX_DEGREE, or a
    space's order n and top exponent e have n^2 e above spaces.MAX_SIZE."""


class DimensionTooLarge(BernsteinForgeError):
    """A space has more than spaces.MAX_DIMENSION monomials."""


class BadInterval(BernsteinForgeError):
    """Interval endpoints do not satisfy a < b."""


class ConstantNotInSpace(BernsteinForgeError):
    """The constant function 1 does not lie in the space."""


class NonPositiveScalar(BernsteinForgeError):
    """Partition-of-unity scalars must be positive for a non-negative basis."""


class NotInSpace(BernsteinForgeError):
    """Polynomial is not an element of the given space."""


class F0NotPositive(BernsteinForgeError):
    """The fixed function f0 is not strictly positive on the closed interval."""


class RatioNotMonotone(BernsteinForgeError):
    """f1/f0 is not strictly increasing on the interval."""


class DerivedBasisUnavailable(BernsteinForgeError):
    """The derived space has no non-negative Bernstein basis."""


class IdentityViolation(BernsteinForgeError):
    """A structural identity that should hold exactly failed to hold."""


class BadTolerance(BernsteinForgeError):
    """An enclosure tolerance is not a positive rational."""


class ToleranceTooLoose(BernsteinForgeError):
    """Node enclosures overlap; the requested tolerance cannot separate them."""


class ArityMismatch(BernsteinForgeError):
    """Number of sample values does not match the number of nodes."""
