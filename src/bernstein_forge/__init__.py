"""Exact construction and analysis of generalized Bernstein operators."""

from .errors import (
    ArityMismatch,
    BadExponents,
    BadInterval,
    BadTolerance,
    BernsteinForgeError,
    ConstantNotInSpace,
    DegreeTooLarge,
    DerivedBasisUnavailable,
    DimensionTooLarge,
    F0NotPositive,
    IdentityViolation,
    NoBracket,
    NonPositiveScalar,
    NotInSpace,
    RatioNotMonotone,
    ToleranceTooLoose,
    ZeroPolynomial,
)
from .linsolve import LinearSolution, solve_linear
from .operator import (
    DEFAULT_TOL,
    ExistenceReport,
    OperatorProblem,
    OperatorSpec,
    StructuralDiagnostics,
    build_operator,
    certify_monotone_ratio,
    certify_problem,
    evaluate_operator,
    existence_report,
    operator_combination,
    structural_diagnostics,
    w_coefficients,
)
from .polynomial import MAX_DEGREE, Polynomial
from .rational import as_rational, format_decimal, format_rational
from .spaces import (
    MAX_DIMENSION,
    MAX_SIZE,
    BernsteinBasis,
    MonomialSpace,
    NoBasisReport,
    basis_from_generators,
    bernstein_basis,
    build_space,
    coordinates,
    derived_space,
    normalize_partition_of_unity,
    normalize_when_possible,
)
from .sturm import (
    Enclosure,
    SignClassification,
    SturmChain,
    bisect_root,
    classify_on_interval,
    isolate_roots,
    rational_root_in,
    sturm_chain,
)

__version__ = "0.1.0"
