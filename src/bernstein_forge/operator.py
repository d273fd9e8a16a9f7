"""Existence and analysis of generalized Bernstein operators.

Given a space and a pair (f0, f1) with f0 > 0 and f1/f0 strictly
increasing, the operator sum(f(t_k) * alpha_k * p_k) fixing both functions
is unique when it exists.  Existence and node monotonicity are decided
entirely on exact rational data (the coordinate ratios gamma_k / beta_k);
enclosure widths never influence a verdict, only reported node values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

from .errors import (
    ArityMismatch,
    DerivedBasisUnavailable,
    F0NotPositive,
    IdentityViolation,
    NotInSpace,
    RatioNotMonotone,
    ToleranceTooLoose,
)
from .polynomial import Polynomial
from .rational import as_rational, format_rational
from .spaces import (
    GRADE_SIGNED,
    BernsteinBasis,
    MonomialSpace,
    NoBasisReport,
    bernstein_basis,
    certify_positive_on_closed,
    coordinates,
    derived_numerator,
    derived_space,
    descriptor_fields,
    normalize_when_possible,
)
from .sturm import (
    NONNEG_INTERIOR_ZEROS,
    STRICTLY_POSITIVE,
    Enclosure,
    bisect_root,
    classify_on_interval,
    rational_root_in,
)

RATIO_STRICT = "strictly-increasing-ratio"
RATIO_CRITICAL = "increasing-with-critical-points"
RATIO_NOT_MONOTONE = "not-monotone"

MONO_STRICT = "strictly-increasing"
MONO_NON_DECREASING = "non-decreasing"
MONO_NONE = "non-monotone"
MONO_TOKENS = (MONO_STRICT, MONO_NON_DECREASING, MONO_NONE)

W_ALL_POSITIVE = "all-positive"
W_NONNEG_SOME_ZERO = "all-nonneg-some-zero"
W_HAS_NEGATIVE = "has-negative"
W_TOKENS = (W_ALL_POSITIVE, W_NONNEG_SOME_ZERO, W_HAS_NEGATIVE)

VERDICT_EXISTS = "exists"
VERDICT_NO_BASIS = "no-nonneg-basis"
VERDICT_BETA = "beta-not-positive"
VERDICT_RANGE = "node-out-of-range"

DEFAULT_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class OperatorProblem:
    space: MonomialSpace
    f0: Polynomial
    f1: Polynomial

    @classmethod
    def from_json(cls, obj) -> "OperatorProblem":
        space, f0, f1 = descriptor_fields(obj, "problem", ("space", "f0", "f1"))
        return cls(
            space=MonomialSpace.from_json(space),
            f0=_polynomial_field("f0", f0),
            f1=_polynomial_field("f1", f1),
        )


def _polynomial_field(key: str, text) -> Polynomial:
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a sparse polynomial string, got {text!r}")
    return Polynomial.from_sparse(text)


def certify_monotone_ratio(problem: OperatorProblem):
    """Classify the monotonicity of f1/f0 on [a, b] with an exact certificate.

    Returns (token, classification-of-the-numerator).  A strictly
    increasing ratio with isolated critical points (like x^3 at 0) is
    accepted; only a sign-changing numerator is refused downstream.
    """
    a, b = problem.space.a, problem.space.b
    if not certify_positive_on_closed(problem.f0, a, b):
        raise F0NotPositive("f0 must be strictly positive on [a, b]")
    n1 = derived_numerator(problem.f1, problem.f0)
    cls = classify_on_interval(n1, a, b)
    sa, sb = n1.sign_at(a), n1.sign_at(b)
    if cls.verdict == STRICTLY_POSITIVE and sa > 0 and sb > 0:
        return RATIO_STRICT, cls
    if cls.verdict in (STRICTLY_POSITIVE, NONNEG_INTERIOR_ZEROS) and sa >= 0 and sb >= 0:
        return RATIO_CRITICAL, cls
    return RATIO_NOT_MONOTONE, cls


def certify_problem(problem: OperatorProblem):
    """Raise unless f0, f1 satisfy the standing hypotheses of the theory."""
    if not problem.space.contains(problem.f0):
        raise NotInSpace("f0 must lie in the space")
    if not problem.space.contains(problem.f1):
        raise NotInSpace("f1 must lie in the space")
    token, cls = certify_monotone_ratio(problem)
    if token == RATIO_NOT_MONOTONE:
        raise RatioNotMonotone(f"(f1/f0)' is {cls.verdict} on the interval")
    return token


def w_coefficients(problem: OperatorProblem, derived: BernsteinBasis) -> tuple:
    """Coordinates w of (f1/f0)' in `derived`, the basis `derived_space` returns.

    Both sides of the expansion share the factor 1/f0^2, so w is the
    coordinate vector of derived_numerator(f1, f0) in the numerator basis.
    Raises DerivedBasisUnavailable for a signed basis.
    """
    if derived.positivity == GRADE_SIGNED:
        raise DerivedBasisUnavailable("derived Bernstein basis is not non-negative")
    return coordinates(derived_numerator(problem.f1, problem.f0), derived)


def _signs(values, tokens) -> str:
    """tokens[0] if every value is positive, tokens[1] if every one is
    non-negative, else tokens[2]."""
    if all(v > 0 for v in values):
        return tokens[0]
    if all(v >= 0 for v in values):
        return tokens[1]
    return tokens[2]


_W_TO_MONO = dict(zip(W_TOKENS, MONO_TOKENS))


@dataclass(frozen=True)
class ExistenceReport:
    """The exact facts about a problem; every summary is derived from them.

    beta and gamma are absent when there is no non-negative Bernstein
    basis; derived (the basis derived_space returns) and w, the coordinates
    in it, are absent together when some beta_k <= 0 or the derived basis is
    signed.
    """

    problem: OperatorProblem
    ratio_certificate: str
    basis: Optional[BernsteinBasis] = None
    no_basis: Optional[NoBasisReport] = None
    beta: Optional[tuple] = None
    gamma: Optional[tuple] = None
    derived: Optional[BernsteinBasis] = None
    w: Optional[tuple] = None

    @property
    def verdict(self) -> str:
        if self.ratios is None:
            return VERDICT_NO_BASIS if self.beta is None else VERDICT_BETA
        return VERDICT_EXISTS if all(self.in_range_flags) else VERDICT_RANGE

    @cached_property
    def ratios(self) -> Optional[tuple]:
        """gamma_k / beta_k, when every beta_k > 0."""
        if self.beta is None or any(bk <= 0 for bk in self.beta):
            return None
        return tuple(g / bk for g, bk in zip(self.gamma, self.beta))

    @cached_property
    def in_range_flags(self) -> Optional[tuple]:
        """Whether each ratio lies between f1(a)/f0(a) and f1(b)/f0(b), that
        is, whether its node lies in [a, b]."""
        if self.ratios is None:
            return None
        p, a, b = self.problem, self.problem.space.a, self.problem.space.b
        r_lo, r_hi = p.f1(a) / p.f0(a), p.f1(b) / p.f0(b)
        return tuple(r_lo <= r <= r_hi for r in self.ratios)

    @property
    def monotonicity(self) -> Optional[str]:
        if self.ratios is None:
            return None
        return _signs([s - r for r, s in zip(self.ratios, self.ratios[1:])], MONO_TOKENS)

    @property
    def w_summary(self) -> Optional[str]:
        return None if self.w is None else _signs(self.w, W_TOKENS)

    @property
    def cross_check(self) -> Optional[bool]:
        """Whether the signs of w give the node monotonicity the ratios give."""
        return None if self.w is None else _W_TO_MONO[self.w_summary] == self.monotonicity

    def to_json(self):
        rat = lambda xs: None if xs is None else [format_rational(x) for x in xs]
        return {
            "verdict": self.verdict,
            "beta": rat(self.beta),
            "gamma": rat(self.gamma),
            "ratios": rat(self.ratios),
            "in_range": None if self.in_range_flags is None else list(self.in_range_flags),
            "monotonicity": self.monotonicity,
            "ratio_certificate": self.ratio_certificate,
            "w": rat(self.w),
            "w_summary": self.w_summary,
            "cross_check": self.cross_check,
            "no_basis": None if self.no_basis is None else self.no_basis.to_json(),
        }


def existence_report(problem: OperatorProblem) -> ExistenceReport:
    """Full verdict for a (space, f0, f1) triple; never raises for a verdict.

    Existence fails fast when the space has no non-negative Bernstein
    basis; otherwise beta must be entrywise positive and every ratio
    gamma_k / beta_k must lie between f1(a)/f0(a) and f1(b)/f0(b) (exact
    comparisons, equivalent to the nodes lying in [a, b]).
    """
    ratio_cert = certify_problem(problem)
    basis = normalize_when_possible(bernstein_basis(problem.space))
    if isinstance(basis, NoBasisReport):
        return ExistenceReport(problem, ratio_cert, no_basis=basis)
    if basis.positivity == GRADE_SIGNED:
        return ExistenceReport(problem, ratio_cert, basis)

    beta = coordinates(problem.f0, basis)
    gamma = coordinates(problem.f1, basis)
    try:
        derived = derived_space(basis, beta, problem.f0)
        w = w_coefficients(problem, derived)
    except DerivedBasisUnavailable:
        derived = w = None
    return ExistenceReport(problem, ratio_cert, basis, beta=beta, gamma=gamma,
                           derived=derived, w=w)


def _interval_eval(p: Polynomial, lo: Fraction, hi: Fraction):
    """Rigorous rational bounds for p over [lo, hi] by interval Horner."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(p.coeffs):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(prods) + c, max(prods) + c
    return acc_lo, acc_hi


def _by_ratio(ratios) -> list:
    """Node indices in increasing ratio order, ties by index: the order of
    the nodes themselves, as f1/f0 is strictly increasing."""
    return sorted(range(len(ratios)), key=ratios.__getitem__)


@dataclass(frozen=True)
class OperatorSpec:
    report: ExistenceReport
    nodes: tuple  # Enclosure per k
    weights: tuple  # Enclosure of beta_k / f0(t_k) per k
    tol: Fraction

    @property
    def basis(self) -> BernsteinBasis:
        return self.report.basis

    def node_order(self) -> str:
        """Node ordering implied by the exact ratio ordering, e.g. 't0 < t2 = t1'."""
        ratios = self.report.ratios
        idx = _by_ratio(ratios)
        parts = [f"t{idx[0]}"]
        for prev, cur in zip(idx, idx[1:]):
            sep = " = " if ratios[cur] == ratios[prev] else " < "
            parts.append(sep + f"t{cur}")
        return "".join(parts)

    def to_json(self):
        return {
            "nodes": [e.to_json() for e in self.nodes],
            "weights": [format_rational(w.lo) if w.is_exact else w.to_json()
                        for w in self.weights],
            "node_order": self.node_order(),
            "tol": format_rational(self.tol),
        }


def build_operator(report: ExistenceReport, tol=DEFAULT_TOL) -> OperatorSpec:
    """Nodes and weights for an `exists` verdict.

    Each node solves f1 - r_k f0 = 0 on [a, b]: certified bisection to
    width tol, then an exact test for a rational root in that enclosure, so
    rational nodes come back exact (width-0 enclosures) at any coefficient
    size.  Weights are enclosures of beta_k / f0(t_k), exact for rational
    nodes.  Raises BadTolerance unless tol > 0.
    """
    if report.verdict != VERDICT_EXISTS:
        raise ValueError(f"operator does not exist: verdict {report.verdict}")
    tol = as_rational(tol)
    problem = report.problem
    a, b = problem.space.a, problem.space.b
    f0, f1, ratios = problem.f0, problem.f1, report.ratios

    # f1/f0 strictly increasing => each g_k has one root in [a, b], a crossing
    gs = [f1 - f0.scale(r) for r in ratios]
    nodes = [rational_root_in(g, bisect_root(g, a, b, tol)) for g in gs]

    # Distinct ratios must yield separated enclosures at this tolerance.  As
    # f1/f0 is strictly increasing, exact nodes of distinct ratios are
    # distinct points in ratio order, so only an enclosure can overlap.
    order = _by_ratio(ratios)
    for i, j in zip(order, order[1:]):
        if ratios[i] != ratios[j] and not nodes[i].hi < nodes[j].lo:
            raise ToleranceTooLoose(
                f"enclosures for t{i} and t{j} overlap at tol {format_rational(tol)}"
            )

    # The bound of f0 over an exact node is its exact, positive value, so
    # the weight is exact; so is every weight when f0 is constant (f0 = 1).
    weights = []
    for k, enc in enumerate(nodes):
        f_lo, f_hi = _interval_eval(f0, enc.lo, enc.hi)
        while f_lo <= 0:  # f0 > 0 on [a,b]; refine until the bound shows it
            enc = bisect_root(gs[k], enc.lo, enc.hi, enc.width / 4)
            f_lo, f_hi = _interval_eval(f0, enc.lo, enc.hi)
        nodes[k] = enc
        weights.append(Enclosure(report.beta[k] / f_hi, report.beta[k] / f_lo))

    return OperatorSpec(report=report, nodes=tuple(nodes), weights=tuple(weights), tol=tol)


def _check_arity(spec: OperatorSpec, samples):
    if len(samples) != len(spec.nodes):
        raise ArityMismatch(f"{len(samples)} samples for {len(spec.nodes)} nodes")


def operator_combination(spec: OperatorSpec, samples) -> Polynomial:
    """The element sum(samples_k * alpha_k * p_k) as an exact polynomial.

    Requires exact weights: every node rational, or f0 constant.
    """
    _check_arity(spec, samples)
    if not all(w.is_exact for w in spec.weights):
        raise ValueError("operator has enclosure weights; no exact combination")
    out = Polynomial.zero()
    for s, w, p in zip(samples, spec.weights, spec.basis.elements):
        out = out + p.scale(as_rational(s) * w.lo)
    return out


def evaluate_operator(spec: OperatorSpec, samples, x) -> Enclosure:
    """Evaluate the operator at x for caller-supplied sample values.

    Returns a rigorous rational enclosure, exact when every weight is.
    """
    _check_arity(spec, samples)
    x = as_rational(x)
    lo_t = hi_t = Fraction(0)
    for s, w, p in zip(samples, spec.weights, spec.basis.elements):
        sp = as_rational(s) * p(x)
        vals = (sp * w.lo, sp * w.hi)
        lo_t += min(vals)
        hi_t += max(vals)
    return Enclosure(lo_t, hi_t)


@dataclass(frozen=True)
class StructuralDiagnostics:
    """Exact verification data for the derivative-expansion identities.

    For every k the numerator of (p_k / f0)' equals c_k Q_{k-1} + d_k Q_k,
    where Q is report.derived, with the boundary conventions c_0 = d_n = 0.
    The tail sums give c and d in closed form: N_k = sum_{j>=k} beta_j
    num_j, the numerator of (S_k / f0)', is s_k Q_{k-1} (see derived_space),
    and beta_k num_k = N_k - N_{k+1}, so c_k = s_k / beta_k and
    d_k = -s_{k+1} / beta_k with s_0 = s_{n+1} = 0.  N_k and Q_{k-1} are
    both positive just inside b, so s_k > 0: all interior c_k are positive
    and all interior d_k negative.  delta(k0) and the recurrence
    c_{k+1} delta_{k+1} = w_k - delta_k d_k tie the w coefficients to the
    coordinate ratios.
    """

    report: ExistenceReport
    c: tuple
    d: tuple

    def delta(self, k0: int) -> tuple:
        beta, gamma = self.report.beta, self.report.gamma
        pivot = gamma[k0] / beta[k0]
        return tuple(g - pivot * bk for g, bk in zip(gamma, beta))

    def recurrence_residuals(self, k0: int) -> tuple:
        """c_{k+1} delta_{k+1} - (w_k - delta_k d_k) for k = 0..n-1; all zero."""
        delta, w = self.delta(k0), self.report.w
        return tuple(
            self.c[k + 1] * delta[k + 1] - (w[k] - delta[k] * self.d[k])
            for k in range(len(w))
        )


def structural_diagnostics(report: ExistenceReport) -> StructuralDiagnostics:
    """c and d from the closed forms, each checked as an exact identity.

    Raises DerivedBasisUnavailable when the report has no w, and
    IdentityViolation naming the first k whose numerator is not
    c_k Q_{k-1} + d_k Q_k.
    """
    if report.w is None:
        raise DerivedBasisUnavailable(f"no non-negative derived basis: verdict {report.verdict}")
    f0, beta = report.problem.f0, report.beta
    nums = [derived_numerator(p, f0) for p in report.basis.elements]
    qs = (Polynomial.zero(), *report.derived.elements, Polynomial.zero())  # Q_{-1}..Q_n
    # N_n, N_{n-1}, ..., N_1: the terms beta_k num_k from k = n down to 1, summed.
    tails = list(accumulate(num.scale(bk) for num, bk in zip(nums[:0:-1], beta[:0:-1])))
    s = [0, *(t.leading / q.leading for t, q in zip(tails[::-1], report.derived.elements)), 0]
    c = tuple(s[k] / bk for k, bk in enumerate(beta))
    d = tuple(-s[k + 1] / bk for k, bk in enumerate(beta))
    for k, num in enumerate(nums):
        if num != qs[k].scale(c[k]) + qs[k + 1].scale(d[k]):
            raise IdentityViolation(f"exact reconstruction mismatch at k={k}")
    return StructuralDiagnostics(report=report, c=c, d=d)
