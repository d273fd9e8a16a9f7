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
from typing import Optional

from .errors import (
    ArityMismatch,
    BadTolerance,
    DerivedBasisUnavailable,
    F0NotPositive,
    IdentityViolation,
    InconsistentSystem,
    NotInSpace,
    RatioNotMonotone,
    ToleranceTooLoose,
)
from .linsolve import solve_linear
from .polynomial import Polynomial
from .rational import as_rational, format_rational
from .spaces import (
    GRADE_SIGNED,
    BernsteinBasis,
    DerivedSpaceRep,
    MonomialSpace,
    NoBasisReport,
    bernstein_basis,
    certify_positive_on_closed,
    coordinates,
    derived_space,
    descriptor_fields,
    normalize_when_possible,
)
from .sturm import (
    NONNEG_INTERIOR_ZEROS,
    STRICTLY_POSITIVE,
    RootEnclosure,
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

W_ALL_POSITIVE = "all-positive"
W_NONNEG_SOME_ZERO = "all-nonneg-some-zero"
W_HAS_NEGATIVE = "has-negative"

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

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "f0": self.f0.to_sparse(),
            "f1": self.f1.to_sparse(),
        }

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


def ratio_numerator(problem: OperatorProblem) -> Polynomial:
    """Numerator of (f1/f0)': f1' f0 - f1 f0'."""
    return problem.f1.derivative() * problem.f0 - problem.f1 * problem.f0.derivative()


def certify_monotone_ratio(problem: OperatorProblem):
    """Classify the monotonicity of f1/f0 on [a, b] with an exact certificate.

    Returns (token, classification-of-the-numerator).  A strictly
    increasing ratio with isolated critical points (like x^3 at 0) is
    accepted; only a sign-changing numerator is refused downstream.
    """
    a, b = problem.space.a, problem.space.b
    if not certify_positive_on_closed(problem.f0, a, b):
        raise F0NotPositive("f0 must be strictly positive on [a, b]")
    n1 = ratio_numerator(problem)
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


def w_coefficients(problem: OperatorProblem, rep: Optional[DerivedSpaceRep] = None):
    """Coordinates of (f1/f0)' in the derived-space Bernstein basis.

    Computed on numerators: both sides of the expansion share the factor
    1/f0^2, so the coordinates of f1' f0 - f1 f0' in the numerator basis
    are exactly the w coefficients.  Returns (w, sign-summary).
    """
    if rep is None:
        rep = derived_space(problem.space, problem.f0)
    if isinstance(rep, NoBasisReport):
        raise DerivedBasisUnavailable(f"derived basis refused: {rep.to_json()}")
    if rep.basis.positivity == GRADE_SIGNED:
        raise DerivedBasisUnavailable("derived Bernstein basis is not non-negative")
    w = coordinates(ratio_numerator(problem), rep.basis)
    if all(x > 0 for x in w):
        summary = W_ALL_POSITIVE
    elif all(x >= 0 for x in w):
        summary = W_NONNEG_SOME_ZERO
    else:
        summary = W_HAS_NEGATIVE
    return tuple(w), summary


def _monotonicity_from_ratios(ratios) -> str:
    steps = [b - a for a, b in zip(ratios, ratios[1:])]
    if all(s > 0 for s in steps):
        return MONO_STRICT
    if all(s >= 0 for s in steps):
        return MONO_NON_DECREASING
    return MONO_NONE


_W_TO_MONO = {
    W_ALL_POSITIVE: MONO_STRICT,
    W_NONNEG_SOME_ZERO: MONO_NON_DECREASING,
    W_HAS_NEGATIVE: MONO_NONE,
}


@dataclass(frozen=True)
class ExistenceReport:
    problem: OperatorProblem
    verdict: str
    basis: Optional[BernsteinBasis] = None
    no_basis: Optional[NoBasisReport] = None
    beta: Optional[tuple] = None
    gamma: Optional[tuple] = None
    ratios: Optional[tuple] = None
    in_range_flags: Optional[tuple] = None
    monotonicity: Optional[str] = None
    ratio_certificate: Optional[str] = None
    w: Optional[tuple] = None
    w_summary: Optional[str] = None
    cross_check: Optional[bool] = None

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
        return ExistenceReport(problem, VERDICT_NO_BASIS, no_basis=basis,
                               ratio_certificate=ratio_cert)
    if basis.positivity == GRADE_SIGNED:
        return ExistenceReport(problem, VERDICT_NO_BASIS, basis=basis,
                               ratio_certificate=ratio_cert)

    beta = coordinates(problem.f0, basis)
    gamma = coordinates(problem.f1, basis)
    common = dict(basis=basis, beta=beta, gamma=gamma, ratio_certificate=ratio_cert)
    if any(bk <= 0 for bk in beta):
        return ExistenceReport(problem, VERDICT_BETA, **common)

    ratios = tuple(g / bk for g, bk in zip(gamma, beta))
    a, b = problem.space.a, problem.space.b
    r_lo = problem.f1(a) / problem.f0(a)
    r_hi = problem.f1(b) / problem.f0(b)
    flags = tuple(r_lo <= r <= r_hi for r in ratios)
    monotonicity = _monotonicity_from_ratios(ratios)

    w = w_summary = cross = None
    try:
        w, w_summary = w_coefficients(problem)
        cross = _W_TO_MONO[w_summary] == monotonicity
    except DerivedBasisUnavailable:
        pass

    verdict = VERDICT_EXISTS if all(flags) else VERDICT_RANGE
    return ExistenceReport(
        problem,
        verdict,
        ratios=ratios,
        in_range_flags=flags,
        monotonicity=monotonicity,
        w=w,
        w_summary=w_summary,
        cross_check=cross,
        **common,
    )


def _interval_eval(p: Polynomial, lo: Fraction, hi: Fraction):
    """Rigorous rational bounds for p over [lo, hi] by interval Horner."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(p.coeffs):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(prods) + c, max(prods) + c
    return acc_lo, acc_hi


@dataclass(frozen=True)
class OperatorSpec:
    basis: BernsteinBasis
    nodes: tuple  # RootEnclosure per k
    weights: tuple  # Fraction when the node is exact, else (lo, hi) pair
    tol: Fraction
    ratios: tuple

    def node_order(self) -> str:
        """Node ordering implied by the exact ratio ordering, e.g. 't0 < t2 = t1'."""
        idx = sorted(range(len(self.ratios)), key=lambda k: (self.ratios[k], k))
        parts = [f"t{idx[0]}"]
        for prev, cur in zip(idx, idx[1:]):
            sep = " = " if self.ratios[cur] == self.ratios[prev] else " < "
            parts.append(sep + f"t{cur}")
        return "".join(parts)

    def to_json(self):
        weights = []
        for w in self.weights:
            if isinstance(w, tuple):
                weights.append({"lo": format_rational(w[0]), "hi": format_rational(w[1])})
            else:
                weights.append(format_rational(w))
        return {
            "nodes": [e.to_json() for e in self.nodes],
            "weights": weights,
            "node_order": self.node_order(),
            "tol": format_rational(self.tol),
        }


def build_operator(report: ExistenceReport, tol=DEFAULT_TOL) -> OperatorSpec:
    """Nodes and weights for an `exists` verdict.

    Each node solves f1 - r_k f0 = 0 on [a, b]: certified bisection to
    width tol, then an exact test for a rational root in that enclosure, so
    rational nodes come back exact (width-0 enclosures) at any coefficient
    size.  Weights are beta_k / f0(t_k), exact for rational nodes and
    rigorous rational enclosures otherwise.  Raises BadTolerance unless
    tol > 0.
    """
    if report.verdict != VERDICT_EXISTS:
        raise ValueError(f"operator does not exist: verdict {report.verdict}")
    tol = as_rational(tol)
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {format_rational(tol)}")
    problem = report.problem
    a, b = problem.space.a, problem.space.b
    f0, f1 = problem.f0, problem.f1

    nodes = []
    for r in report.ratios:
        g = f1 - f0.scale(r)
        # f1/f0 strictly increasing => g has one root in [a, b], a crossing
        enc = bisect_root(g, a, b, tol)
        root = rational_root_in(g, enc)
        nodes.append(enc if root is None else RootEnclosure(root, root))

    # Distinct ratios must yield separated enclosures at this tolerance.
    order = sorted(range(len(nodes)), key=lambda k: (report.ratios[k], k))
    for i, j in zip(order, order[1:]):
        if report.ratios[i] != report.ratios[j] and not nodes[i].hi < nodes[j].lo:
            if not (nodes[i].is_exact and nodes[j].is_exact):
                raise ToleranceTooLoose(
                    f"enclosures for t{i} and t{j} overlap at tol {format_rational(tol)}"
                )

    weights = []
    for k, enc in enumerate(nodes):
        if enc.is_exact:
            weights.append(report.beta[k] / f0(enc.lo))
            continue
        lo, hi = enc.lo, enc.hi
        f_lo, f_hi = _interval_eval(f0, lo, hi)
        while f_lo <= 0:  # f0 > 0 on [a,b]; refine until the bound shows it
            enc = bisect_root(f1 - f0.scale(report.ratios[k]), lo, hi, (hi - lo) / 4)
            lo, hi = enc.lo, enc.hi
            if enc.is_exact:
                break
            f_lo, f_hi = _interval_eval(f0, lo, hi)
        nodes[k] = enc
        if enc.is_exact:
            weights.append(report.beta[k] / f0(enc.lo))
        elif f_lo == f_hi:  # f0 constant over the enclosure (e.g. f0 = 1)
            weights.append(report.beta[k] / f_lo)
        else:
            weights.append((report.beta[k] / f_hi, report.beta[k] / f_lo))

    return OperatorSpec(
        basis=report.basis,
        nodes=tuple(nodes),
        weights=tuple(weights),
        tol=tol,
        ratios=report.ratios,
    )


def operator_combination(spec: OperatorSpec, samples) -> Polynomial:
    """The element sum(samples_k * alpha_k * p_k) as an exact polynomial.

    Requires exact rational weights (all nodes rational).
    """
    if len(samples) != len(spec.nodes):
        raise ArityMismatch(f"{len(samples)} samples for {len(spec.nodes)} nodes")
    if any(isinstance(w, tuple) for w in spec.weights):
        raise ValueError("operator has enclosure weights; no exact combination")
    out = Polynomial.zero()
    for s, w, p in zip(samples, spec.weights, spec.basis.elements):
        out = out + p.scale(as_rational(s) * w)
    return out


def evaluate_operator(spec: OperatorSpec, samples, x):
    """Evaluate the operator at x for caller-supplied sample values.

    Returns an exact Fraction when all weights are rational, otherwise a
    rigorous (lo, hi) rational enclosure.
    """
    if len(samples) != len(spec.nodes):
        raise ArityMismatch(f"{len(samples)} samples for {len(spec.nodes)} nodes")
    x = as_rational(x)
    exact = not any(isinstance(w, tuple) for w in spec.weights)
    if exact:
        total = Fraction(0)
        for s, w, p in zip(samples, spec.weights, spec.basis.elements):
            total += as_rational(s) * w * p(x)
        return total
    lo_t = hi_t = Fraction(0)
    for s, w, p in zip(samples, spec.weights, spec.basis.elements):
        sv = as_rational(s)
        w_lo, w_hi = w if isinstance(w, tuple) else (w, w)
        vals = (sv * w_lo * p(x), sv * w_hi * p(x))
        lo_t += min(vals)
        hi_t += max(vals)
    return (lo_t, hi_t)


@dataclass(frozen=True)
class StructuralDiagnostics:
    """Exact verification data for the derivative-expansion identities.

    For every k the numerator of (p_k / f0)' equals
    c_k Q_{k-1} + d_k Q_k with the boundary conventions c_0 = d_n = 0;
    with non-negative bases all interior c_k are positive and all interior
    d_k negative.  delta(k0) and the recurrence c_{k+1} delta_{k+1} = w_k -
    delta_k d_k tie the w coefficients to the coordinate ratios.
    """

    problem: OperatorProblem
    basis: BernsteinBasis
    derived: DerivedSpaceRep
    c: tuple
    d: tuple
    eqprec_ok: tuple
    beta: tuple
    gamma: tuple
    w: tuple
    w_summary: str

    def delta(self, k0: int) -> tuple:
        pivot = self.gamma[k0] / self.beta[k0]
        return tuple(g - pivot * bk for g, bk in zip(self.gamma, self.beta))

    def recurrence_residuals(self, k0: int) -> tuple:
        """c_{k+1} delta_{k+1} - (w_k - delta_k d_k) for k = 0..n-1; all zero."""
        delta = self.delta(k0)
        return tuple(
            self.c[k + 1] * delta[k + 1] - (self.w[k] - delta[k] * self.d[k])
            for k in range(len(self.w))
        )


def structural_diagnostics(problem: OperatorProblem) -> StructuralDiagnostics:
    basis = normalize_when_possible(bernstein_basis(problem.space))
    if isinstance(basis, NoBasisReport):
        raise DerivedBasisUnavailable(f"no Bernstein basis: {basis.to_json()}")
    rep = derived_space(problem.space, problem.f0)
    w, w_summary = w_coefficients(problem, rep)
    beta = coordinates(problem.f0, basis)
    gamma = coordinates(problem.f1, basis)

    q = rep.basis.elements
    n = basis.order
    f0, f0d = problem.f0, problem.f0.derivative()
    c = [Fraction(0)] * (n + 1)
    d = [Fraction(0)] * (n + 1)
    ok = []
    for k, p in enumerate(basis.elements):
        target = p.derivative() * f0 - p * f0d
        cols = []
        if k >= 1:
            cols.append(q[k - 1])
        if k <= n - 1:
            cols.append(q[k])
        height = max(
            [len(target.coeffs)] + [len(col.coeffs) for col in cols] + [1]
        )
        matrix = [[col.coeff(i) for col in cols] for i in range(height)]
        rhs = [target.coeff(i) for i in range(height)]
        try:
            sol = solve_linear(matrix, rhs)
        except InconsistentSystem as exc:
            raise IdentityViolation(f"derivative expansion failed at k={k}") from exc
        vals = list(sol.particular)
        if k >= 1:
            c[k] = vals.pop(0)
        if k <= n - 1:
            d[k] = vals.pop(0)
        recon = Polynomial.zero()
        if k >= 1:
            recon = recon + q[k - 1].scale(c[k])
        if k <= n - 1:
            recon = recon + q[k].scale(d[k])
        ok.append(recon == target)
    if not all(ok):
        raise IdentityViolation("exact reconstruction mismatch")

    return StructuralDiagnostics(
        problem=problem,
        basis=basis,
        derived=rep,
        c=tuple(c),
        d=tuple(d),
        eqprec_ok=tuple(ok),
        beta=beta,
        gamma=gamma,
        w=w,
        w_summary=w_summary,
    )
