import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bernstein_forge.operator as operator_module
import bernstein_forge.spaces as spaces_module
from bernstein_forge import (
    ArityMismatch,
    BadTolerance,
    DerivedBasisUnavailable,
    Enclosure,
    F0NotPositive,
    IdentityViolation,
    OperatorProblem,
    Polynomial,
    RatioNotMonotone,
    ToleranceTooLoose,
    bernstein_basis,
    build_operator,
    build_space,
    certify_monotone_ratio,
    certify_problem,
    coordinates,
    derived_space,
    evaluate_operator,
    existence_report,
    normalize_when_possible,
    operator_combination,
    structural_diagnostics,
    w_coefficients,
)
from bernstein_forge.corpus import CASES
from bernstein_forge.operator import (
    DEFAULT_TOL,
    MONO_NON_DECREASING,
    MONO_NONE,
    MONO_STRICT,
    RATIO_CRITICAL,
    RATIO_NOT_MONOTONE,
    RATIO_STRICT,
    VERDICT_EXISTS,
    VERDICT_NO_BASIS,
    VERDICT_RANGE,
    W_ALL_POSITIVE,
    W_HAS_NEGATIVE,
)
from bernstein_forge.spaces import derived_numerator
from test_acceptance import _structural_problems
from test_spaces import derived_reference, planted_problems

ONE = Polynomial.one()
X = Polynomial.monomial(1)
X3 = Polynomial.monomial(3)


def full_space(n, a, b):
    return build_space(list(range(n + 1)), a, b)


def problem(exponents, a, b, f0, f1):
    return OperatorProblem(build_space(exponents, a, b), f0, f1)


# The full cubic on [99, 101] with f0 = x^2 - 200x + 10002 = (x - 100)^2 + 2
# and f1 = x f0 + x^2/10000: the operator exists, and at tol 1/8 the
# interval bound of f0 over the enclosures of t1 and t2 is not positive.
F0_NEAR_ZERO = Polynomial.from_sparse("0:10002,1:-200,2:1")
REFINED = problem([0, 1, 2, 3], 99, 101, F0_NEAR_ZERO,
                  X * F0_NEAR_ZERO + Polynomial.from_sparse("2:1/10000"))


class TestCertification:
    def test_strictly_increasing_ratio(self):
        token, _ = certify_monotone_ratio(problem([0, 1], 0, 1, ONE, X))
        assert token == RATIO_STRICT

    def test_critical_point_accepted(self):
        token, cls = certify_monotone_ratio(problem([0, 1, 2, 3], -1, 1, ONE, X3))
        assert token == RATIO_CRITICAL
        assert cls.verdict == "non-negative-with-interior-zeros"

    def test_non_monotone_refused(self):
        with pytest.raises(RatioNotMonotone):
            certify_problem(problem([0, 1, 2], -1, 1, ONE, Polynomial.monomial(2)))

    def test_f0_not_positive(self):
        with pytest.raises(F0NotPositive):
            certify_monotone_ratio(problem([0, 1], -1, 1, X, X))

    def test_nontrivial_pair(self):
        # f1/f0 = x/(1+x^2) has numerator 1 - x^2, positive on (-1/2, 1/2).
        p = problem([0, 1, 2], Fraction(-1, 2), Fraction(1, 2),
                    Polynomial.from_sparse("0:1,2:1"), X)
        token, _ = certify_monotone_ratio(p)
        assert token == RATIO_STRICT

    def test_constant_ratio_is_identically_zero(self):
        f0 = Polynomial.from_sparse("0:1,1:1")
        token, cls = certify_monotone_ratio(problem([0, 1], 0, 1, f0, f0 * 2))
        assert token == RATIO_NOT_MONOTONE
        assert cls.verdict == "identically-zero"


class TestExistence:
    def test_two_dim_cubic_space(self):
        report = existence_report(problem([0, 3], -1, 1, ONE, X3))
        assert report.verdict == VERDICT_EXISTS
        assert report.ratios == (-1, 1)
        assert report.monotonicity == MONO_STRICT

    def test_cubics_symmetric_interval_oscillates_but_exists(self):
        report = existence_report(problem([0, 1, 2, 3], -1, 1, ONE, X3))
        assert report.verdict == VERDICT_EXISTS
        assert report.gamma == (-1, 1, -1, 1)
        assert report.ratios == (-1, 1, -1, 1)
        assert report.monotonicity == MONO_NONE
        assert report.w == (3, -3, 3)
        assert report.w_summary == W_HAS_NEGATIVE
        assert report.cross_check is True

    def test_cubics_shifted_interval_out_of_range(self):
        report = existence_report(problem([0, 1, 2, 3], -1, 2, ONE, X3))
        assert report.verdict == VERDICT_RANGE
        assert report.gamma == (-1, 2, -4, 8)
        assert report.in_range_flags == (True, True, False, True)

    def test_bezier_control_points_exist_non_monotone(self):
        f1 = Polynomial.from_sparse("1:3/8,2:-1/2,3:1/3")
        report = existence_report(problem([0, 1, 2, 3], 0, 1, ONE, f1))
        assert report.verdict == VERDICT_EXISTS
        assert report.gamma == (0, Fraction(1, 8), Fraction(1, 12), Fraction(5, 24))
        assert report.monotonicity == MONO_NONE
        assert report.w == (Fraction(3, 8), Fraction(-1, 8), Fraction(3, 8))
        assert report.cross_check is True

    def test_degree_six_gap_space(self):
        report = existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        assert report.verdict == VERDICT_EXISTS
        assert report.gamma == (-1, Fraction(3, 4), 0, Fraction(-3, 4), 1)
        assert report.monotonicity == MONO_NONE

    def test_degree_six_gap_space_shifted(self):
        report = existence_report(problem([0, 1, 2, 3, 6], -1, 2, ONE, X3))
        assert report.verdict == VERDICT_RANGE
        assert report.gamma[2] == Fraction(-16, 7)
        assert report.in_range_flags[2] is False

    def test_no_nonneg_basis_verdict(self):
        report = existence_report(problem([0, 1, 3], -1, 1, ONE, X3))
        assert report.verdict == VERDICT_NO_BASIS

    def test_json_serializable(self):
        payload = existence_report(problem([0, 3], -1, 1, ONE, X3)).to_json()
        assert payload["verdict"] == "exists"
        assert payload["ratios"] == ["-1", "1"]

    def test_classical_always_strict(self):
        for n in range(1, 5):
            report = existence_report(OperatorProblem(full_space(n, 0, 1), ONE, X))
            assert report.verdict == VERDICT_EXISTS
            assert report.monotonicity == MONO_STRICT
            assert report.w_summary == W_ALL_POSITIVE
            assert report.ratios == tuple(Fraction(k, n) for k in range(n + 1))


def derived_of(prob):
    """The derived basis existence_report builds for prob: from the base
    basis that normalize_when_possible returns, and beta."""
    basis = normalize_when_possible(bernstein_basis(prob.space))
    return derived_space(basis, coordinates(prob.f0, basis), prob.f0)


class TestWCoefficients:
    def test_collocation_oracle(self):
        # w expands (f1)' in the derived basis; check the expansion by
        # evaluating both sides at several rational points.
        prob = problem([0, 1, 2, 3], -1, 1, ONE, X3)
        derived = derived_of(prob)
        w = w_coefficients(prob, derived)
        assert w == (3, -3, 3)
        deriv = X3.derivative()
        for x in (Fraction(-1), Fraction(-1, 3), 0, Fraction(2, 5), 1):
            lhs = deriv(x)
            rhs = sum(wk * q(x) for wk, q in zip(w, derived.elements))
            assert lhs == rhs

    def test_all_positive_for_strict_classical(self):
        prob = problem([0, 1, 2], 0, 1, ONE, X)
        w = w_coefficients(prob, derived_of(prob))
        assert all(x > 0 for x in w)

    def test_refused_derived_basis(self):
        # span{1, x, x^3} on [-1, 1] has a signed basis in which f0 = 1 has
        # beta = (1/4, 0, 1/4): derived_space refuses a non-positive beta.
        prob = problem([0, 1, 3], -1, 1, ONE, X3)
        basis = bernstein_basis(prob.space)
        beta = coordinates(ONE, basis)
        assert beta == (Fraction(1, 4), 0, Fraction(1, 4))
        with pytest.raises(DerivedBasisUnavailable, match="every beta_k > 0"):
            derived_space(basis, beta, ONE)

    def test_signed_derived_basis(self):
        # span{1, x^2, x^4} on [-7/3, 3] has a signed basis in which f0 = 1
        # has beta > 0; its derived span{x, x^3} has the signed basis
        # (9x - x^3, 9x^3 - 49x): no w in a basis of mixed sign.
        prob = problem([0, 2, 4], Fraction(-7, 3), 3, ONE, X)
        assert bernstein_basis(prob.space).positivity == "signed"
        derived = derived_of(prob)
        assert [p.to_sparse() for p in derived.elements] == ["1:9,3:-1", "1:-49,3:9"]
        assert derived.positivity == "signed"
        with pytest.raises(DerivedBasisUnavailable, match="not non-negative"):
            w_coefficients(prob, derived)


class TestBuildOperator:
    def test_classical_equispaced_unit_weights(self):
        report = existence_report(OperatorProblem(full_space(3, 0, 1), ONE, X))
        spec = build_operator(report)
        assert all(e.is_exact for e in spec.nodes)
        assert [e.lo for e in spec.nodes] == [0, Fraction(1, 3), Fraction(2, 3), 1]
        assert spec.weights == (Enclosure(1, 1),) * 4
        assert spec.node_order() == "t0 < t1 < t2 < t3"

    def test_cubics_symmetric_nodes_collapse(self):
        report = existence_report(problem([0, 1, 2, 3], -1, 1, ONE, X3))
        spec = build_operator(report)
        assert [e.lo for e in spec.nodes] == [-1, 1, -1, 1]
        assert all(e.is_exact for e in spec.nodes)
        assert spec.node_order() == "t0 = t2 < t1 = t3"

    def test_degree_six_gap_node_order_and_enclosures(self):
        report = existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        spec = build_operator(report)
        assert spec.node_order() == "t0 < t3 < t2 < t1 < t4"
        # t1 is the real cube root of 3/4, t3 its negative, t2 = 0 exactly.
        assert spec.nodes[2].is_exact and spec.nodes[2].lo == 0
        assert spec.nodes[1].lo**3 <= Fraction(3, 4) <= spec.nodes[1].hi**3
        assert spec.nodes[3].lo**3 <= Fraction(-3, 4) <= spec.nodes[3].hi**3
        for e in spec.nodes:
            assert e.width <= DEFAULT_TOL
        # f0 = 1 and the basis is normalized, so every weight is exactly 1.
        assert spec.weights == (Enclosure(1, 1),) * 5

    def test_endpoint_nodes_always_exact(self):
        for exps, a, b, f1 in (
            ([0, 3], -1, 1, X3),
            ([0, 1, 2], 0, 1, X),
            ([0, 1, 2, 3, 6], -1, 1, X3),
        ):
            spec = build_operator(existence_report(problem(exps, a, b, ONE, f1)))
            assert spec.nodes[0].is_exact and spec.nodes[0].lo == a
            assert spec.nodes[-1].is_exact and spec.nodes[-1].lo == b

    def test_tolerance_too_loose(self):
        report = existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        with pytest.raises(ToleranceTooLoose):
            build_operator(report, tol=1)

    @pytest.mark.parametrize("tol", [0, -1])
    def test_non_positive_tolerance_rejected(self, tol):
        rep = existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        with pytest.raises(BadTolerance):
            build_operator(rep, tol)

    def test_rational_node_with_large_denominator_is_exact(self):
        # f1 = x^2 on [s^2, t^2]: the middle node is sqrt(s^2 t^2) = s t,
        # whose denominator 10007^2 exceeds 10^7.
        s, t = Fraction(10001, 10007), Fraction(20011, 10007)
        rep = existence_report(problem([0, 1, 2], s * s, t * t, ONE, Polynomial.monomial(2)))
        spec = build_operator(rep)
        assert [(e.lo, e.hi) for e in spec.nodes] == [(s * s, s * s), (s * t, s * t), (t * t, t * t)]
        assert spec.weights == (Enclosure(1, 1),) * 3

    def test_weight_refinement_narrows_nodes(self):
        tol = Fraction(1, 8)
        report = existence_report(REFINED)
        spec = build_operator(report, tol)
        assert spec.nodes[1].width < tol and spec.nodes[2].width < tol
        for k, (e, w) in enumerate(zip(spec.nodes, spec.weights)):
            assert 0 < w.lo <= w.hi
            for x in (e.lo, e.hi):
                assert w.lo <= report.beta[k] / F0_NEAR_ZERO(x) <= w.hi
        assert not spec.weights[1].is_exact and not spec.weights[2].is_exact

    def test_rejects_nonexistent(self):
        report = existence_report(problem([0, 1, 2, 3], -1, 2, ONE, X3))
        with pytest.raises(ValueError):
            build_operator(report)

    def test_json(self):
        spec = build_operator(existence_report(problem([0, 3], -1, 1, ONE, X3)))
        payload = spec.to_json()
        assert payload["nodes"] == [{"lo": "-1", "hi": "-1"}, {"lo": "1", "hi": "1"}]
        assert payload["weights"] == ["1", "1"]
        assert payload["node_order"] == "t0 < t1"


class TestApplication:
    def test_two_dim_space_reproduces_f1(self):
        spec = build_operator(existence_report(problem([0, 3], -1, 1, ONE, X3)))
        samples = [X3(e.lo) for e in spec.nodes]
        assert operator_combination(spec, samples) == X3

    def test_fixed_functions_reproduced_exactly(self):
        for exps, a, b, f0, f1 in (
            ([0, 1, 2, 3], 0, 1, ONE, X),
            ([0, 1, 2, 3], -1, 1, ONE, X3),
            ([0, 3], -1, 1, ONE, X3),
        ):
            prob = problem(exps, a, b, f0, f1)
            spec = build_operator(existence_report(prob))
            assert all(e.is_exact for e in spec.nodes)
            assert operator_combination(spec, [f0(e.lo) for e in spec.nodes]) == f0
            assert operator_combination(spec, [f1(e.lo) for e in spec.nodes]) == f1

    def test_cubic_space_projections(self):
        # With nodes (-1, 1, -1, 1) the sample vector of x^2 is all ones and
        # that of x^5 equals that of x^3, forcing these exact projections.
        spec = build_operator(existence_report(problem([0, 1, 2, 3], -1, 1, ONE, X3)))
        nodes = [e.lo for e in spec.nodes]
        assert operator_combination(spec, [t**2 for t in nodes]) == ONE
        assert operator_combination(spec, [t**5 for t in nodes]) == X3

    def test_evaluate_matches_combination(self):
        spec = build_operator(existence_report(problem([0, 1, 2, 3], 0, 1, ONE, X)))
        samples = [Fraction(1, 1 + k) for k in range(4)]
        combo = operator_combination(spec, samples)
        for x in (0, Fraction(1, 7), Fraction(1, 2), 1):
            got = evaluate_operator(spec, samples, x)
            assert got.is_exact and got.lo == combo(x)

    def test_enclosure_node_residual_bound(self):
        # Nodes of the gap space are irrational; sampling f1 at enclosure
        # midpoints reproduces f1 up to L * max-width because the operator
        # fixes constants (sum of alpha_k p_k = 1) and |f1'| <= 3 on [-1,1].
        spec = build_operator(existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3)))
        samples = [X3(e.midpoint()) for e in spec.nodes]
        budget = 3 * max(e.width for e in spec.nodes)
        for i in range(21):
            x = Fraction(-1) + Fraction(i, 10)
            got = evaluate_operator(spec, samples, x)
            assert got.is_exact and abs(got.lo - X3(x)) <= budget

    def test_inexact_weights(self):
        spec = build_operator(existence_report(REFINED), Fraction(1, 8))
        with pytest.raises(ValueError, match="enclosure weights"):
            operator_combination(spec, [1, 1, 1, 1])
        assert not evaluate_operator(spec, [1, 1, 1, 1], 100).is_exact

    def test_arity_mismatch(self):
        spec = build_operator(existence_report(problem([0, 3], -1, 1, ONE, X3)))
        with pytest.raises(ArityMismatch):
            operator_combination(spec, [1])
        with pytest.raises(ArityMismatch):
            evaluate_operator(spec, [1, 2, 3], 0)


def diagnostics(exponents, a, b, f0, f1):
    return structural_diagnostics(existence_report(problem(exponents, a, b, f0, f1)))


# The full quintic on [0, 1] with (f0, f1) = (1, x): every w_k is positive.
QUINTIC = problem([0, 1, 2, 3, 4, 5], 0, 1, ONE, X)


def with_derived_element(report, j, change):
    """The report with derived element j replaced by change(Q_j, Q_{j+1})."""
    q = list(report.derived.elements)
    q[j] = change(q[j], q[j + 1])
    derived = dataclasses.replace(report.derived, elements=tuple(q))
    return dataclasses.replace(report, derived=derived)


def window_solve_reference(prob):
    """Reference c, d and w by linear solves, from the problem alone: the
    derived basis by null-space solves, w by its own solve, and one
    coordinates solve per window (Q_{k-1}, Q_k)."""
    basis = normalize_when_possible(bernstein_basis(prob.space))
    derived = derived_reference(prob.space, prob.f0)
    q, n = derived.elements, basis.order
    c = [Fraction(0)] * (n + 1)
    d = [Fraction(0)] * (n + 1)
    for k, p in enumerate(basis.elements):
        vals = coordinates(derived_numerator(p, prob.f0), q[max(k - 1, 0):k + 1])
        if k >= 1:
            c[k] = vals[0]
        if k <= n - 1:
            d[k] = vals[-1]
    return tuple(c), tuple(d), coordinates(derived_numerator(prob.f1, prob.f0), q)


def assert_matches_reference(prob):
    report = existence_report(prob)
    if report.w is None:
        with pytest.raises(DerivedBasisUnavailable):
            structural_diagnostics(report)
        return False
    diag = structural_diagnostics(report)
    assert (diag.c, diag.d, report.w) == window_solve_reference(prob)
    return True


class TestStructuralDiagnostics:
    def test_linear_space(self):
        diag = diagnostics([0, 1], 0, 1, ONE, X)
        assert diag.c == (0, 1)
        assert diag.d == (-1, 0)
        assert diag.report.w == (1,)

    def test_quadratic_space(self):
        diag = diagnostics([0, 1, 2], 0, 1, ONE, X)
        assert diag.c == (0, 2, 2)
        assert diag.d == (-2, -2, 0)
        assert diag.report.w == (1, 1)
        assert all(r == 0 for r in diag.recurrence_residuals(0))

    def test_interior_sign_laws(self):
        for exps, a, b, f1 in (
            ([0, 1, 2, 3], -1, 1, X3),
            ([0, 1, 2, 3, 6], -1, 1, X3),
            ([0, 1, 2, 3], 0, 1, X),
        ):
            diag = diagnostics(exps, a, b, ONE, f1)
            n = len(diag.c) - 1
            assert diag.c[0] == 0 and diag.d[n] == 0
            assert all(diag.c[k] > 0 for k in range(1, n + 1))
            assert all(diag.d[k] < 0 for k in range(n))

    def test_f0_not_positive(self):
        # f0 = x changes sign on [-1, 1]; existence_report refuses it before
        # there is a report to diagnose.
        with pytest.raises(F0NotPositive):
            existence_report(problem([0, 1], -1, 1, X, X))

    def test_one_generator_space(self):
        # span{x^2} with f1 = 3 f0: the ratio is constant, which the
        # standing hypotheses refuse, so there is no report to diagnose.
        x2 = Polynomial.monomial(2)
        with pytest.raises(RatioNotMonotone):
            existence_report(problem([2], 1, 2, x2, x2.scale(3)))

    def test_no_w_refused(self):
        # span{1, x, x^3} on [-1, 1]: beta_1 = 0, so the report has no w.
        report = existence_report(problem([0, 1, 3], -1, 1, ONE, X3))
        assert report.w is None and report.derived is None
        with pytest.raises(DerivedBasisUnavailable):
            structural_diagnostics(report)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_reconstruction_mismatch_named(self, k):
        # Q_k replaced by Q_k + Q_{k+1}: every numerator before k still
        # reconstructs, the one of index k cannot.
        report = with_derived_element(existence_report(QUINTIC), k, lambda q, nxt: q + nxt)
        with pytest.raises(IdentityViolation, match=f"mismatch at k={k}$"):
            structural_diagnostics(report)

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_negated_element_breaks_sign_laws(self, j):
        # -Q_j reconstructs exactly with s_{j+1} < 0: c_{j+1} < 0 < d_j.
        diag = structural_diagnostics(
            with_derived_element(existence_report(QUINTIC), j, lambda q, nxt: -q))
        assert diag.c[j + 1] < 0 < diag.d[j]

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_rescaled_element_breaks_recurrence(self, j):
        # 3 Q_j reconstructs exactly with c, d of the right signs, but the
        # report's w was taken in the true basis: residual k = j is -2 w_j / 3.
        diag = structural_diagnostics(
            with_derived_element(existence_report(QUINTIC), j, lambda q, nxt: q.scale(3)))
        residuals = diag.recurrence_residuals(0)
        assert residuals[j] == -2 * diag.report.w[j] / 3 != 0

    def test_recurrence_all_pivots(self):
        diag = diagnostics([0, 1, 2, 3, 6], -1, 1, ONE, X3)
        for k0 in range(len(diag.report.beta)):
            assert all(r == 0 for r in diag.recurrence_residuals(k0))
            assert diag.delta(k0)[k0] == 0

    def test_matches_window_solves_on_criterion_10_problems(self):
        assert sum(assert_matches_reference(prob) for prob in _structural_problems()) >= 15

    @given(planted_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_window_solves_on_planted_problems(self, case):
        # f1 = sum r_k beta_k p_k with non-decreasing r: an increasing ratio
        # whenever the derived basis is non-negative.
        space, f0, ratios = case
        basis = normalize_when_possible(bernstein_basis(space))
        f1 = Polynomial.zero()
        for r, bk, p in zip(sorted(ratios), coordinates(f0, basis), basis.elements):
            f1 = f1 + p.scale(r * bk)
        try:
            assert_matches_reference(OperatorProblem(space, f0, f1))
        except RatioNotMonotone:
            assume(False)

    def test_call_counts(self, monkeypatch):
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(operator_module, "derived_space")
        report = existence_report(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        assert calls == ["derived_space"]

        calls.clear()
        for module, name in (
            (operator_module, "coordinates"),
            (operator_module, "bernstein_basis"),
            (operator_module, "certify_positive_on_closed"),
            (spaces_module, "coordinates"),
            (spaces_module, "solve_linear"),
            (spaces_module, "derived_space"),
            (spaces_module, "bernstein_basis"),
        ):
            counted(module, name)
        structural_diagnostics(report)
        assert calls == []


class TestEquivalenceSpotCheck:
    def test_strict_increase_iff_positive_w(self):
        # Build f1 as the antiderivative of h^2 + c so the ratio derivative
        # sign structure is controlled, then compare the two criteria.
        random.seed(3)
        space = full_space(3, 0, 1)
        for _ in range(20):
            h = Polynomial([Fraction(random.randint(-3, 3)) for _ in range(2)])
            c = Fraction(random.randint(0, 2))
            g = h * h + Polynomial([c])
            f1 = Polynomial([0] + [cf / (i + 1) for i, cf in enumerate(g.coeffs)])
            prob = OperatorProblem(space, ONE, f1)
            try:
                certify_problem(prob)
            except RatioNotMonotone:
                continue
            report = existence_report(prob)
            assert (report.monotonicity == MONO_STRICT) == (
                report.w_summary == W_ALL_POSITIVE
            )
            assert (report.monotonicity in (MONO_STRICT, MONO_NON_DECREASING)) == (
                report.w_summary != W_HAS_NEGATIVE
            )


def antiderivative(p: Polynomial) -> Polynomial:
    return Polynomial([0] + [c / (i + 1) for i, c in enumerate(p.coeffs)])


def small_rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


def positive_weights(draw, a, b):
    """f0 = 1, c (x - a) + d or (x - m)^2 + e, positive on the closed [a, b]."""
    kind = draw(st.sampled_from(["one", "linear", "quadratic"]))
    if kind == "one":
        return ONE
    if kind == "linear":
        c = draw(small_rationals(-6, 6))
        d = draw(small_rationals(1, 8)) + max(-c * (b - a), 0)
        return Polynomial([d - c * a, c])
    m = a + (b - a) * draw(st.integers(0, 8)) / 8
    return Polynomial([m * m + draw(small_rationals(1, 8)), -2 * m, 1])


def bernstein_form(w, a, b) -> Polynomial:
    """sum of w_k (x - a)^k (b - x)^(m - k) over k = 0..m, m = len(w) - 1."""
    out = Polynomial.zero()
    for k, wk in enumerate(w):
        term = Polynomial([wk])
        for _ in range(k):
            term = term * (X - Polynomial([a]))
        for _ in range(len(w) - 1 - k):
            term = term * (Polynomial([b]) - X)
        out = out + term
    return out


@st.composite
def planted_zero_problems(draw, zeros=("interior", "a", "b", None)):
    """(problem, zero): f0 positive on [a, b] (see `positive_weights`) and
    f1 = f0 phi, phi = integral of (x - c)^2 q + mu with q > 0 on [a, b],
    so (f1/f0)' = phi' = (x - c)^2 q.  The space is the span of x^0..x^deg,
    deg = n + deg f0 with n = 2..6 - deg f0, which holds f1, and in a gap
    span one or two higher exponents besides.

    zero, drawn from zeros, says where (f1/f0)' vanishes on [a, b]:
    "interior", "a", "b", or None when c is absent.  n = 2 leaves no room
    for the factor (x - c)^2, so c is absent there.  With c absent, q may
    also be drawn as `bernstein_form` of non-negative integers, positive at
    both ends: with f0 = 1 on a full space, a zero among them gives two
    equal ratios.
    """
    a = draw(small_rationals(-12, 12))
    b = a + draw(small_rationals(1, 12))
    f0 = positive_weights(draw, a, b)
    n = draw(st.integers(2, 6 - f0.degree))
    zero = draw(st.sampled_from(zeros)) if n >= 3 else None
    if zero == "interior":
        c = a + (b - a) * draw(st.integers(1, 7)) / 8
    else:
        c = {"a": a, "b": b}.get(zero)
    derivative = Polynomial([draw(small_rationals(1, 8))])
    room = n - 1 - (2 if zero else 0)
    if zero is None and draw(st.booleans()):
        ends = st.integers(1, 3)
        w = [draw(ends), *(draw(st.integers(0, 2)) for _ in range(n - 2)), draw(ends)]
        derivative, room = derivative * bernstein_form(w, a, b), 0
    while room > 0 and draw(st.booleans()):
        factor = draw(st.sampled_from(["above-a", "below-b", "square"]))
        if factor == "square" and room >= 2:
            m = draw(small_rationals(-16, 16))
            term = Polynomial([m * m + draw(small_rationals(1, 8)), -2 * m, 1])
            room -= 2
        elif factor == "below-b":  # r - x with r > b
            term = Polynomial([b + draw(small_rationals(0, 8)) + Fraction(1, 8), -1])
            room -= 1
        else:  # x - r with r < a
            term = Polynomial([draw(small_rationals(0, 8)) + Fraction(1, 8) - a, 1])
            room -= 1
        derivative = derivative * term
    if c is not None:
        root = X - Polynomial([c])
        derivative = derivative * root * root
    f1 = f0 * (antiderivative(derivative) + Polynomial([draw(small_rationals(-8, 8))]))
    top = n + f0.degree
    exponents = list(range(top + 1))
    exponents += sorted(draw(st.sets(st.integers(top + 2, top + 6), max_size=2)))
    return OperatorProblem(build_space(exponents, a, b), f0, f1), zero


class TestNecessaryCondition:
    """The paper's necessary condition on the nodes.

    Non-decreasing nodes need (f1/f0)' > 0 on (a, b); strictly increasing
    nodes need it on [a, b].  So an operator that exists although
    (f1/f0)' has a planted zero inside (a, b) has non-monotone nodes, and
    one with a zero anywhere on [a, b] has nodes that are not strictly
    increasing.  The converse fails: a strictly increasing ratio allows
    non-decreasing and non-monotone nodes, as in the corpus case
    `counterexample-w-signs` and in `test_converse_examples`.
    """

    @given(planted_zero_problems())
    @settings(max_examples=200, deadline=None)
    def test_zero_of_the_ratio_derivative_limits_the_nodes(self, case):
        prob, zero = case
        report = existence_report(prob)
        assert report.ratio_certificate == (RATIO_CRITICAL if zero else RATIO_STRICT)
        if report.verdict != VERDICT_EXISTS:
            return
        if zero == "interior":
            assert report.monotonicity == MONO_NONE
        if zero is not None:
            assert report.monotonicity != MONO_STRICT

    @pytest.mark.parametrize("a, b, f1, monotonicity", [
        (-1, 1, X3, MONO_NONE),  # zero of 3x^2 at the interior point 0
        (0, 2, Polynomial.from_sparse("1:1,2:-1,3:1/3"), MONO_NONE),  # (x - 1)^2
        (0, 1, X3, MONO_NON_DECREASING),  # zero at the endpoint a = 0
        (-1, 0, Polynomial.from_sparse("1:1,2:1,3:1/3"), MONO_NON_DECREASING),  # (x + 1)^2
    ])
    def test_planted_zero_examples(self, a, b, f1, monotonicity):
        report = existence_report(OperatorProblem(full_space(3, a, b), ONE, f1))
        assert report.verdict == VERDICT_EXISTS
        assert report.ratio_certificate == RATIO_CRITICAL
        assert report.monotonicity == monotonicity

    @pytest.mark.parametrize("n, a, b, f1, ratios, monotonicity", [
        # f1' = (x + 3/2)^2 + 1/4 > 0 on [-2, -1]
        (3, -2, -1, "1:5/2,2:3/2,3:1/3", ["-5/3", "-3/2", "-3/2", "-4/3"], MONO_NON_DECREASING),
        # f1' = 1/2 + x + x^2 = (x + 1/2)^2 + 1/4 > 0 on [-2, 0]
        (4, -2, 0, "1:1/2,2:1/2,3:1/3", ["-5/3", "-5/12", "-1/6", "-1/4", "0"], MONO_NONE),
    ])
    def test_converse_examples(self, n, a, b, f1, ratios, monotonicity):
        report = existence_report(
            OperatorProblem(full_space(n, a, b), ONE, Polynomial.from_sparse(f1)))
        assert report.verdict == VERDICT_EXISTS
        assert report.ratio_certificate == RATIO_STRICT
        assert report.ratios == tuple(Fraction(r) for r in ratios)
        assert report.monotonicity == monotonicity
        assert report.cross_check is True

    def test_every_node_class_under_a_strictly_increasing_ratio(self):
        # One fixed-seed run of draws with no planted zero.
        seen = set()

        @given(planted_zero_problems(zeros=(None,)))
        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        def draw(case):
            report = existence_report(case[0])
            assert report.ratio_certificate == RATIO_STRICT
            if report.verdict == VERDICT_EXISTS:
                seen.add(report.monotonicity)

        draw()
        assert seen == {MONO_STRICT, MONO_NON_DECREASING, MONO_NONE}

    def test_endpoint_zero_corpus_case_closed_forms(self):
        # On [0, 1], x^m = sum over k of C(k, m) / C(n, m) B_{n,k}: gamma for
        # x^3 in degree 3, and w for (x^3)' = 3 x^2 in degree 2.
        case = next(c for c in CASES if c.name == "endpoint-zero-non-decreasing")
        gamma = [Fraction(comb(k, 3), comb(3, 3)) for k in range(4)]
        w = [3 * Fraction(comb(k, 2), comb(2, 2)) for k in range(3)]
        assert case.expected["gamma"] == [str(g) for g in gamma]
        assert case.expected["w"] == [str(x) for x in w]
        assert case.run() == []
