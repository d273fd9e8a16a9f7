import random
from fractions import Fraction

import pytest

from bernstein_forge import (
    ArityMismatch,
    BadTolerance,
    F0NotPositive,
    OperatorProblem,
    Polynomial,
    RatioNotMonotone,
    ToleranceTooLoose,
    build_operator,
    build_space,
    certify_monotone_ratio,
    certify_problem,
    evaluate_operator,
    existence_report,
    operator_combination,
    structural_diagnostics,
    w_coefficients,
)
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

ONE = Polynomial.one()
X = Polynomial.monomial(1)
X3 = Polynomial.monomial(3)


def full_space(n, a, b):
    return build_space(list(range(n + 1)), a, b)


def problem(exponents, a, b, f0, f1):
    return OperatorProblem(build_space(exponents, a, b), f0, f1)


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


class TestWCoefficients:
    def test_collocation_oracle(self):
        # w expands (f1)' in the derived basis; check the expansion by
        # evaluating both sides at several rational points.
        prob = problem([0, 1, 2, 3], -1, 1, ONE, X3)
        from bernstein_forge import derived_space

        rep = derived_space(prob.space, ONE)
        w, summary = w_coefficients(prob, rep)
        assert w == (3, -3, 3)
        assert summary == W_HAS_NEGATIVE
        deriv = X3.derivative()
        for x in (Fraction(-1), Fraction(-1, 3), 0, Fraction(2, 5), 1):
            lhs = deriv(x)
            rhs = sum(wk * q(x) for wk, q in zip(w, rep.basis.elements))
            assert lhs == rhs

    def test_all_positive_for_strict_classical(self):
        w, summary = w_coefficients(problem([0, 1, 2], 0, 1, ONE, X))
        assert summary == W_ALL_POSITIVE
        assert all(x > 0 for x in w)


class TestBuildOperator:
    def test_classical_equispaced_unit_weights(self):
        report = existence_report(OperatorProblem(full_space(3, 0, 1), ONE, X))
        spec = build_operator(report)
        assert all(e.is_exact for e in spec.nodes)
        assert [e.lo for e in spec.nodes] == [0, Fraction(1, 3), Fraction(2, 3), 1]
        assert spec.weights == (1, 1, 1, 1)
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
        assert spec.weights == (1, 1, 1, 1, 1)

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
        assert spec.weights == (1, 1, 1)

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
            assert evaluate_operator(spec, samples, x) == combo(x)

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
            assert abs(got - X3(x)) <= budget

    def test_arity_mismatch(self):
        spec = build_operator(existence_report(problem([0, 3], -1, 1, ONE, X3)))
        with pytest.raises(ArityMismatch):
            operator_combination(spec, [1])
        with pytest.raises(ArityMismatch):
            evaluate_operator(spec, [1, 2, 3], 0)


class TestStructuralDiagnostics:
    def test_linear_space(self):
        diag = structural_diagnostics(problem([0, 1], 0, 1, ONE, X))
        assert diag.c == (0, 1)
        assert diag.d == (-1, 0)
        assert diag.w == (1,)

    def test_quadratic_space(self):
        diag = structural_diagnostics(problem([0, 1, 2], 0, 1, ONE, X))
        assert diag.c == (0, 2, 2)
        assert diag.d == (-2, -2, 0)
        assert diag.w == (1, 1)
        assert all(r == 0 for r in diag.recurrence_residuals(0))

    def test_interior_sign_laws(self):
        for exps, a, b, f1 in (
            ([0, 1, 2, 3], -1, 1, X3),
            ([0, 1, 2, 3, 6], -1, 1, X3),
            ([0, 1, 2, 3], 0, 1, X),
        ):
            diag = structural_diagnostics(problem(exps, a, b, ONE, f1))
            n = len(diag.c) - 1
            assert diag.c[0] == 0 and diag.d[n] == 0
            assert all(diag.c[k] > 0 for k in range(1, n + 1))
            assert all(diag.d[k] < 0 for k in range(n))
            assert all(diag.eqprec_ok)

    def test_recurrence_all_pivots(self):
        diag = structural_diagnostics(problem([0, 1, 2, 3, 6], -1, 1, ONE, X3))
        for k0 in range(len(diag.beta)):
            assert all(r == 0 for r in diag.recurrence_residuals(k0))
            assert diag.delta(k0)[k0] == 0


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
