"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines; plain `pytest -v` shows the same pass/fail status per test name.
"""

import random
from fractions import Fraction
from math import comb

from bernstein_forge import (
    DerivedBasisUnavailable,
    Enclosure,
    NoBasisReport,
    OperatorProblem,
    Polynomial,
    bernstein_basis,
    build_operator,
    build_space,
    classify_on_interval,
    coordinates,
    derived_space,
    existence_report,
    normalize_partition_of_unity,
    operator_combination,
    structural_diagnostics,
)
from bernstein_forge.operator import (
    MONO_NON_DECREASING,
    MONO_STRICT,
    RATIO_STRICT,
    VERDICT_EXISTS,
    VERDICT_RANGE,
    W_ALL_POSITIVE,
    W_HAS_NEGATIVE,
    W_NONNEG_SOME_ZERO,
)

ONE = Polynomial.one()
X = Polynomial.monomial(1)
X3 = Polynomial.monomial(3)


def ok(num, text):
    print(f"PASS criterion {num}: {text}")


def normalized_basis(exponents, a, b):
    return normalize_partition_of_unity(bernstein_basis(build_space(exponents, a, b)))


def classical_element(n, k, a, b):
    left = X - Polynomial([a])
    right = Polynomial([b]) - X
    p = Polynomial([Fraction(comb(n, k), (Fraction(b) - Fraction(a)) ** n)])
    for _ in range(k):
        p = p * left
    for _ in range(n - k):
        p = p * right
    return p


def random_interval(rng):
    a = Fraction(rng.randint(-6, 5), rng.randint(1, 4))
    b = a + Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return a, b


def increasing_f1(rng, n):
    """Antiderivative of h^2 + c with c > 0: strictly increasing, degree <= n."""
    hdeg = (n - 1) // 2
    h = Polynomial([Fraction(rng.randint(-3, 3)) for _ in range(hdeg + 1)])
    g = h * h + Polynomial([Fraction(rng.randint(1, 3))])
    return Polynomial([0] + [c / (i + 1) for i, c in enumerate(g.coeffs)])


def test_criterion_01_two_dim_cubic_span():
    basis = normalized_basis([0, 3], -1, 1)
    assert [p.to_sparse() for p in basis.elements] == ["0:1/2,3:-1/2", "0:1/2,3:1/2"]
    assert coordinates(X3, basis) == (-1, 1)
    spec = build_operator(
        existence_report(OperatorProblem(build_space([0, 3], -1, 1), ONE, X3))
    )
    assert [(e.lo, e.hi) for e in spec.nodes] == [(-1, -1), (1, 1)]
    assert spec.weights == (Enclosure(1, 1),) * 2
    ok(1, "2-dim cubic span: basis, coordinates (-1, 1), endpoint nodes, unit weights")


def test_criterion_02_three_dim_span_with_gap():
    basis = bernstein_basis(build_space([0, 1, 3], -1, 1))
    assert basis.grade == "signed"
    middle = basis.elements[1]
    target = Polynomial.from_sparse("1:1,3:-1")  # x - x^3
    scalar = middle.coeff(1) / target.coeff(1)
    assert scalar > 0 and middle == target.scale(scalar)
    report = bernstein_basis(build_space([0, 1, 3], -1, 2))
    assert isinstance(report, NoBasisReport)
    assert report.kind == "forced-extra-zero" and report.index == 2
    ok(2, "gap span: signed basis on [-1,1], forced extra zero at k=2 on [-1,2]")


def test_criterion_03_full_cubic_and_quartic_spaces():
    report = existence_report(OperatorProblem(build_space([0, 1, 2, 3], -1, 1), ONE, X3))
    assert report.gamma == (-1, 1, -1, 1)
    assert report.verdict == VERDICT_EXISTS
    assert report.monotonicity == "non-monotone"
    spec = build_operator(report)
    nodes = [e.lo for e in spec.nodes]
    assert nodes == [-1, 1, -1, 1] and all(e.is_exact for e in spec.nodes)
    assert operator_combination(spec, [t**2 for t in nodes]) == ONE
    assert operator_combination(spec, [t**5 for t in nodes]) == X3

    shifted = existence_report(OperatorProblem(build_space([0, 1, 2, 3], -1, 2), ONE, X3))
    assert shifted.gamma == (-1, 2, -4, 8)
    assert shifted.verdict == VERDICT_RANGE

    quartic = existence_report(
        OperatorProblem(build_space([0, 1, 2, 3, 4], -1, 2), ONE, X3)
    )
    assert quartic.gamma == (-1, Fraction(5, 4), -1, -1, 8)
    assert quartic.verdict == VERDICT_EXISTS
    assert quartic.monotonicity == "non-monotone"
    ok(3, "cubic coordinates/projections on [-1,1], range failure on [-1,2], quartic exists")


def test_criterion_04_degree_six_gap_space_symmetric():
    basis = normalized_basis([0, 1, 2, 3, 6], -1, 1)
    assert [p.to_sparse() for p in basis.elements] == [
        "0:5/56,1:-9/28,2:45/112,3:-5/28,6:1/112",
        "0:2/7,1:-3/7,2:-3/14,3:3/7,6:-1/14",
        "0:1/4,2:-3/8,6:1/8",
        "0:2/7,1:3/7,2:-3/14,3:-3/7,6:-1/14",
        "0:5/56,1:9/28,2:45/112,3:5/28,6:1/112",
    ]
    assert basis.elements[0].coeff(0) == Fraction(5, 56)
    assert basis.elements[0].coeff(6) == Fraction(1, 112)
    report = existence_report(
        OperatorProblem(build_space([0, 1, 2, 3, 6], -1, 1), ONE, X3)
    )
    assert report.gamma == (-1, Fraction(3, 4), 0, Fraction(-3, 4), 1)
    spec = build_operator(report)
    assert spec.node_order() == "t0 < t3 < t2 < t1 < t4"
    ok(4, "degree-6 gap space on [-1,1]: all five elements, gamma, node order")


def test_criterion_05_degree_six_gap_space_shifted():
    basis = normalized_basis([0, 1, 2, 3, 6], -1, 2)
    assert [p.to_sparse() for p in basis.elements] == [
        "0:640/2673,1:-128/297,2:80/297,3:-160/2673,6:1/2673",
        "0:5776/13365,1:-152/1485,2:-532/1485,3:2318/13365,6:-38/13365",
        "0:98/405,1:14/45,2:-7/90,3:-56/405,6:7/810",
        "0:16/243,1:4/27,2:2/27,3:-4/243,6:-2/243",
        "0:5/243,1:2/27,2:5/54,3:10/243,6:1/486",
    ]
    assert basis.elements[0].coeff(6) == Fraction(1, 2673)
    report = existence_report(
        OperatorProblem(build_space([0, 1, 2, 3, 6], -1, 2), ONE, X3)
    )
    assert report.gamma[2] == Fraction(-16, 7)
    assert report.verdict == VERDICT_RANGE
    ok(5, "degree-6 gap space on [-1,2]: all five elements, gamma_2 = -16/7, out of range")


def test_criterion_06_negative_w_despite_increasing_ratio():
    f1 = Polynomial.from_sparse("1:3/8,2:-1/2,3:1/3")
    report = existence_report(OperatorProblem(build_space([0, 1, 2, 3], 0, 1), ONE, f1))
    assert report.w == (Fraction(3, 8), Fraction(-1, 8), Fraction(3, 8))
    assert report.w_summary == W_HAS_NEGATIVE
    # The ratio derivative numerator is strictly positive on [0,1], yet the
    # sign test on w refuses non-decreasing nodes.
    assert report.ratio_certificate == RATIO_STRICT
    assert report.monotonicity == "non-monotone"
    ok(6, "w = (3/8, -1/8, 3/8), has-negative despite strictly increasing ratio")


def test_criterion_07_derived_space_of_degree_six_gap_space():
    basis = normalized_basis([0, 1, 2, 3, 6], -1, 1)
    derived = derived_space(basis, coordinates(ONE, basis), ONE)
    assert sorted({e for p in derived.elements for e in p.support()}) == [0, 1, 2, 5]
    assert derived.positivity == "positive"
    # Compare against the value-1-at-0 scaling convention of the source data.
    rescaled = [p.scale(1 / p(0)).to_sparse() for p in derived.elements]
    assert rescaled == [
        "0:1,1:-5/2,2:5/3,5:-1/6",
        "0:1,1:-1/2,2:-1,5:1/2",
        "0:1,1:1/2,2:-1,5:-1/2",
        "0:1,1:5/2,2:5/3,5:1/6",
    ]
    assert derived.elements[0].scale(1 / derived.elements[0](0)).coeff(5) == Fraction(-1, 6)
    ok(7, "derived space span{1, x, x^2, x^5}: all four elements, grade positive")


def test_criterion_08_classical_recovery():
    rng = random.Random(2026)
    for _ in range(20):
        a, b = random_interval(rng)
        for n in range(1, 6):
            basis = normalized_basis(list(range(n + 1)), a, b)
            for k, p in enumerate(basis.elements):
                assert p == classical_element(n, k, a, b)
            spec = build_operator(
                existence_report(OperatorProblem(build_space(list(range(n + 1)), a, b), ONE, X))
            )
            assert all(e.is_exact for e in spec.nodes)
            assert [e.lo for e in spec.nodes] == [a + (b - a) * Fraction(k, n) for k in range(n + 1)]
            assert spec.weights == (Enclosure(1, 1),) * (n + 1)
    ok(8, "classical binomial bases and equispaced unit-weight operators, 20 intervals x n<=5")


def test_criterion_09_equivalence_of_ratio_and_w_classes():
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 5)
        a, b = random_interval(rng)
        f1 = increasing_f1(rng, n)
        report = existence_report(
            OperatorProblem(build_space(list(range(n + 1)), a, b), ONE, f1)
        )
        if report.w_summary == W_ALL_POSITIVE:
            assert report.monotonicity == MONO_STRICT
        elif report.w_summary == W_NONNEG_SOME_ZERO:
            assert report.monotonicity == MONO_NON_DECREASING
        else:
            assert report.monotonicity == "non-monotone"
        assert report.cross_check is True
        checked += 1
    ok(9, "ratio-ordering class equals w-sign class on 200 randomized instances")


def _structural_problems():
    yield OperatorProblem(build_space([0, 3], -1, 1), ONE, X3)
    yield OperatorProblem(build_space([0, 1, 2, 3], -1, 1), ONE, X3)
    yield OperatorProblem(build_space([0, 1, 2, 3], -1, 2), ONE, X3)
    yield OperatorProblem(
        build_space([0, 1, 2, 3], 0, 1), ONE, Polynomial.from_sparse("1:3/8,2:-1/2,3:1/3")
    )
    yield OperatorProblem(build_space([0, 1, 2, 3, 6], -1, 1), ONE, X3)
    yield OperatorProblem(build_space([0, 1, 2, 3, 6], -1, 2), ONE, X3)
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(1, 5)
        a, b = random_interval(rng)
        yield OperatorProblem(build_space(list(range(n + 1)), a, b), ONE, increasing_f1(rng, n))


def test_criterion_10_structural_identities():
    count = 0
    for prob in _structural_problems():
        try:  # IdentityViolation unless the expansion is exact for every k
            diag = structural_diagnostics(existence_report(prob))
        except DerivedBasisUnavailable:
            continue  # criterion applies only when non-negative bases exist
        n = len(diag.c) - 1
        assert diag.c[0] == 0 and diag.d[n] == 0
        assert all(diag.c[k] > 0 for k in range(1, n + 1))
        assert all(diag.d[k] < 0 for k in range(n))
        for k0 in range(n + 1):
            assert all(r == 0 for r in diag.recurrence_residuals(k0))
        count += 1
    assert count >= 15
    ok(10, f"derivative-expansion identity, c/d signs, zero recurrence residuals ({count} instances)")


def test_criterion_11_positivity_oracle():
    rng = random.Random(11)
    strictly_positive = []
    for exps, a, b in (
        ([0, 3], -1, 1),
        ([0, 1, 2, 3, 6], -1, 1),
        ([0, 1, 2, 3, 6], -1, 2),
        ([0, 1, 2, 3, 4], 0, 1),
    ):
        basis = bernstein_basis(build_space(exps, a, b))
        for p, cls in zip(basis.elements, basis.classifications):
            if cls.verdict == "strictly-positive":
                strictly_positive.append((p, Fraction(a), Fraction(b)))
    assert strictly_positive
    for p, a, b in strictly_positive:
        for _ in range(1000):
            x = a + (b - a) * Fraction(rng.randint(1, 9999), 10000)
            assert p(x) > 0

    sign_changing = [
        (Polynomial.from_sparse("1:1,3:-1"), -1, 1),
        (Polynomial.from_sparse("0:-1/4,2:1"), -1, 1),  # (x-1/2)(x+1/2)
        (Polynomial.from_sparse("0:1/8,1:-3/4,2:1"), 0, 1),
    ]
    for p, a, b in sign_changing:
        cls = classify_on_interval(p, a, b)
        assert cls.verdict == "sign-changing"
        negatives = [w for w in cls.samples if w.sign < 0]
        assert negatives and all(p(w.x) < 0 for w in negatives)
    ok(11, "1000-point sampling agrees with certificates; negative witnesses verified")
