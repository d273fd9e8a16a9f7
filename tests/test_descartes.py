"""The Descartes certificate in `classify_on_interval`.

On an interval without 0 inside, Descartes' rule of signs proves a
polynomial root-free once its endpoint root orders use up its sign
variations; an interval with 0 inside is split there; what is left is
decided by the sign variations of the Bernstein form on the interval
alone.  Then one midpoint sample decides the verdict and no Sturm chain
is built.  These tests pin that the certificate never changes a
classification, that the transform agrees with a Fraction expansion and
sympy's root counts, that the traps fall through to Sturm, and how many
chains real problems build.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_forge import (
    OperatorProblem,
    Polynomial,
    bernstein_basis,
    build_space,
    classify_on_interval,
    cli,
    existence_report,
    sturm,
)
from bernstein_forge.sturm import (
    NONNEG_INTERIOR_ZEROS,
    NONPOS_INTERIOR_ZEROS,
    SIGN_CHANGING,
)

X = Polynomial.monomial(1)


def linear(root):
    return X - Polynomial([root])


def power(p, k):
    out = Polynomial.one()
    for _ in range(k):
        out = out * p
    return out


def sturm_only(p, a, b):
    """classify_on_interval with the Descartes certificate switched off."""
    with mock.patch.object(sturm, "descartes_root_free", lambda p, a, b: False):
        return classify_on_interval(p, a, b)


def to_sympy(p):
    x = sympy.symbols("x")
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)


def interior_root_count(p, a, b) -> int:
    """Distinct roots of p in the open (a, b), counted by sympy."""
    at_ends = (p.sign_at(a) == 0) + (p.sign_at(b) == 0)
    a, b = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    return to_sympy(p).count_roots(a, b) - at_ends


def interior_roots_with_multiplicity(p, a, b) -> int:
    """Roots of p in the open (a, b), counted with multiplicity by sympy:
    distinct roots of each square-free factor, times its multiplicity."""
    ra, rb = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    total = 0
    for factor, k in to_sympy(p).sqf_list()[1]:
        at_ends = (factor.eval(ra) == 0) + (factor.eval(rb) == 0)
        total += k * (factor.count_roots(ra, rb) - at_ends)
    return total


def reference_variations(p, a, b) -> int:
    """Sign variations of (1 + t)^d p((a + b t)/(1 + t)), expanded over
    Fractions term by term: sum c_i (a + b t)^i (1 + t)^(d - i)."""
    d = p.degree
    expanded = Polynomial.zero()
    for i, c in enumerate(p.coeffs):
        expanded = expanded + power(Polynomial([a, b]), i) * power(Polynomial([1, 1]), d - i) * c
    signs = [c > 0 for c in expanded.coeffs if c != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


positive_rationals = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)


@st.composite
def intervals(draw):
    """(a, b) positive, mirrored to negative, with a = 0, or with b = 0."""
    kind = draw(st.sampled_from(["positive", "negative", "a-zero", "b-zero"]))
    lo = draw(positive_rationals)
    hi = lo + draw(positive_rationals)
    if kind == "positive":
        return lo, hi
    if kind == "negative":
        return -hi, -lo
    if kind == "a-zero":
        return Fraction(0), hi
    return -hi, Fraction(0)


@st.composite
def outside_roots(draw, a, b):
    """Factors that make the endpoint count fall short on (a, b): real roots
    outside [a, b] on its side of 0, and complex pairs c +- e i near it."""
    out = Polynomial.one()
    side = 1 if a >= 0 else -1
    for _ in range(draw(st.integers(0, 2))):
        beyond = draw(positive_rationals)
        near, far = sorted((abs(a), abs(b)))
        r = far + beyond if near == 0 or draw(st.booleans()) else near * beyond / 4
        out = out * linear(side * r)
    for _ in range(draw(st.integers(0, 2))):
        c = a + (b - a) * draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
        e = draw(st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8))
        out = out * Polynomial([c * c + e * e, -2 * c, 1])
    return out


@st.composite
def planted(draw):
    """A random polynomial times (x - a)^ka (x - b)^kb, with its interval,
    and with real and complex roots planted near the interval."""
    a, b = draw(intervals())
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    core = Polynomial(coeffs)
    if core.is_zero:
        core = Polynomial.one()
    ka, kb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    core = core * draw(outside_roots(a, b))
    return core * power(linear(a), ka) * power(linear(b), kb), a, b


def cheap_rule_falls_short(p, a, b) -> bool:
    """Whether descartes_root_free needs its Bernstein-form stage on (a, b)."""
    with mock.patch.object(sturm, "bernstein_variations", return_value=1):
        return not sturm.descartes_root_free(p, a, b)


class TestAgreesWithSturm:
    @settings(max_examples=300, deadline=None)
    @given(planted())
    def test_byte_identical_classification(self, case):
        p, a, b = case
        fast = json.dumps(classify_on_interval(p, a, b).to_json())
        assert fast == json.dumps(sturm_only(p, a, b).to_json())

    @settings(max_examples=300, deadline=None)
    @given(planted())
    def test_sympy_finds_no_root_where_descartes_decides(self, case):
        p, a, b = case
        if sturm.descartes_root_free(p, a, b):
            assert interior_root_count(p, a, b) == 0

    def test_planted_draws_reach_the_bernstein_stage(self):
        # (x - 3)(x^2 - 2x + 5/4) on (1, 2): three variations, no endpoint
        # root, no root inside; only the Bernstein form decides it.
        p = linear(3) * Polynomial([Fraction(5, 4), -2, 1])
        assert cheap_rule_falls_short(p, Fraction(1), Fraction(2))
        assert sturm.descartes_root_free(p, 1, 2)
        assert json.dumps(classify_on_interval(p, 1, 2).to_json()) == json.dumps(
            sturm_only(p, 1, 2).to_json())

    def test_mirror_decides_alike(self):
        # p(x) on [1, 2] and p(-x) on [-2, -1] are decided by the same rule.
        p = power(linear(1), 2) * linear(2) * Polynomial([3, 1])
        mirrored = Polynomial(c * (-1) ** i for i, c in enumerate(p.coeffs))
        assert sturm.descartes_root_free(p, 1, 2)
        assert sturm.descartes_root_free(mirrored, -2, -1)


polys = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3),
                 min_size=1, max_size=7).map(Polynomial).filter(lambda p: not p.is_zero)


@st.composite
def any_intervals(draw):
    """Any a < b: one-signed, with an endpoint at 0, or with 0 inside."""
    a = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return a, a + draw(positive_rationals)


class TestBernsteinVariations:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(planted(), st.tuples(polys, any_intervals()).map(lambda c: (c[0], *c[1]))))
    def test_matches_the_fraction_expansion(self, case):
        p, a, b = case
        assert sturm.bernstein_variations(p, a, b) == reference_variations(p, a, b)

    @settings(max_examples=300, deadline=None)
    @given(planted())
    def test_bounds_the_roots_with_their_parity(self, case):
        p, a, b = case
        count = sturm.bernstein_variations(p, a, b)
        roots = interior_roots_with_multiplicity(p, a, b)
        assert count >= roots
        if p.sign_at(a) != 0 and p.sign_at(b) != 0:
            assert (count - roots) % 2 == 0

    def test_endpoint_roots_drop_out(self):
        # (x - 1)^2 (x - 2)^3 (x^2 + 1): no root in (1, 2) itself.
        p = power(linear(1), 2) * power(linear(2), 3) * Polynomial([1, 0, 1])
        assert sturm.bernstein_variations(p, 1, 2) == 0
        assert sturm.bernstein_variations(p, Fraction(1, 2), 2) == 2

    def test_order_of_the_endpoints_does_not_matter(self):
        p = linear(Fraction(-1, 3)) * Polynomial([2, -1, 1])
        for a, b in [(-1, 0), (0, 1), (Fraction(-2, 3), Fraction(-1, 4)), (-1, 1)]:
            assert sturm.bernstein_variations(p, a, b) == sturm.bernstein_variations(p, b, a)


class TestDegreeBound:
    @pytest.mark.parametrize("above, calls", [(0, 1), (1, 0)])
    def test_no_transform_above_the_bound(self, above, calls):
        # x^d - 7x + 12 on (1, 2): two variations, no endpoint root, so the
        # endpoint count falls short; the mock stands in for the transform.
        p = Polynomial.from_sparse(f"0:12,1:-7,{sturm.BERNSTEIN_MAX_DEGREE + above}:1")
        with mock.patch.object(sturm, "bernstein_variations", return_value=0) as transform:
            assert sturm.descartes_root_free(p, 1, 2) == bool(calls)
        assert transform.call_count == calls


class TestSignChangeBeforeTheTransform:
    """Opposite signs of p just inside the two ends prove a root, so the
    Bernstein transform is skipped; the signs come from the first non-zero
    Taylor coefficient at each end, or from p(0) at an end 0."""

    @pytest.mark.parametrize("p, a, b, free, transforms", [
        (linear(Fraction(3, 2)) * linear(5), 1, 2, False, 0),
        (linear(Fraction(-3, 2)) * linear(-5), -2, -1, False, 0),
        (linear(Fraction(1, 2)) * linear(3), 0, 1, False, 0),
        (linear(Fraction(-1, 2)) * linear(-3), -1, 0, False, 0),
        (power(linear(1), 2) * linear(Fraction(3, 2)) * linear(5), 1, 2, False, 0),
        (power(linear(2), 2) * linear(Fraction(3, 2)) * linear(5), 1, 2, False, 0),
        (power(linear(2), 3) * linear(Fraction(3, 2)) * linear(5), 1, 2, False, 0),
        # Same signs at both ends: the transform decides, either way.
        (power(linear(2), 3) * linear(5), 1, 2, True, 1),
        (linear(1) * linear(2) * power(Polynomial([-3, 2]), 2), 1, 2, False, 1),
    ], ids=["plain", "mirrored", "end-0-right", "end-0-left", "double-root-at-a",
            "double-root-at-b", "triple-root-at-b", "root-free", "double-root-inside"])
    def test_transforms_run(self, p, a, b, free, transforms):
        with mock.patch.object(sturm, "bernstein_variations",
                               wraps=sturm.bernstein_variations) as transform:
            assert sturm.descartes_root_free(p, a, b) == free
        assert transform.call_count == transforms

    def test_sign_changing_element_of_degree_2000(self):
        # Element 1 of [0, 1, 3, 2000] on [-1, 1]: the endpoint count decides
        # (-1, 0) and falls short on (0, 1), where p(0) < 0 and p is positive
        # just left of its double root at 1.
        p = Polynomial.from_sparse("0:-1,1:1000,3:-1000,2000:1")
        with mock.patch.object(sturm, "bernstein_variations",
                               wraps=sturm.bernstein_variations) as transform:
            assert not sturm.descartes_root_free(p, -1, 1)
        assert transform.call_count == 0


class TestTrapsFallThrough:
    def test_root_at_zero_is_not_counted(self):
        # x (2x - 1): one variation, and the root at 0 is not positive.
        p = X * Polynomial([-1, 2])
        assert not sturm.descartes_root_free(p, 0, 1)
        assert classify_on_interval(p, 0, 1).verdict == SIGN_CHANGING

    @pytest.mark.parametrize("sign, verdict", [
        (1, NONPOS_INTERIOR_ZEROS), (-1, NONNEG_INTERIOR_ZEROS)])
    def test_double_interior_root(self, sign, verdict):
        # (x - 1)(x - 2)(2x - 3)^2: four variations, two endpoint roots.
        p = linear(1) * linear(2) * power(Polynomial([-3, 2]), 2)
        p = p.scale(sign)
        assert not sturm.descartes_root_free(p, 1, 2)
        cls = classify_on_interval(p, 1, 2)
        assert cls.verdict == verdict
        assert cls.to_json() == sturm_only(p, 1, 2).to_json()

    def test_straddling_interval(self):
        # x^2 + 1 is root-free on (-1, 0) and (0, 1) and not 0 at 0: decided.
        assert sturm.descartes_root_free(Polynomial([1, 0, 1]), -1, 1)
        # x (x^2 + 1) vanishes at 0: the split proves nothing.
        assert not sturm.descartes_root_free(X * Polynomial([1, 0, 1]), -1, 1)


@pytest.fixture
def chains(monkeypatch):
    """A list that records every Sturm chain built while the test runs."""
    built = []
    original = sturm.sturm_chain

    def counting(p):
        built.append(p)
        return original(p)

    monkeypatch.setattr(sturm, "sturm_chain", counting)
    return built


GAP = [0, 1, 2, 5, 30]


class TestChainCount:
    """Counts of Sturm chains, which do not depend on the machine."""

    @pytest.mark.parametrize("a, b", [(1, 2), (-2, -1)], ids=["positive", "mirrored"])
    def test_gap_span_builds_no_chain(self, chains, a, b):
        basis = bernstein_basis(build_space(GAP, a, b))
        assert basis.positivity == "positive"
        problem = OperatorProblem.from_json({
            "space": {"exponents": GAP, "a": str(a), "b": str(b)},
            "f0": "0:1", "f1": "1:1"})
        assert existence_report(problem).verdict == "exists"
        assert chains == []

    def test_straddling_interval_builds_chains(self, chains):
        # The middle element x - x^3 of [0, 1, 3] on [-1, 1] vanishes at 0,
        # so the split at 0 cannot decide it and a chain is built.
        basis = bernstein_basis(build_space([0, 1, 3], -1, 1))
        assert basis.classifications[1].verdict == SIGN_CHANGING
        assert basis.elements[1] in chains

    @pytest.mark.parametrize("a, b", [("1", "2"), ("-2", "-1"), ("-1", "2")],
                             ids=["positive", "mirrored", "straddling"])
    def test_high_degree_basis_answers_without_chains(self, a, b):
        stdout, chains = basis_counting_chains([0, 1, 2000], a, b, timeout=300)
        assert "grade     normalized" in stdout
        assert chains == 0

    def test_bernstein_stage_decides_certify_gap_slot_18(self, chains):
        # Seed 1, slot 18: the endpoint count decides none of the 6 derived
        # numerators (7 variations against 5 endpoint roots); their
        # Bernstein forms on (-2, -1/2) have none.
        problem = OperatorProblem.from_json({
            "space": {"exponents": [0, 1, 2, 3, 4, 8, 26], "a": "-2", "b": "-1/2"},
            "f0": "0:1,2:1", "f1": "0:3,2:3,8:-3"})
        assert existence_report(problem).verdict == "exists"
        assert chains == []

    @pytest.mark.parametrize("exponents, a, b, f1, count", [
        ([0, 1, 2, 8, 22], "-1/2", "1", "0:1,1:1", 2),
        ([0, 1, 2, 6, 28], "-2/3", "1", "0:1,1:3/2", 1),
    ])
    def test_chains_left_on_signed_bases(self, chains, exponents, a, b, f1, count):
        # Without the Bernstein stage these build 5 and 4 chains.  Every
        # sign-changing element needs one to isolate its roots.
        problem = OperatorProblem.from_json({
            "space": {"exponents": exponents, "a": a, "b": b}, "f0": "0:1", "f1": f1})
        basis = existence_report(problem).basis
        assert len(chains) == count
        assert all(p in chains for p, c in zip(basis.elements, basis.classifications)
                   if c.verdict == SIGN_CHANGING)

    def test_degree_2000_elements_on_both_halves(self):
        # Each of the 4 elements is non-zero at 0, and on one half the
        # endpoint count falls short; the 3 root-free ones are decided by
        # their Bernstein forms, and only the sign-changing one builds a chain.
        stdout, chains = basis_counting_chains([0, 1, 2, 2000], "-1", "2", timeout=60)
        assert stdout.count("strictly-positive") == 3
        assert stdout.count("sign-changing") == 1
        assert chains == 1


def basis_counting_chains(exponents, a, b, *, timeout):
    """`bernstein-forge basis` in a process of its own, so a regression shows
    as a failed count or a timeout, not as a stalled test session; returns
    its stdout and the number of Sturm chains it built."""
    code = (
        "import sys\n"
        "from bernstein_forge import cli, sturm\n"
        "built = []\n"
        "original = sturm.sturm_chain\n"
        "sturm.sturm_chain = lambda p: built.append(p) or original(p)\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(f'chains {len(built)}', file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, "basis",
         json.dumps({"exponents": exponents, "a": a, "b": b})],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("chains "), done.stderr
    return done.stdout, int(done.stderr.split()[1])
