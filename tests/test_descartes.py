"""The Descartes certificate in `classify_on_interval`.

On an interval without 0 inside, Descartes' rule of signs proves a
polynomial root-free once its endpoint root orders use up its sign
variations; an interval with 0 inside is split there.  Then one midpoint
sample decides the verdict and no Sturm chain is built.  These tests pin
that the certificate never changes a classification, that sympy's root
count agrees wherever it decides, that the traps fall through to Sturm,
and how many chains real problems build.
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


def interior_root_count(p, a, b) -> int:
    """Distinct roots of p in the open (a, b), counted by sympy."""
    x = sympy.symbols("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    at_ends = (p.sign_at(a) == 0) + (p.sign_at(b) == 0)
    return poly.count_roots(sympy.Rational(a.numerator, a.denominator),
                            sympy.Rational(b.numerator, b.denominator)) - at_ends


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
def planted(draw):
    """A random polynomial times (x - a)^ka (x - b)^kb, with its interval."""
    a, b = draw(intervals())
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
    core = Polynomial(coeffs)
    if core.is_zero:
        core = Polynomial.one()
    ka, kb = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return core * power(linear(a), ka) * power(linear(b), kb), a, b


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

    def test_mirror_decides_alike(self):
        # p(x) on [1, 2] and p(-x) on [-2, -1] are decided by the same rule.
        p = power(linear(1), 2) * linear(2) * Polynomial([3, 1])
        mirrored = Polynomial(c * (-1) ** i for i, c in enumerate(p.coeffs))
        assert sturm.descartes_root_free(p, 1, 2)
        assert sturm.descartes_root_free(mirrored, -2, -1)


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
        # A process of its own, so a regression shows as a failed count (or
        # a timeout), not as a stalled test session.
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
             json.dumps({"exponents": [0, 1, 2000], "a": a, "b": b})],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "grade     normalized" in done.stdout
        assert done.stderr == "chains 0\n"
