"""Golden corpus: every worked example, checked bit-exactly.

Each case computes actual values with the library and compares them
field-by-field against frozen exact rationals.  A mismatch names the
failing field; the CLI `corpus` command exits non-zero on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Callable, Optional

from .operator import (
    OperatorProblem,
    build_operator,
    existence_report,
    operator_combination,
)
from .polynomial import Polynomial
from .rational import format_rational
from .spaces import bernstein_basis, build_space

X3 = Polynomial.from_sparse("3:1")
ONE = Polynomial.one()


@dataclass
class CorpusCase:
    name: str
    expected: dict
    compute: Callable[[], dict]

    def run(self) -> list:
        actual = self.compute()
        mismatches = []
        for key, want in self.expected.items():
            got = actual.get(key, "<missing>")
            if got != want:
                mismatches.append(f"{key}: expected {want!r}, got {got!r}")
        return mismatches


def _report(space, f1=X3):
    return existence_report(OperatorProblem(space, ONE, f1))


def _emitted(report, spec=None) -> dict:
    """The report's basis JSON, report JSON and operator JSON, merged."""
    out = {} if report.basis is None else report.basis.to_json()
    out.update(report.to_json())
    if spec is not None:
        out.update(spec.to_json())
    return out


def _case_e1() -> dict:
    report = _report(build_space([0, 3], -1, 1))
    spec = build_operator(report)
    out = _emitted(report, spec)
    # B1 f1 = f1(a) p_{1,0} + f1(b) p_{1,1} must reproduce x^3 exactly.
    samples = [X3(e.lo) for e in spec.nodes]
    out["fixed_f1"] = operator_combination(spec, samples).to_sparse()
    return out


def _case_e2_sym() -> dict:
    basis = bernstein_basis(build_space([0, 1, 3], -1, 1))
    return {**basis.to_json(), "middle_verdict": basis.classifications[1].verdict}


def _case_e2_shifted() -> dict:
    return bernstein_basis(build_space([0, 1, 3], -1, 2)).to_json()


def _case_p3_sym() -> dict:
    report = _report(build_space([0, 1, 2, 3], -1, 1))
    spec = build_operator(report)
    out = _emitted(report, spec)
    # Projection onto span{1, x^3}: even powers map to 1, odd to x^3.
    even = [e.lo ** 2 for e in spec.nodes]
    odd = [e.lo ** 5 for e in spec.nodes]
    out["proj_even"] = operator_combination(spec, even).to_sparse()
    out["proj_odd"] = operator_combination(spec, odd).to_sparse()
    return out


def _case_p3_shifted() -> dict:
    return _emitted(_report(build_space([0, 1, 2, 3], -1, 2)))


def _case_p4_shifted() -> dict:
    return _emitted(_report(build_space([0, 1, 2, 3, 4], -1, 2)))


def _case_ex1() -> dict:
    report = _report(build_space([0, 1, 2, 3, 6], -1, 1))
    return _emitted(report, build_operator(report))


def _case_ex2() -> dict:
    report = _report(build_space([0, 1, 2, 3, 6], -1, 2))
    return {**_emitted(report), "gamma_2": format_rational(report.gamma[2])}


def _case_counterexample_w() -> dict:
    f1 = Polynomial.from_sparse("1:3/8,2:-1/2,3:1/3")
    return _emitted(_report(build_space([0, 1, 2, 3], 0, 1), f1))


def _case_endpoint_zero() -> dict:
    report = _report(build_space([0, 1, 2, 3], 0, 1))
    return _emitted(report, build_operator(report))


def _case_derived_e4() -> dict:
    basis = _report(build_space([0, 1, 2, 3, 6], -1, 1)).derived
    out = {
        **basis.to_json(),
        "support": sorted({e for p in basis.elements for e in p.support()}),
        "verdicts": [c.verdict for c in basis.classifications],
    }
    # The source lists the elements scaled to value 1 at 0; positive-
    # rescale ours to that convention before the exact comparison.
    rescaled = []
    positive_at_zero = True
    for p in basis.elements:
        v = p(0)
        if v <= 0:
            positive_at_zero = False
            break
        rescaled.append(p.scale(1 / v).to_sparse())
    out["positive_at_zero"] = positive_at_zero
    out["elements_value1_at0"] = rescaled
    return out


CASES = [
    CorpusCase(
        "e1-basis",
        {
            "grade": "normalized",
            "positivity": "positive",
            "elements": ["0:1/2,3:-1/2", "0:1/2,3:1/2"],
            "verdict": "exists",
            "gamma": ["-1", "1"],
            "nodes": [{"lo": "-1", "hi": "-1"}, {"lo": "1", "hi": "1"}],
            "weights": ["1", "1"],
            "fixed_f1": "3:1",
        },
        _case_e1,
    ),
    CorpusCase(
        "e2-signed-basis",
        {
            "grade": "signed",
            "elements": ["0:2,1:-3,3:1", "1:1,3:-1", "0:2,1:3,3:-1"],
            "middle_verdict": "sign-changing",
        },
        _case_e2_sym,
    ),
    CorpusCase(
        "e2-no-basis",
        {"kind": "forced-extra-zero", "index": 2, "endpoint": "b"},
        _case_e2_shifted,
    ),
    CorpusCase(
        "p3-oscillating-nodes",
        {
            "verdict": "exists",
            "gamma": ["-1", "1", "-1", "1"],
            "monotonicity": "non-monotone",
            "nodes": [
                {"lo": "-1", "hi": "-1"},
                {"lo": "1", "hi": "1"},
                {"lo": "-1", "hi": "-1"},
                {"lo": "1", "hi": "1"},
            ],
            "weights": ["1", "1", "1", "1"],
            "proj_even": "0:1",
            "proj_odd": "3:1",
        },
        _case_p3_sym,
    ),
    CorpusCase(
        "p3-node-out-of-range",
        {"verdict": "node-out-of-range", "gamma": ["-1", "2", "-4", "8"]},
        _case_p3_shifted,
    ),
    CorpusCase(
        "p4-exists-non-monotone",
        {
            "verdict": "exists",
            "gamma": ["-1", "5/4", "-1", "-1", "8"],
            "monotonicity": "non-monotone",
        },
        _case_p4_shifted,
    ),
    CorpusCase(
        "ex1-e4-basis-and-nodes",
        {
            "grade": "normalized",
            "positivity": "positive",
            "elements": [
                "0:5/56,1:-9/28,2:45/112,3:-5/28,6:1/112",
                "0:2/7,1:-3/7,2:-3/14,3:3/7,6:-1/14",
                "0:1/4,2:-3/8,6:1/8",
                "0:2/7,1:3/7,2:-3/14,3:-3/7,6:-1/14",
                "0:5/56,1:9/28,2:45/112,3:5/28,6:1/112",
            ],
            "verdict": "exists",
            "gamma": ["-1", "3/4", "0", "-3/4", "1"],
            "node_order": "t0 < t3 < t2 < t1 < t4",
        },
        _case_ex1,
    ),
    CorpusCase(
        "ex2-e4-out-of-range",
        {
            "grade": "normalized",
            "positivity": "positive",
            "elements": [
                "0:640/2673,1:-128/297,2:80/297,3:-160/2673,6:1/2673",
                "0:5776/13365,1:-152/1485,2:-532/1485,3:2318/13365,6:-38/13365",
                "0:98/405,1:14/45,2:-7/90,3:-56/405,6:7/810",
                "0:16/243,1:4/27,2:2/27,3:-4/243,6:-2/243",
                "0:5/243,1:2/27,2:5/54,3:10/243,6:1/486",
            ],
            "verdict": "node-out-of-range",
            "gamma_2": "-16/7",
        },
        _case_ex2,
    ),
    CorpusCase(
        "counterexample-w-signs",
        {
            "verdict": "exists",
            "monotonicity": "non-monotone",
            "w": ["3/8", "-1/8", "3/8"],
            "w_summary": "has-negative",
            "cross_check": True,
            "ratio_certificate": "strictly-increasing-ratio",
        },
        _case_counterexample_w,
    ),
    CorpusCase(
        "derived-e4-basis",
        {
            "positivity": "positive",
            "support": [0, 1, 2, 5],
            "verdicts": ["strictly-positive"] * 4,
            "positive_at_zero": True,
            "elements_value1_at0": [
                "0:1,1:-5/2,2:5/3,5:-1/6",
                "0:1,1:-1/2,2:-1,5:1/2",
                "0:1,1:1/2,2:-1,5:-1/2",
                "0:1,1:5/2,2:5/3,5:1/6",
            ],
        },
        _case_derived_e4,
    ),
    CorpusCase(
        # Classical cubic on [0, 1]: x^3 = B_{3,3} and (x^3)' = 3x^2 = 3 B_{2,2},
        # so (f1/f0)' vanishes only at the endpoint a and the nodes
        # 0, 0, 0, 1 are non-decreasing but not strictly increasing.
        "endpoint-zero-non-decreasing",
        {
            "verdict": "exists",
            "gamma": ["0", "0", "0", "1"],
            "monotonicity": "non-decreasing",
            "ratio_certificate": "increasing-with-critical-points",
            "w": ["0", "0", "3"],
            "w_summary": "all-nonneg-some-zero",
            "cross_check": True,
            "node_order": "t0 = t1 = t2 < t3",
            "weights": ["1", "1", "1", "1"],
        },
        _case_endpoint_zero,
    ),
]


@dataclass(frozen=True)
class CaseResult:
    name: str
    ok: bool
    mismatches: tuple


def run_corpus(filter_glob: Optional[str] = None, cases=None) -> list:
    """Run (a filtered subset of) the corpus; returns one result per case."""
    if cases is None:
        cases = CASES
    if filter_glob is not None:
        cases = [c for c in cases if fnmatch(c.name, filter_glob)]
    results = []
    for case in cases:
        mismatches = case.run()
        results.append(CaseResult(case.name, not mismatches, tuple(mismatches)))
    return results
