"""Self-tests of the benchmark's oracles.

Run from the repository root:  python3 -m pytest perfbench/test_oracles.py -q

The oracles themselves import nothing from bernstein_forge.  These tests do,
only to show that a real output passes and that a perturbed one is caught
by the name of the field that was changed.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_paper_hand_values():
    x3 = oracles.parse_sparse("3:1")
    assert oracles.blossom_coordinates(x3, 3, -1, 2) == [-1, 2, -4, 8]
    kind, elements = oracles.span_basis([0, 3], -1, 1)
    unit = oracles.normalized(elements)
    assert unit == [[F(1, 2), 0, 0, F(-1, 2)], [F(1, 2), 0, 0, F(1, 2)]]
    assert oracles.solve(unit, x3) == [-1, 1]


def test_two_constructions_of_the_full_basis_agree():
    kind, elements = oracles.span_basis(range(6), F(-2, 3), F(5, 7))
    assert oracles.normalized(elements) == oracles.classical_basis(5, F(-2, 3), F(5, 7))
    f = oracles.parse_sparse("0:1/3,2:-2,5:7")
    coords = oracles.blossom_coordinates(f, 5, F(-2, 3), F(5, 7))
    assert oracles.combination(coords, oracles.classical_basis(5, F(-2, 3), F(5, 7))) == f


def test_refusal_names_index_kind_and_endpoint():
    assert oracles.span_basis([0, 1, 3], -1, 2)[:3] == ("refusal", 2, "forced-extra-zero")


@pytest.mark.parametrize("text,a,b,verdict", [
    ("0:1,2:1", -1, 1, oracles.STRICTLY_POSITIVE),
    ("0:1/4,1:-1,2:1", 0, 1, oracles.NONNEG_INTERIOR_ZEROS),
    ("0:-1/4,1:1,2:-1", 0, 1, oracles.NONPOS_INTERIOR_ZEROS),
    ("1:1", -1, 1, oracles.SIGN_CHANGING),
    ("1:1", 0, 1, oracles.STRICTLY_POSITIVE),  # root at the endpoint is not interior
    ("0:-2,1:-1", 0, 1, oracles.STRICTLY_NEGATIVE),
])
def test_sign_verdicts(text, a, b, verdict):
    assert oracles.sign_verdict(oracles.parse_sparse(text), F(a), F(b)) == verdict


def test_decimal_rounding():
    assert oracles.round_half_away(F(1, 2), 0) == "1"
    assert oracles.round_half_away(F(-2, 3), 3) == "-0.667"
    assert oracles.round_half_away(F(5, 1000), 2) == "0.01"
    assert oracles.round_half_away(F(-1, 10 ** 9), 3) == "0.000"


def _existence(desc):
    from bernstein_forge import OperatorProblem, existence_report

    report = existence_report(OperatorProblem.from_json(desc))
    return {"report": report.to_json(),
            "basis": None if report.basis is None else report.basis.to_json()}


FULL = {"space": {"exponents": list(range(7)), "a": "-1/3", "b": "5/4"},
        "f0": "0:1", "f1": "1:1,3:1"}
GAP = {"space": {"exponents": [0, 1, 2, 7, 21], "a": "1/2", "b": "3/2"},
       "f0": "0:2,2:1", "f1": "7:1"}
REFUSAL = {"space": {"exponents": [0, 1, 2, 8, 24], "a": "-1", "b": "1"},
           "f0": "0:1", "f1": "1:1"}


@pytest.mark.parametrize("desc", [FULL, GAP, REFUSAL])
def test_real_outputs_pass(desc):
    assert oracles.check_existence(desc, _existence(desc)) == []


@pytest.mark.parametrize("desc,path,value,field", [
    (FULL, ("report", "gamma", 2), "7", "gamma"),
    (FULL, ("report", "verdict"), "node-out-of-range", "verdict"),
    (FULL, ("report", "w", 0), "1", "w"),
    (FULL, ("report", "cross_check"), False, "cross_check"),
    (FULL, ("basis", "classifications", 3, "verdict"), "sign-changing", "basis.classifications[3]"),
    (GAP, ("basis", "zero_orders", 1), [2, 3], "basis.zero_orders[1]"),
    (GAP, ("report", "beta", 0), "3", "beta"),
    (REFUSAL, ("report", "no_basis", "endpoint"), "a", "no_basis.endpoint"),
    (REFUSAL, ("report", "no_basis", "witness"), "0:1,1:1", "no_basis.witness"),
])
def test_perturbed_field_is_caught_by_name(desc, path, value, field):
    out = copy.deepcopy(_existence(desc))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    errors = oracles.check_existence(desc, out)
    assert any(e.startswith(field) for e in errors), errors


def test_operator_cli_run_passes_and_a_perturbed_node_is_caught(tmp_path):
    from bernstein_forge import cli

    problem, report = tmp_path / "problem.json", tmp_path / "operator.json"
    problem.write_text(json.dumps(FULL))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["operator", str(problem), "--tol", "1/" + "1" + "0" * 40,
                       "--samples", "21", "--json", str(report)])
    run = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
           "json": json.loads(report.read_text())}
    tol = F(1, 10 ** 40)
    assert oracles.check_operator(FULL, tol, 21, 12, run) == []
    bad = copy.deepcopy(run)
    bad["json"]["nodes"][2]["hi"] = bad["json"]["nodes"][3]["hi"]
    assert any(e.startswith("nodes[2]") for e in oracles.check_operator(FULL, tol, 21, 12, bad))
    bad = copy.deepcopy(run)
    bad["stdout"] = bad["stdout"].replace("\n0.", "\n1.", 1)
    assert any(e.startswith("csv") for e in oracles.check_operator(FULL, tol, 21, 12, bad))
