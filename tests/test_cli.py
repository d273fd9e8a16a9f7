import copy
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bernstein_forge import (
    MAX_DEGREE,
    MAX_DIMENSION,
    MAX_SIZE,
    IdentityViolation,
    OperatorProblem,
    cli,
    corpus,
    existence_report,
    spaces,
)
from bernstein_forge.corpus import CASES
from bernstein_forge.rational import format_decimal

SPACE_E1 = json.dumps({"exponents": [0, 3], "a": "-1", "b": "1"})
SPACE_BAD = json.dumps({"exponents": [0, 1, 3], "a": "-1", "b": "2"})

PROBLEM_E1 = json.dumps({
    "space": {"exponents": [0, 3], "a": "-1", "b": "1"},
    "f0": "0:1",
    "f1": "3:1",
})
PROBLEM_RANGE = json.dumps({
    "space": {"exponents": [0, 1, 2, 3], "a": "-1", "b": "2"},
    "f0": "0:1",
    "f1": "3:1",
})
PROBLEM_NOT_MONOTONE = json.dumps({
    "space": {"exponents": [0, 1, 2], "a": "-1", "b": "1"},
    "f0": "0:1",
    "f1": "2:1",
})
PROBLEM_CLASSICAL = json.dumps({
    "space": {"exponents": [0, 1, 2, 3], "a": "0", "b": "1"},
    "f0": "0:1",
    "f1": "1:1",
})
PROBLEM_GAP = json.dumps({
    "space": {"exponents": [0, 1, 2, 3, 6], "a": "-1", "b": "1"},
    "f0": "0:1",
    "f1": "3:1",
})


class TestExitCodes:
    def test_basis_success(self, capsys):
        assert cli.main(["basis", SPACE_E1]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out and "0:1/2,3:1/2" in out

    def test_basis_malformed(self, capsys):
        assert cli.main(["basis", '{"exponents": [3, 0], "a": "0", "b": "1"}']) == 1
        assert "error:" in capsys.readouterr().err

    def test_basis_bad_json(self):
        assert cli.main(["basis", "{not json"]) == 1

    def test_basis_missing_file(self):
        assert cli.main(["basis", "/nonexistent/space.json"]) == 1

    def test_basis_none_exists(self, capsys):
        assert cli.main(["basis", SPACE_BAD]) == 2
        assert "forced-extra-zero" in capsys.readouterr().out

    def test_basis_constant_not_in_span(self, capsys):
        # span{x, x^2} on [1, 2]: a positive basis that cannot be normalized.
        assert cli.main(["basis", '{"exponents":[1,2],"a":"1","b":"2"}']) == 0
        out = capsys.readouterr().out
        assert "grade     positive" in out and "normalized" not in out

    def test_exists_yes(self, capsys):
        assert cli.main(["exists", PROBLEM_E1]) == 0
        assert "verdict        exists" in capsys.readouterr().out

    def test_exists_no(self, capsys):
        assert cli.main(["exists", PROBLEM_RANGE]) == 3
        assert "node-out-of-range" in capsys.readouterr().out

    def test_exists_certification_failure(self, capsys):
        assert cli.main(["exists", PROBLEM_NOT_MONOTONE]) == 4
        assert "certification failed" in capsys.readouterr().err

    def test_exists_constant_ratio(self, capsys):
        problem = {"space": {"exponents": [0, 1], "a": "0", "b": "1"},
                   "f0": "0:1,1:1", "f1": "0:2,1:2"}
        assert cli.main(["exists", json.dumps(problem)]) == 4
        assert capsys.readouterr().err == (
            "certification failed: (f1/f0)' is identically-zero on the interval\n")

    def test_operator_success(self, capsys):
        assert cli.main(["operator", PROBLEM_CLASSICAL]) == 0
        out = capsys.readouterr().out
        assert "t1 = 1/3" in out
        assert "node order: t0 < t1 < t2 < t3" in out

    def test_operator_nonexistent(self, capsys):
        assert cli.main(["operator", PROBLEM_RANGE]) == 3
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tol, message",
        [("0", "tolerance must be positive"), ("-1", "tolerance must be positive"),
         ("1", "overlap at tol 1")],
    )
    def test_operator_bad_tolerance(self, tol, message):
        # A subprocess with a timeout, so that a hang fails instead of stalling.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "bernstein_forge.cli", "operator", PROBLEM_GAP, "--tol", tol],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("digits", [cli.TOL_FLOOR_DIGITS + 1, 4000])
    def test_operator_tolerance_below_floor_refused(self, digits):
        # The full order-10 span over [-1, 2] with (1, x + x^3) ran 41 s at
        # 1/10^4000 before the floor: a subprocess with a timeout.
        problem = json.dumps({"space": {"exponents": list(range(11)), "a": "-1", "b": "2"},
                              "f0": "0:1", "f1": "1:1,3:1"})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "bernstein_forge.cli", "operator", problem,
             "--tol", f"1/{10 ** digits}"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"error: tolerance must be at least 1/10^{cli.TOL_FLOOR_DIGITS}\n"

    def test_operator_tolerance_floor_accepted(self, capsys):
        tol = f"1/{10 ** cli.TOL_FLOOR_DIGITS}"
        assert cli.main(["operator", PROBLEM_GAP, "--tol", tol]) == 0
        assert f"nodes (tol {tol}):" in capsys.readouterr().out

    @pytest.mark.parametrize("problem", [PROBLEM_CLASSICAL, PROBLEM_RANGE],
                             ids=["exists", "node-out-of-range"])
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_operator_non_positive_tolerance_whatever_the_verdict(self, capsys, problem, tol):
        assert cli.main(["operator", problem, "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err == f"error: tolerance must be positive, got {tol}\n"

    @pytest.mark.parametrize("tol", ["1/0", "0", f"1/{10 ** (cli.TOL_FLOOR_DIGITS + 1)}"])
    def test_operator_tolerance_refused_before_the_report(self, capsys, monkeypatch, tol):
        def unreached(problem):
            raise AssertionError("existence_report built for a refused --tol")
        monkeypatch.setattr(cli, "existence_report", unreached)
        assert cli.main(["operator", PROBLEM_CLASSICAL, "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, kind", [("basis", "space"), ("exists", "problem")])
    def test_inline_json_array_refused_as_descriptor(self, capsys, command, kind):
        assert cli.main([command, "[1,2]"]) == 1
        assert capsys.readouterr().err == (
            f"error: {kind} descriptor must be a JSON object, got [1, 2]\n")

    def test_corpus_clean(self, capsys):
        assert cli.main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(CASES)
        assert f"{len(CASES)} cases passed" in out

    def test_corpus_mismatch_detected(self, capsys, monkeypatch):
        broken = copy.deepcopy(CASES[0])
        broken.expected["gamma"] = ["-1", "2"]
        monkeypatch.setattr(corpus, "CASES", [broken])
        assert cli.main(["corpus"]) == 5
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "gamma" in captured.err


class TestWrongTypes:
    """Fields of the wrong type are refused with exit 1, never a traceback."""

    SPACES = [
        {"exponents": 3, "a": "0", "b": "1"},
        {"exponents": [0, 1.5], "a": "0", "b": "1"},
        {"exponents": [0, 1], "a": 0.5, "b": "1"},
        {"exponents": [0, 1], "a": True, "b": "1"},
    ]

    @staticmethod
    def refused(capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("space", SPACES)
    def test_space_fields_basis(self, capsys, space):
        self.refused(capsys, ["basis", json.dumps(space)])

    @pytest.mark.parametrize("space", SPACES)
    def test_space_fields_exists(self, capsys, space):
        problem = {"space": space, "f0": "0:1", "f1": "1:1"}
        self.refused(capsys, ["exists", json.dumps(problem)])

    def test_f1_not_a_string(self, capsys):
        problem = {**json.loads(PROBLEM_E1), "f1": 3}
        self.refused(capsys, ["exists", json.dumps(problem)])

    def test_space_not_an_object(self, capsys):
        problem = {**json.loads(PROBLEM_E1), "space": 3}
        self.refused(capsys, ["exists", json.dumps(problem)])

    @pytest.mark.parametrize("command", ["basis", "exists"])
    def test_descriptor_not_an_object(self, tmp_path, capsys, command):
        path = tmp_path / "descriptor.json"
        path.write_text("[1,2]")
        self.refused(capsys, [command, str(path)])

    def test_unknown_keys_accepted(self, capsys):
        problem = {**json.loads(PROBLEM_E1), "slot": 7}
        assert cli.main(["exists", json.dumps(problem)]) == 0


class TestRationalText:
    """Rational text other than "p" or "p/q" with q > 0 is refused with exit 1."""

    TEXTS = ["1/0", "1e5000", "1.5"]

    @staticmethod
    def problem(a="-1", b="1", f1="3:1"):
        return json.dumps({"space": {"exponents": [0, 1, 2, 3], "a": a, "b": b},
                           "f0": "0:1", "f1": f1})

    @pytest.mark.parametrize("text", TEXTS)
    @pytest.mark.parametrize("argv", [
        lambda t: ["exists", TestRationalText.problem(a=t)],
        lambda t: ["exists", TestRationalText.problem(b=t)],
        lambda t: ["exists", TestRationalText.problem(f1=f"1:1,3:{t}")],
        lambda t: ["operator", TestRationalText.problem(), "--tol", t],
    ], ids=["a", "b", "coefficient", "tol"])
    def test_refused(self, capsys, argv, text):
        assert cli.main(argv(text)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(text) in err

    def test_empty_tol_refused(self, capsys):
        assert cli.main(["operator", self.problem(), "--tol", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "''" in err

    def test_integer_beyond_the_digit_limit_refused(self, capsys):
        space = json.dumps({"exponents": [0, 1], "a": "0", "b": "1" + "0" * 4400})
        assert cli.main(["basis", space]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4401 digits" in err
        assert "set_int_max_str_digits" not in err

    def test_result_beyond_4300_digits(self, tmp_path, capsys):
        a = "1/1" + "0" * 2200
        out = tmp_path / "basis.json"
        space = json.dumps({"exponents": [0, 1, 2], "a": a, "b": "1"})
        assert cli.main(["basis", space, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["space"]["a"] == a
        assert capsys.readouterr().out.startswith(f"interval  [{a}, 1]")


class TestSparseText:
    """Sparse polynomial text is "degree:coefficient" terms; other text, and
    integers past the interpreter's digit limit, exit 1 named."""

    BIG = "1" + "0" * 4400

    @pytest.mark.parametrize("argv, named", [
        (["exists", TestRationalText.problem(f1=BIG + ":1")], "4401 digits"),
        (["exists", TestRationalText.problem(f1="x:1")], "'x:1'"),
        (["exists", TestRationalText.problem(f1="1")], "'1'"),
        (["exists", TestRationalText.problem(f1="1:1, -1:1")], "'-1:1'"),
        (["basis", '{"exponents": [0, %s], "a": "0", "b": "1"}' % BIG], "4401 digits"),
    ], ids=["degree-digits", "degree-not-integer", "no-colon", "negative-degree", "json-integer"])
    def test_refused_and_named(self, capsys, argv, named):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "set_int_max_str_digits" not in err

    def test_json_integer_in_a_file(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text('{"exponents": [0, %s], "a": "0", "b": "1"}' % self.BIG)
        assert cli.main(["basis", str(path)]) == 1
        assert "4401 digits" in capsys.readouterr().err


class TestMissingKeys:
    """A descriptor without a required key is refused by the key's name."""

    @pytest.mark.parametrize("command, descriptor, key", [
        ("exists", {"space": {"exponents": [0, 1], "a": "0", "b": "1"}, "f0": "0:1"}, "f1"),
        ("exists", {"f0": "0:1", "f1": "1:1"}, "space"),
        ("operator", {"space": {"exponents": [0, 1], "a": "0", "b": "1"}, "f1": "1:1"}, "f0"),
        ("basis", {"exponents": [0, 1], "a": "0"}, "b"),
    ])
    def test_missing_key_named(self, capsys, command, descriptor, key):
        assert cli.main([command, json.dumps(descriptor)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"missing key '{key}'" in err


class TestRefusals:
    def test_negative_samples(self, capsys):
        assert cli.main(["operator", PROBLEM_CLASSICAL, "--samples", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_zero_samples_means_no_csv(self, capsys):
        assert cli.main(["operator", PROBLEM_CLASSICAL, "--samples", "0"]) == 0
        captured = capsys.readouterr()
        assert "node order" in captured.out and "x," not in captured.out

    def test_basis_internal_error_not_swallowed(self, capsys, monkeypatch):
        def broken(basis):
            raise IdentityViolation("partition of unity does not sum to 1")

        monkeypatch.setattr(spaces, "normalize_partition_of_unity", broken)
        assert cli.main(["basis", SPACE_E1]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSizeContract:
    """A degree above MAX_DEGREE is refused before any dense storage."""

    @pytest.mark.parametrize("argv, named", [
        (["basis", '{"exponents": [0, 1000000000], "a": "1", "b": "2"}'],
         "top exponent 1000000000"),
        (["exists", '{"space": {"exponents": [0, 1], "a": "1", "b": "2"}, '
                    '"f0": "0:1", "f1": "1000000000:1"}'],
         "sparse degree 1000000000"),
    ], ids=["exponent", "sparse-degree"])
    def test_refused_under_600_mb(self, argv, named):
        # Its own process with RLIMIT_AS at 600 MB: the refusal must come
        # before a dense coefficient list of a billion entries is asked for.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "bernstein_forge.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env,
                              preexec_fn=limit)
        assert done.returncode == 1
        assert done.stderr == f"error: {named} is above the maximum degree {MAX_DEGREE}\n"

    def test_cap_itself_accepted(self, capsys):
        space = json.dumps({"exponents": [0, MAX_DEGREE], "a": "1", "b": "2"})
        assert cli.main(["basis", space]) == 0
        assert "grade     normalized" in capsys.readouterr().out


class TestJointSizeLimit:
    """A span whose order n and top exponent e have n^2 e above MAX_SIZE is
    refused before its basis, though each alone is under its cap."""

    def test_refused_in_its_own_process(self):
        # [0..23, 20000] ran for more than 300 s before the limit.
        space = json.dumps({"exponents": list(range(24)) + [MAX_DEGREE], "a": "1", "b": "2"})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "bernstein_forge.cli", "basis", space],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stderr == (f"error: space of order 24 and top exponent {MAX_DEGREE} has "
                               f"n^2 e = {24 ** 2 * MAX_DEGREE}, above the maximum {MAX_SIZE}\n")

    @pytest.mark.parametrize("n", [32, 16])
    def test_exists_on_the_boundary_answers(self, n):
        # [0..n-1, MAX_SIZE // n^2] over [1, 2] with (1, x): coordinates by a
        # Bareiss solve over the top-exponent rows took 91.5 s at n = 32 and
        # 11.1 s at n = 16; by forward substitution, under a second.
        space = {"exponents": [*range(n), MAX_SIZE // n ** 2], "a": "1", "b": "2"}
        problem = json.dumps({"space": space, "f0": "0:1", "f1": "1:1"})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "bernstein_forge.cli", "exists", problem],
                              capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 0, done.stderr


class TestDimensionCap:
    """A span of more than MAX_DIMENSION monomials is refused before its basis."""

    def test_refused_in_its_own_process(self):
        space = json.dumps({"exponents": list(range(MAX_DIMENSION + 1)), "a": "1", "b": "2"})
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "bernstein_forge.cli", "basis", space],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stderr == (f"error: space dimension {MAX_DIMENSION + 1} is above "
                               f"the maximum {MAX_DIMENSION}\n")

    def test_cap_itself_accepted(self, capsys):
        space = json.dumps({"exponents": list(range(MAX_DIMENSION)), "a": "1", "b": "2"})
        assert cli.main(["basis", space]) == 0
        assert "grade     normalized" in capsys.readouterr().out


class TestUsageErrors:
    """argparse's usage errors exit 1, since 2 means "no Bernstein basis"."""

    @pytest.mark.parametrize("argv", [
        ["basis"], [], ["operator", PROBLEM_E1, "--samples", "abc"],
    ], ids=["no-descriptor", "no-command", "samples-not-an-integer"])
    def test_usage_error_exits_1(self, capsys, argv):
        assert cli.main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["-h"], ["operator", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_parser_built_once_and_reused(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert cli.main(["operator", "-h"]) == 0
        first_help = capsys.readouterr().out
        assert cli.main(["basis"]) == 1
        assert "usage:" in capsys.readouterr().err
        assert cli.main(["operator", "-h"]) == 0
        assert capsys.readouterr().out == first_help
        assert cli.main(["basis", SPACE_E1]) == 0

    def test_process_exit_code(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "bernstein_forge.cli", "basis"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1 and "Traceback" not in done.stderr


class TestUnwritableJson:
    """A --json path that cannot be written is a refusal, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["basis", SPACE_E1], ["basis", SPACE_BAD], ["exists", PROBLEM_E1],
        ["operator", PROBLEM_E1], ["corpus", "--filter", "e1-*"],
    ], ids=["basis", "basis-none", "exists", "operator", "corpus"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_refused(self, tmp_path, capsys, argv, where):
        path = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
        assert cli.main(argv + ["--json", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCorpusFilter:
    def test_empty_filter_notice(self, capsys):
        assert cli.main(["corpus", "--filter", "no-such-case"]) == 0
        assert "0 cases matched the filter" in capsys.readouterr().out

    def test_glob_subset(self, capsys):
        assert cli.main(["corpus", "--filter", "e2-*"]) == 0
        out = capsys.readouterr().out
        assert "e2-signed-basis" in out and "e1-basis" not in out


class TestDescriptorSources:
    def test_file_path(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(SPACE_E1)
        assert cli.main(["basis", str(path)]) == 0

    def test_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PROBLEM_E1))
        assert cli.main(["exists", "-"]) == 0


class TestJsonOutput:
    def test_basis_roundtrip_byte_identical(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert cli.main(["basis", SPACE_E1, "--json", str(first)]) == 0
        assert cli.main(["basis", SPACE_E1, "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["basis"]["grade"] == "normalized"

    def test_operator_json_rationals_as_strings(self, tmp_path):
        path = tmp_path / "op.json"
        assert cli.main(["operator", PROBLEM_E1, "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["nodes"] == [{"lo": "-1", "hi": "-1"}, {"lo": "1", "hi": "1"}]
        assert payload["weights"] == ["1", "1"]

    def test_exists_json(self, tmp_path):
        path = tmp_path / "report.json"
        assert cli.main(["exists", PROBLEM_RANGE, "--json", str(path)]) == 3
        payload = json.loads(path.read_text())
        assert payload["verdict"] == "node-out-of-range"
        assert payload["gamma"] == ["-1", "2", "-4", "8"]


class TestSamplesCsv:
    def test_header_and_partition_rows(self, capsys):
        assert cli.main(["operator", PROBLEM_CLASSICAL, "--samples", "5"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "x,p3_0,p3_1,p3_2,p3_3"
        assert len(lines) == 6
        # Sample abscissas are equispaced over [0, 1].
        assert lines[1].split(",")[0].startswith("0")
        assert lines[-1].split(",")[0].startswith("1")
        # Human-readable node report goes to stderr, not the CSV stream.
        assert "node order" in captured.err

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV, "3")
        assert cli.main(["operator", PROBLEM_GAP, "--samples", "2"]) == 0
        captured = capsys.readouterr()
        # The enclosure is far tighter than 3 digits; both ends round alike.
        assert "t1 = [0.909, 0.909]" in captured.err

    def test_precision_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV, str(cli.MAX_PRECISION))
        assert cli.main(["operator", PROBLEM_GAP, "--samples", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert len(row.split(",")[0]) == len("-1.") + cli.MAX_PRECISION

    @pytest.mark.parametrize("problem", [PROBLEM_GAP, PROBLEM_RANGE, PROBLEM_NOT_MONOTONE],
                             ids=["exists", "no-operator", "not-monotone"])
    def test_precision_above_cap_refused_whatever_the_verdict(self, capsys, monkeypatch,
                                                              problem):
        value = str(cli.MAX_PRECISION + 1)
        monkeypatch.setenv(cli.PRECISION_ENV, value)
        assert cli.main(["operator", problem]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cli.PRECISION_ENV} must be at most "
                                f"{cli.MAX_PRECISION}, got {value!r}\n")

    @pytest.mark.parametrize("count", [1, 2, 3, 17])
    def test_every_cell_is_the_rounded_exact_value(self, capsys, monkeypatch, count):
        # A non-dyadic interval with a < 0 and a non-constant f0.
        problem = {"space": {"exponents": [0, 1, 2, 3, 4, 5], "a": "-2/3", "b": "5/7"},
                   "f0": "0:5,1:1", "f1": "1:1"}
        monkeypatch.setenv(cli.PRECISION_ENV, "9")
        assert cli.main(["operator", json.dumps(problem), "--samples", str(count)]) == 0
        lines = capsys.readouterr().out.splitlines()
        basis = existence_report(OperatorProblem.from_json(problem)).basis
        a, b = basis.a, basis.b
        assert len(lines) == count + 1
        for i, line in enumerate(lines[1:]):
            x = a + (b - a) * Fraction(i, max(count - 1, 1))
            assert line.split(",") == [format_decimal(x, 9)] + [
                format_decimal(p(x), 9) for p in basis.elements]

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
    def test_malformed_precision_env_refused(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.PRECISION_ENV, value)
        assert cli.main(["operator", PROBLEM_GAP, "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cli.PRECISION_ENV} must be a positive integer, "
                                f"got {value!r}\n")
