import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bernstein_forge import IdentityViolation, cli, spaces
from bernstein_forge.corpus import CASES, run_corpus

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

    def test_corpus_clean(self, capsys):
        assert cli.main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(CASES)
        assert f"{len(CASES)} cases passed" in out

    def test_corpus_mismatch_detected(self, capsys, monkeypatch):
        broken = copy.deepcopy(CASES[0])
        broken.expected["gamma"] = ["-1", "2"]
        monkeypatch.setattr(
            cli, "run_corpus", lambda filter_glob=None: run_corpus(cases=[broken])
        )
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
