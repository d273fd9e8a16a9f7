#!/usr/bin/env python3
"""Write every output of one bernstein-forge checkout, one file per output.

    python3 tools/compare_outputs.py SRC OUT

imports bernstein_forge from SRC, the `src` directory of a checkout, and
writes under OUT:

- certify-gap/seedS/slotK.report.json and .basis.json: the existence
  report and basis JSON of each benchmark problem, for seeds 1-5;
- operator-cli/seedS/slotK.rc, .stdout, .stderr and .json: the
  `operator` command as the benchmark runs it, CSV included, with
  BERNSTEIN_FORGE_PRECISION=12, for seeds 1-5;
- corpus.rc, .stdout, .stderr and .json: the `corpus` command;
- boundary/: `basis` and `exists` with (f0, f1) = (1, x) on the spans
  [0..n-1, MAX_SIZE // n^2] over [1, 2] for n = 2..32, the largest that
  the size contract accepts, and on the spans one top exponent past them,
  which it refuses;
- chains/: `basis` of spans whose classification builds Sturm chains
  (CHAIN_SPANS);
- csv/: `operator --samples N` for N in CSV_SAMPLES and
  BERNSTEIN_FORGE_PRECISION in CSV_PRECISIONS, on the full spaces of the
  orders in CSV_ORDERS over the intervals CSV_INTERVALS, with the named
  (f0, f1) of CSV_PAIRS.

The problems come from perfbench/workloads.py beside this tool, which is
read and not changed.  Run it on two checkouts and compare with

    diff -r OUT_A OUT_B

which names the first output that differs.  Uses only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

SEEDS = range(1, 6)
PRECISION = "12"
# (exponents, a, b) of spans whose bases are classified by Sturm chains on
# intervals that contain 0; the one of degree 5000 takes seconds.
CHAIN_SPANS = (
    ([*range(10), 11, 50], "-1/2", "1"),
    ([0, 2, 3, 5, 7, 40], "-1", "2"),
    ([0, 1, 3, 2000], "-1", "1"),
    ([0, 1, 3, 5000], "-1", "1"),
    ([0, 1, 2, 8, 22], "-1/2", "1"),
    ([0, 1, 3], "-1", "1"),
)

# Sample counts, digits, intervals (non-dyadic, negative, integer) and
# named (f0, f1) pairs of the csv/ group: the edge cases of the CSV grid.
CSV_SAMPLES = (1, 2, 3, 1001)
CSV_PRECISIONS = ("1", "40")
CSV_ORDERS = (1, 2, 3, 5, 8, 12, 16)
CSV_INTERVALS = (("-1/3", "5/7"), ("-7/2", "-1/3"), ("2", "5"), ("-1", "2"))
CSV_PAIRS = (("one", "0:1", "1:1"), ("five_plus_x", "0:5,1:1", "1:1"))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _dump(path: Path, payload) -> None:
    _write(path, json.dumps(payload, indent=1) + "\n")


def _run_cli(cli, argv: list, stem: Path) -> None:
    """cli.main(argv --json STEM.json) in-process; its exit code, stdout and
    stderr go to STEM.rc, STEM.stdout and STEM.stderr."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--json", f"{stem}.json"])
    _write(Path(f"{stem}.rc"), f"{rc}\n")
    _write(Path(f"{stem}.stdout"), out.getvalue())
    _write(Path(f"{stem}.stderr"), err.getvalue())


def _space(exponents, a, b) -> dict:
    return {"exponents": list(exponents), "a": a, "b": b}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1])
    sys.dont_write_bytecode = True  # leaves perfbench/ as it is
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "perfbench")]
    os.environ["BERNSTEIN_FORGE_PRECISION"] = PRECISION
    import bernstein_forge as lib
    import bernstein_forge.cli as cli
    import workloads

    if Path(lib.__file__).resolve().parent != src / "bernstein_forge":
        raise SystemExit(f"bernstein_forge imported from {lib.__file__}, not {src}")

    for seed in SEEDS:
        for desc in workloads.make("certify-gap", seed):
            stem = out / "certify-gap" / f"seed{seed}" / f"slot{desc['slot']:02d}"
            report = lib.existence_report(lib.OperatorProblem.from_json(desc))
            _dump(stem.with_suffix(".report.json"), report.to_json())
            _dump(stem.with_suffix(".basis.json"),
                  None if report.basis is None else report.basis.to_json())
        for desc in workloads.make("operator-cli", seed):
            tol_exp, samples = workloads.operator_options(desc["slot"])
            argv = ["operator", json.dumps(desc), "--tol", f"1/{10 ** tol_exp}"]
            _run_cli(cli, argv + (["--samples", str(samples)] if samples else []),
                     out / "operator-cli" / f"seed{seed}" / f"slot{desc['slot']:02d}")

    _run_cli(cli, ["corpus"], out / "corpus")

    for n in range(2, 33):
        top = lib.MAX_SIZE // n**2
        for name, e in (("edge", top), ("past", top + 1)):
            space = _space([*range(n), e], "1", "2")
            stem = out / "boundary" / f"n{n:02d}-{name}"
            _run_cli(cli, ["basis", json.dumps(space)], Path(f"{stem}.basis"))
            problem = {"space": space, "f0": "0:1", "f1": "1:1"}
            _run_cli(cli, ["exists", json.dumps(problem)], Path(f"{stem}.exists"))

    for exponents, a, b in CHAIN_SPANS:
        name = "_".join(map(str, exponents)) + f"_on_{a}_{b}".replace("/", "over")
        _run_cli(cli, ["basis", json.dumps(_space(exponents, a, b))], out / "chains" / name)

    for digits in CSV_PRECISIONS:
        os.environ["BERNSTEIN_FORGE_PRECISION"] = digits
        for (a, b), (pair, f0, f1), n in itertools.product(CSV_INTERVALS, CSV_PAIRS,
                                                            CSV_ORDERS):
            problem = {"space": _space(range(n + 1), a, b), "f0": f0, "f1": f1}
            name = f"n{n:02d}_on_{a}_{b}_{pair}".replace("/", "over")
            for samples in CSV_SAMPLES:
                _run_cli(cli, ["operator", json.dumps(problem), "--samples", str(samples)],
                         out / "csv" / f"digits{digits}" / f"{name}.samples{samples}")
    os.environ["BERNSTEIN_FORGE_PRECISION"] = PRECISION

    print(f"{sum(1 for p in out.rglob('*') if p.is_file())} files under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
