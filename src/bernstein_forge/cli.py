"""Command-line front end.

Subcommands: `basis`, `exists`, `operator`, `corpus`.  Descriptors are
JSON, inline or by file path; all rationals travel as exact "p/q" text.
Exit codes are a stable contract:

    0  success (basis found / operator exists / corpus clean)
    1  malformed input (including fields of the wrong type), a failed
       internal check, or for `operator` a negative `--samples`, a
       non-positive `--tol` or one too loose to separate the nodes
    2  no Bernstein basis (`basis`)
    3  operator does not exist (`exists`, `operator`)
    4  problem hypotheses failed certification
    5  corpus mismatch
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import BernsteinForgeError, F0NotPositive, RatioNotMonotone
from .operator import (
    DEFAULT_TOL,
    OperatorProblem,
    build_operator,
    existence_report,
)
from .corpus import run_corpus
from .rational import as_rational, format_decimal, format_rational
from .spaces import MonomialSpace, NoBasisReport, bernstein_basis, normalize_when_possible

PRECISION_ENV = "BERNSTEIN_FORGE_PRECISION"


def _precision() -> int:
    try:
        return max(1, int(os.environ.get(PRECISION_ENV, "12")))
    except ValueError:
        return 12


def _load_descriptor(text: str) -> dict:
    """Accept inline JSON or a path to a JSON file ('-' reads stdin)."""
    if text == "-":
        return json.loads(sys.stdin.read())
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(payload: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(payload))
        fh.write("\n")


def dump_json(payload) -> str:
    """Canonical JSON rendering: insertion order, two-space indent."""
    return json.dumps(payload, indent=2)


# Errors that end a command with a refusal (json.JSONDecodeError is a ValueError).
_REFUSALS = (BernsteinForgeError, ValueError, OSError)


def _refuse(exc: Exception) -> int:
    """Report a refusal on stderr; exit 4 for failed hypotheses, else 1."""
    if isinstance(exc, (F0NotPositive, RatioNotMonotone)):
        print(f"certification failed: {exc}", file=sys.stderr)
        return 4
    print(f"error: {exc}", file=sys.stderr)
    return 1


def cmd_basis(args) -> int:
    try:
        space = MonomialSpace.from_json(_load_descriptor(args.space))
        result = normalize_when_possible(bernstein_basis(space))
    except _REFUSALS as exc:
        return _refuse(exc)
    if isinstance(result, NoBasisReport):
        print(f"no Bernstein basis: {result.kind} at k={result.index}"
              + (f" (endpoint {result.endpoint})" if result.endpoint else ""))
        if args.json:
            _emit_json({"space": space.to_json(), "no_basis": result.to_json()}, args.json)
        return 2
    print(f"interval  [{format_rational(space.a)}, {format_rational(space.b)}]")
    print(f"grade     {result.grade}")
    for k, (p, orders, cls) in enumerate(
        zip(result.elements, result.zero_orders, result.classifications)
    ):
        print(f"p[{k}]  orders {orders}  {cls.verdict}  {p.to_sparse()}")
    if args.json:
        _emit_json({"space": space.to_json(), "basis": result.to_json()}, args.json)
    return 0


def _report_lines(report) -> list:
    lines = [f"verdict        {report.verdict}"]
    if report.ratio_certificate:
        lines.append(f"ratio          {report.ratio_certificate}")
    if report.beta is not None:
        lines.append("k    beta      gamma     ratio     in-range")
        for k in range(len(report.beta)):
            ratio = format_rational(report.ratios[k]) if report.ratios else "-"
            flag = str(report.in_range_flags[k]).lower() if report.in_range_flags else "-"
            lines.append(
                f"{k:<4} {format_rational(report.beta[k]):<9} "
                f"{format_rational(report.gamma[k]):<9} {ratio:<9} {flag}"
            )
    if report.monotonicity:
        lines.append(f"monotonicity   {report.monotonicity}")
    if report.w is not None:
        lines.append(f"w              ({', '.join(format_rational(w) for w in report.w)})"
                     f"  [{report.w_summary}]")
        lines.append(f"cross-check    {'agree' if report.cross_check else 'DISAGREE'}")
    if report.no_basis is not None:
        lines.append(f"no-basis       {report.no_basis.to_json()}")
    return lines


def _existence(args):
    descriptor = _load_descriptor(args.problem)
    problem = OperatorProblem.from_json(descriptor)
    return problem, existence_report(problem)


def cmd_exists(args) -> int:
    try:
        problem, report = _existence(args)
    except _REFUSALS as exc:
        return _refuse(exc)
    for line in _report_lines(report):
        print(line)
    if args.json:
        _emit_json(report.to_json(), args.json)
    return 0 if report.verdict == "exists" else 3


def cmd_operator(args) -> int:
    try:
        if args.samples is not None and args.samples < 0:
            raise ValueError(f"--samples must be non-negative, got {args.samples}")
        problem, report = _existence(args)
        tol = as_rational(args.tol) if args.tol else DEFAULT_TOL
        if report.verdict != "exists":
            print(f"operator does not exist: {report.verdict}", file=sys.stderr)
            return 3
        spec = build_operator(report, tol)
    except _REFUSALS as exc:
        return _refuse(exc)
    digits = _precision()
    out = sys.stderr if args.samples else sys.stdout

    print(f"nodes (tol {format_rational(tol)}):", file=out)
    for k, (enc, w) in enumerate(zip(spec.nodes, spec.weights)):
        if enc.is_exact:
            loc = format_rational(enc.lo)
        else:
            loc = (f"[{format_decimal(enc.lo, digits)}, "
                   f"{format_decimal(enc.hi, digits)}]")
        if isinstance(w, tuple):
            weight = f"[{format_rational(w[0])}, {format_rational(w[1])}]"
        else:
            weight = format_rational(w)
        print(f"t{k} = {loc}   alpha{k} = {weight}", file=out)
    print(f"node order: {spec.node_order()}", file=out)

    if args.samples:
        _emit_samples_csv(spec, problem, args.samples, digits)
    if args.json:
        _emit_json(spec.to_json(), args.json)
    return 0


def _emit_samples_csv(spec, problem, count: int, digits: int):
    """Equispaced basis samples as CSV on stdout (report went to stderr)."""
    n = spec.basis.order
    a, b = problem.space.a, problem.space.b
    print("x," + ",".join(f"p{n}_{k}" for k in range(n + 1)))
    steps = max(count - 1, 1)
    for i in range(count):
        x = a + (b - a) * Fraction(i, steps)
        row = [format_decimal(x, digits)]
        row.extend(format_decimal(p(x), digits) for p in spec.basis.elements)
        print(",".join(row))


def cmd_corpus(args) -> int:
    results = run_corpus(filter_glob=args.filter)
    if not results:
        print("0 cases matched the filter")
        return 0
    failures = []
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'}  {res.name}")
        if not res.ok:
            failures.append(res)
    if args.json:
        _emit_json(
            {
                "cases": [
                    {"name": r.name, "ok": r.ok, "mismatches": list(r.mismatches)}
                    for r in results
                ]
            },
            args.json,
        )
    if failures:
        for res in failures:
            print(f"mismatch in {res.name}: {res.mismatches[0]}", file=sys.stderr)
        return 5
    print(f"{len(results)} cases passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernstein-forge",
        description="Exact Bernstein bases and generalized Bernstein operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="construct the Bernstein basis of a span")
    p_basis.add_argument("space", help="space descriptor (JSON inline, file path, or '-')")
    p_basis.add_argument("--json", metavar="PATH", help="write machine-readable report")
    p_basis.set_defaults(func=cmd_basis)

    p_exists = sub.add_parser("exists", help="decide operator existence for (space, f0, f1)")
    p_exists.add_argument("problem", help="problem descriptor (JSON inline, file path, or '-')")
    p_exists.add_argument("--json", metavar="PATH")
    p_exists.set_defaults(func=cmd_exists)

    p_op = sub.add_parser("operator", help="compute nodes and weights")
    p_op.add_argument("problem")
    p_op.add_argument("--tol", metavar="RATIONAL", help="node enclosure width bound")
    p_op.add_argument("--samples", type=int, metavar="N",
                      help="emit CSV of basis samples at N equispaced points")
    p_op.add_argument("--json", metavar="PATH")
    p_op.set_defaults(func=cmd_operator)

    p_corpus = sub.add_parser("corpus", help="verify the built-in worked-example corpus")
    p_corpus.add_argument("--filter", metavar="GLOB", default=None,
                          help="run only cases matching this glob")
    p_corpus.add_argument("--json", metavar="PATH")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
