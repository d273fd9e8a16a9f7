"""Command-line front end.

Subcommands: `basis`, `exists`, `operator`, `corpus`.  Descriptors are
JSON, inline or by file path; all rationals travel as exact "p/q" text.
Exit codes are a stable contract:

    0  success (basis found / operator exists / corpus clean)
    1  a usage error, malformed input (including fields of the wrong type,
       degrees above MAX_DEGREE, dimensions above MAX_DIMENSION and spaces
       above MAX_SIZE), an unwritable `--json` path, a failed internal
       check, or for `operator` a negative `--samples`, a `--tol` that is
       not positive, below 1/10^TOL_FLOOR_DIGITS or too loose to separate
       the nodes, or a PRECISION_ENV that is not a positive integer or is
       above MAX_PRECISION
    2  no Bernstein basis (`basis`)
    3  operator does not exist (`exists`, `operator`)
    4  problem hypotheses failed certification
    5  corpus mismatch
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import repeat

from .errors import BadTolerance, BernsteinForgeError, F0NotPositive, RatioNotMonotone
from .operator import (
    DEFAULT_TOL,
    OperatorProblem,
    build_operator,
    existence_report,
)
from .corpus import run_corpus
from .rational import (
    as_rational,
    format_decimal,
    format_quotient,
    format_rational,
    integer_form,
    read_integer,
)
from .spaces import MonomialSpace, NoBasisReport, bernstein_basis, normalize_when_possible

PRECISION_ENV = "BERNSTEIN_FORGE_PRECISION"

# The most decimal digits rendered.  On a 2-core Xeon under CPython 3.11,
# `operator --samples 101` on the full order-10 span over [-1, 2] takes 3.0 s
# at this precision, 21 s at 30000 digits and over 60 s at 100000.
MAX_PRECISION = 10000

# The finest `--tol` is 1/10^TOL_FLOOR_DIGITS.  On a 2-core Xeon under
# CPython 3.11, `operator` with (1, x + x^3) over [-1, 2] takes 1.3 s at
# this floor on the full order-10 span and 2.9 s on the full order-32 span;
# at 1/10^2000 they take 3.7 and 17 s, at 1/10^4000 25 and 65 s.
TOL_FLOOR_DIGITS = 1000


def _precision() -> int:
    text = os.environ.get(PRECISION_ENV, "12")
    digits = read_integer(text) if text.strip().isdecimal() else 0
    if digits < 1:
        raise ValueError(f"{PRECISION_ENV} must be a positive integer, got {text!r}")
    if digits > MAX_PRECISION:
        raise ValueError(f"{PRECISION_ENV} must be at most {MAX_PRECISION}, got {text!r}")
    return digits


def _load_descriptor(text: str) -> dict:
    """Accept inline JSON (an object or an array) or a path to a JSON file
    ('-' reads stdin).

    Integer literals are read by `read_integer`, which refuses one past the
    interpreter's digit limit by its digit count.
    """
    if text == "-":
        return json.loads(sys.stdin.read(), parse_int=read_integer)
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text, parse_int=read_integer)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=read_integer)


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
    space = MonomialSpace.from_json(_load_descriptor(args.space))
    result = normalize_when_possible(bernstein_basis(space))
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
    lines = [f"verdict        {report.verdict}", f"ratio          {report.ratio_certificate}"]
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


def cmd_exists(args) -> int:
    report = existence_report(OperatorProblem.from_json(_load_descriptor(args.problem)))
    for line in _report_lines(report):
        print(line)
    if args.json:
        _emit_json(report.to_json(), args.json)
    return 0 if report.verdict == "exists" else 3


def cmd_operator(args) -> int:
    if args.samples is not None and args.samples < 0:
        raise ValueError(f"--samples must be non-negative, got {args.samples}")
    tol = as_rational(args.tol) if args.tol is not None else DEFAULT_TOL
    if tol <= 0:
        raise BadTolerance(f"tolerance must be positive, got {format_rational(tol)}")
    if tol < Fraction(1, 10**TOL_FLOOR_DIGITS):
        raise BadTolerance(f"tolerance must be at least 1/10^{TOL_FLOOR_DIGITS}")
    digits = _precision()
    report = existence_report(OperatorProblem.from_json(_load_descriptor(args.problem)))
    if report.verdict != "exists":
        print(f"operator does not exist: {report.verdict}", file=sys.stderr)
        return 3
    spec = build_operator(report, tol)
    out = sys.stderr if args.samples else sys.stdout

    print(f"nodes (tol {format_rational(tol)}):", file=out)
    for k, (enc, w) in enumerate(zip(spec.nodes, spec.weights)):
        if enc.is_exact:
            loc = format_rational(enc.lo)
        else:
            loc = (f"[{format_decimal(enc.lo, digits)}, "
                   f"{format_decimal(enc.hi, digits)}]")
        if w.is_exact:
            weight = format_rational(w.lo)
        else:
            weight = f"[{format_rational(w.lo)}, {format_rational(w.hi)}]"
        print(f"t{k} = {loc}   alpha{k} = {weight}", file=out)
    print(f"node order: {spec.node_order()}", file=out)

    if args.samples:
        _emit_samples_csv(spec, args.samples, digits)
    if args.json:
        _emit_json(spec.to_json(), args.json)
    return 0


def _emit_samples_csv(spec, count: int, digits: int):
    """Basis samples at count equispaced points of [a, b] as CSV on stdout
    (the report went to stderr), written row by row.

    Sample i is x_i = (u0 + h i)/v on integers: with a = ua/scale and
    b = ub/scale for scale = lcm(den a, den b), v = scale steps,
    u0 = ua steps and h = ub - ua > 0, so x_i = a + (b - a) i/steps.  The
    element columns are the lazy numerators of `Polynomial.grid_numerators`
    over their one denominator.  Every cell, x included, is
    `format_quotient` of an unreduced pair, whose text is that of the
    reduced value: the exact value rounded half away from zero to `digits`
    places.  The columns are zipped lazily, so memory does not grow with
    count.
    """
    basis = spec.basis
    n = basis.order
    print("x," + ",".join(f"p{n}_{k}" for k in range(n + 1)))
    steps = max(count - 1, 1)
    scale, (ua, ub) = integer_form((basis.a, basis.b))
    u0, h, v = ua * steps, ub - ua, scale * steps
    columns = [(v, range(u0, u0 + h * count, h))]
    columns += [p.grid_numerators(u0, h, v, count) for p in basis.elements]
    cells = [map(format_quotient, nums, repeat(den), repeat(digits)) for den, nums in columns]
    for row in zip(*cells):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    `main` parses with it on every call."""
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after -h, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except _REFUSALS as exc:
        return _refuse(exc)


if __name__ == "__main__":
    raise SystemExit(main())
