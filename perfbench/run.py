#!/usr/bin/env python3
"""Benchmark of bernstein-forge: two seeded workloads, checked outputs.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload certify-gap --seed 1 --seconds 50 --trace 0

runs whole passes over the workload's fixed list of problems, one problem
at a time, for about --seconds (at least MIN_PASSES passes).  A problem's
latency is the median of its times over the passes.  Every output is
checked by `oracles`, which shares no code with bernstein_forge.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off; with --trace 1 they are the per-layer ones from
a traced run (see tracing.py), and the spans go to perfbench/out/.

    python3 perfbench/run.py --steadiness RUNS [--workload W] [--seed FIRST]

runs each workload once per seed FIRST..FIRST+RUNS-1 in fresh processes, prints
each end-to-end metric's median and quartiles with the spread set against
its bound, then makes two traced runs per workload and compares their counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import oracles  # noqa: E402  (HERE is sys.path[0])
import workloads  # noqa: E402

SETUP_PROBES_PER_PASS = 3
MIN_PASSES = 3
DIGITS = 12
PRECISION_ENV = "BERNSTEIN_FORGE_PRECISION"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _setup_command(workload: str, path: Path) -> list:
    module = "bernstein_forge.cli" if workload == "operator-cli" else "bernstein_forge"
    return [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), module, str(path)]


def _setup_seconds(cmd: list) -> float:
    """One cold set-up in a fresh interpreter, as timed inside it."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[0])


def _import_library():
    sys.path.insert(0, str(SRC))
    import bernstein_forge
    import bernstein_forge.cli

    if Path(bernstein_forge.__file__).resolve().parent != (SRC / "bernstein_forge").resolve():
        raise SystemExit(f"bernstein_forge imported from {bernstein_forge.__file__}, not {SRC}")
    return bernstein_forge


class Existence:
    """existence_report on problems built from their descriptors."""

    def __init__(self, lib, descs, rundir):
        self.lib = lib
        self.problems = [lib.OperatorProblem.from_json(d) for d in descs]

    def call(self, i):
        return self.lib.existence_report(self.problems[i])  # looked up late: may be traced

    def record(self, i, report, descs):
        return {"report": report.to_json(),
                "basis": None if report.basis is None else report.basis.to_json()}

    def check(self, i, desc, record):
        return oracles.check_existence(desc, record)


class OperatorCli:
    """`bernstein-forge operator FILE --tol T [--samples N] --json OUT`, in-process."""

    def __init__(self, lib, descs, rundir):
        self.cli = lib.cli
        self.argv, self.json_paths, self.errors = [], [], {}
        for i, desc in enumerate(descs):
            tol_exp, samples = workloads.operator_options(desc["slot"])
            src, dst = rundir / f"problem{i}.json", rundir / f"operator{i}.json"
            src.write_text(json.dumps(desc), encoding="utf-8")
            argv = ["operator", str(src), "--tol", f"1/{10 ** tol_exp}", "--json", str(dst)]
            self.argv.append(argv + (["--samples", str(samples)] if samples else []))
            self.json_paths.append(dst)

    def call(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.argv[i])
        return rc, out, err

    def record(self, i, result, descs):
        rc, out, err = result
        payload = json.loads(self.json_paths[i].read_text(encoding="utf-8")) if rc == 0 else None
        run = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "json": payload}
        if i not in self.errors:
            # Checked on the first pass so the CSV text need not be kept;
            # later passes are compared by digest.
            tol_exp, samples = workloads.operator_options(descs[i]["slot"])
            self.errors[i] = oracles.check_operator(
                descs[i], Fraction(1, 10 ** tol_exp), samples, DIGITS, run)
        return {"digest": hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest(),
                "inexact_nodes": sum(n["lo"] != n["hi"] for n in payload["nodes"]) if payload else 0,
                "nodes": len(payload["nodes"]) if payload else 0}

    def check(self, i, desc, record):
        return self.errors[i]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    descs = workloads.make(workload, seed)
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    rundir.mkdir()
    try:
        return _measure(workload, seed, seconds, trace, descs, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, descs, rundir):
    spec = _spec()
    descriptor_file = rundir / "descriptors.json"
    descriptor_file.write_text(json.dumps(descs), encoding="utf-8")
    setup_cmd = None if trace else _setup_command(workload, descriptor_file)
    if setup_cmd:
        _setup_seconds(setup_cmd)  # warm-up: the first probe may compile bytecode

    os.environ[PRECISION_ENV] = str(DIGITS)
    lib = _import_library()
    runner = (OperatorCli if workload == "operator-cli" else Existence)(lib, descs, rundir)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(lib)
        tracer.active = False

    times = [[] for _ in descs]  # per problem, its latency in each pass
    setup_times, records, mismatched = [], {}, []
    attempted = failed = passes = 0
    pass_s = 0.0
    started = time.perf_counter()
    # Whole passes, until the next one would end more than half a pass late.
    while passes < MIN_PASSES or time.perf_counter() - started + pass_s / 2 < seconds:
        pass_started = time.perf_counter()
        for i in range(len(descs)):
            if tracer:
                tracer.begin_problem(i)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = runner.call(i)
            except Exception as exc:  # counted as a failed operation, reported below
                result = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.active = False
                tracer.end_problem()
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                print(f"failed: problem {i} (slot {descs[i]['slot']}): {result!r}", file=sys.stderr)
                continue
            times[i].append(t1 - t0)
            rec = runner.record(i, result, descs)
            if passes == 0:
                records[i] = rec
            elif rec != records[i]:
                mismatched.append(i)
        passes += 1
        pass_s = time.perf_counter() - pass_started
        if setup_cmd:  # between passes, so the probes sample the whole run
            setup_times += [_setup_seconds(setup_cmd) for _ in range(SETUP_PROBES_PER_PASS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = {i: runner.check(i, descs[i], rec) for i, rec in records.items()}
    errors = {i: e for i, e in errors.items() if e}
    for i, errs in sorted(errors.items()):
        print(f"wrong: problem {i} (slot {descs[i]['slot']}): {'; '.join(errs[:3])}", file=sys.stderr)
    for i in mismatched:
        print(f"wrong: problem {i} gave a different output on a later pass", file=sys.stderr)
    # Each problem at its median over the passes: the passes are spread over
    # the whole run, so a phase of the host that slows a few of them moves
    # this less than it moves a sum or a single pass.
    latency = [statistics.median(t) for t in times if t]
    _describe(workload, descs, records, passes, latency, file=sys.stderr)

    if trace:
        values = tracer.metrics()
        wanted = spec["per_layer"]
        traced_rate = len(latency) / sum(latency) if latency else 0.0
        print(f"traced problems_per_s {traced_rate!r}")
        tracer.dump(OUT / f"trace-{workload}-seed{seed}.jsonl",
                    {"workload": workload, "seed": seed, "problems": attempted,
                     "passes": passes, "problems_per_s": traced_rate, "metrics": values})
    else:
        wanted = spec["end_to_end"]
        values = {
            "problems_per_s": len(latency) / sum(latency),
            "latency_ms.p50": statistics.median(latency) * 1000,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not errors and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result


def _describe(workload, descs, records, passes, latency, file):
    """One line on the input make-up of this run, for the README tables."""
    if workload == "operator-cli":
        nodes = sum(r["nodes"] for r in records.values())
        inexact = sum(r["inexact_nodes"] for r in records.values())
        mix = f"irrational-node share {inexact}/{nodes}"
    else:
        verdicts = {}
        for r in records.values():
            v = r["report"]["verdict"]
            if r["report"]["no_basis"]:
                v += "/" + r["report"]["no_basis"]["kind"]
            verdicts[v] = verdicts.get(v, 0) + 1
        mix = "verdicts " + json.dumps(dict(sorted(verdicts.items())))
    print(f"{workload}: {len(descs)} problems x {passes} passes, "
          f"{sum(latency):.2f} s per pass at each problem's median, {mix}", file=file)


# -- steadiness report -------------------------------------------------------------

def _child(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({' '.join(cmd)}):\n{done.stderr}")
    result = json.loads(lines[-1])
    traced = next((float(x.split()[-1]) for x in lines if x.startswith("traced problems_per_s")), None)
    return result, traced


def steadiness(runs: int, names, first_seed: int, seconds: float):
    spec = _spec()
    report = {}
    for workload in names:
        results = []
        for seed in range(first_seed, first_seed + runs):
            result, _ = _child(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"failed/attempted={sorted(shares)}")
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": vals}
            flag = "ok" if spread < m["bound"] / 3 else ("WITHIN BOUND" if spread <= m["bound"]
                                                          else "OVER BOUND")
            print(f"  {m['name']:<16} median {med:10.4f} {m['unit']:<5} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {spread:6.2%} bound {m['bound']:.0%} (third {m['bound'] / 3:.2%}) {flag}")
        traced = [_child(workload, first_seed, seconds, 1) for _ in range(2)]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = [{k: v["value"] for k, v in t[0]["metrics"].items() if units[k] != "ms"}
                  for t in traced]
        untraced = rows["problems_per_s"]["values"][0]
        overhead = untraced / traced[0][1] - 1
        print(f"  traced counts identical across two runs: {counts[0] == counts[1]}; "
              f"tracing overhead (seed {first_seed}): {untraced:.3f} -> {traced[0][1]:.3f} "
              f"problems/s ({overhead:+.1%})")
        report[workload] = {"end_to_end": rows, "traced_counts_identical": counts[0] == counts[1],
                            "traced_problems_per_s": traced[0][1], "per_layer": traced[0][0]["metrics"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"steadiness-seed{first_seed}.json").write_text(json.dumps(report, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="report the spread of RUNS runs per workload")
    args = parser.parse_args(argv)
    if not (SRC / "bernstein_forge" / "__init__.py").is_file():
        print(f"error: no bernstein_forge sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds or _spec()["run_seconds"]
    if args.steadiness:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        steadiness(args.steadiness, names, args.seed, seconds)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
