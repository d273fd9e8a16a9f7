"""Time one cold set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <module> <descriptors.json>

Prints the seconds from just before importing <module> (bernstein_forge or
bernstein_forge.cli) until every descriptor is built into an
OperatorProblem.  Interpreter boot is outside the timed span on purpose:
it varies more between sets of runs than the import it would hide.
"""

import importlib
import json
import sys
import time

src, module, path = sys.argv[1:4]
sys.path.insert(0, src)
t0 = time.perf_counter()
importlib.import_module(module)
from bernstein_forge.operator import OperatorProblem  # noqa: E402

with open(path, encoding="utf-8") as fh:
    problems = [OperatorProblem.from_json(d) for d in json.load(fh)]
elapsed = time.perf_counter() - t0
print(f"{elapsed!r} {len(problems)}")
