"""Per-layer tracing, installed from outside the library.

`Tracer.install` replaces public functions of each bernstein_forge module
in every module namespace that bound them (``solve_linear`` is bound in
linsolve, spaces and operator, for example), and wraps the methods of
``Polynomial`` on the class.  Each wrapped call is a span; a span's self
time is its duration minus the time covered by its traced children.

Spans of module-level functions are kept in memory as (layer, name,
start, end, parent, problem) and written out by `dump`.  Polynomial
methods and the rational formatters run thousands of times per problem,
so they are counted and timed like every other span but not stored one by
one.  `as_rational` and `sign` are not wrapped at all: they are one-line
helpers called for every coefficient, and their time stays in the caller.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from math import ceil, log2
from time import perf_counter

LAYERS = ("linsolve", "polynomial", "sturm", "spaces", "operator", "cli", "rational")
UNTRACED = {"as_rational", "sign"}
INCLUSIVE = {
    "basis_from_generators": "spaces.basis_ms",
    "derived_space": "spaces.derived_ms",
    "existence_report": "operator.existence_ms",
    "build_operator": "operator.build_ms",
}
COUNTED = {
    "solve_linear": "linsolve.calls",
    "Polynomial.__call__": "polynomial.evals",
    "Polynomial.__init__": "polynomial.constructs",
    "Polynomial.gcd": "polynomial.gcds",
    "sturm_chain": "sturm.chains",
    "classify_on_interval": "sturm.classify_calls",
    "rational_roots": "sturm.rational_root_calls",
    "basis_from_generators": "spaces.basis_calls",
    "coordinates": "spaces.coordinates_calls",
    "certify_positive_on_closed": "spaces.positivity_certs",
    "format_decimal": "rational.format_calls",
    "format_rational": "rational.format_calls",
}
MAXIMA = ("linsolve.max_bits", "sturm.chain_max_bits")


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent, problem]
        self.stack = []  # [start, child seconds, span id or inherited parent]
        self.self_s = defaultdict(float)
        self.totals = defaultdict(float)
        self.maxima = defaultdict(int)  # per-problem maximum, folded by end_problem
        self.problem = -1
        self.problems = 0
        self.active = True  # calls made while False run untraced

    # -- problem boundaries ------------------------------------------------

    def begin_problem(self, index: int):
        self.problem = index

    def end_problem(self):
        for name in MAXIMA:
            self.totals[name] += self.maxima.pop(name, 0)
        self.problems += 1

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the package's public functions and Polynomial methods."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in ("errors", "rational", "polynomial", "linsolve",
                                         "sturm", "spaces", "operator", "corpus", "cli")]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, fn in list(vars(mod).items()):
                if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                        and getattr(fn, "__module__", None) == mod.__name__
                        and name not in UNTRACED):
                    keep = layer != "rational"
                    self._rebind(modules, fn, self._wrap(fn, layer, name, keep))
        poly = modules[0].Polynomial
        for name, attr in list(vars(poly).items()):
            if isinstance(attr, classmethod):
                wrapped = self._wrap(attr.__func__, "polynomial", f"Polynomial.{name}", False)
                setattr(poly, name, classmethod(wrapped))
            elif callable(attr) and not isinstance(attr, type) and name not in (
                    "__repr__", "__hash__", "__eq__"):
                setattr(poly, name, self._wrap(attr, "polynomial", f"Polynomial.{name}", False))

    @staticmethod
    def _rebind(modules, original, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def _wrap(self, fn, layer, name, keep):
        stack, spans, self_s, totals = self.stack, self.spans, self.self_s, self.totals
        counted, inclusive = COUNTED.get(name), INCLUSIVE.get(name)
        hook = getattr(self, "_hook_" + name, None)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            if keep:
                ident = len(spans)
                spans.append([layer, name, 0.0, 0.0, parent, self.problem])
            else:
                ident = parent
            frame = [perf_counter(), 0.0, ident]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[ident][2], spans[ident][3] = frame[0], end
                if counted:
                    totals[counted] += 1
                if inclusive:
                    totals[inclusive] += duration * 1000
            if hook:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters that need arguments or results ------------------------------

    def _hook_solve_linear(self, args, result):
        matrix = args[0]
        self.totals["linsolve.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        entries = [x for vec in ((result.particular or ()),) + result.nullspace for x in vec]
        if entries:
            self._max("linsolve.max_bits", max(_bits(x) for x in entries))

    def _hook_sturm_chain(self, args, result):
        self._max("sturm.chain_max_bits",
                  max(_bits(c) for p in result.sequence for c in p.coeffs))

    def _hook_bisect_root(self, args, result):
        if result.lo != result.hi:
            start = Fraction(args[2]) - Fraction(args[1])
            self.totals["sturm.bisect_steps"] += ceil(log2(start / (result.hi - result.lo)))

    def _hook_rational_roots(self, args, result):
        if result:
            self.totals["sturm.rational_root_hits"] += 1

    def _max(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, per problem."""
        per = max(self.problems, 1)
        out = {f"{layer}.self_ms": self.self_s[layer] * 1000 / per for layer in LAYERS}
        names = set(COUNTED.values()) | set(INCLUSIVE.values()) | set(MAXIMA) | {
            "linsolve.cells", "sturm.bisect_steps", "sturm.rational_root_hits"}
        out.update({name: self.totals[name] / per for name in names})
        return out

    def dump(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
