"""Independent checks of bernstein_forge outputs.

Nothing here imports bernstein_forge.  Polynomials are dense lists of
Fractions (index = degree) and every formula is derived from the theory
rather than from the library's code path:

* full spaces span{1, ..., x^n}: the classical Bernstein basis in closed
  form, with coordinates taken as blossoms (polar forms) at (a^(n-k), b^k);
* gap spans: each element is the one-dimensional solution of its vanishing
  conditions, written with closed-form monomial derivatives and solved by
  a plain Gauss-Jordan elimination;
* sign verdicts: sympy root counts on the open interval plus a sign sample.

Every check returns a list of messages; each names the output field that
is wrong, so a perturbed field is reported by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

STRICTLY_POSITIVE = "strictly-positive"
NONNEG_INTERIOR_ZEROS = "non-negative-with-interior-zeros"
SIGN_CHANGING = "sign-changing"
STRICTLY_NEGATIVE = "strictly-negative"
NONPOS_INTERIOR_ZEROS = "non-positive-with-interior-zeros"


# -- exact scalars and dense polynomials ------------------------------------

def rat(text) -> Fraction:
    return Fraction(text)


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_sparse(text: str) -> list:
    """Dense coefficient list of a "deg:coef,deg:coef" polynomial."""
    terms = {}
    for chunk in text.split(","):
        if chunk.strip():
            deg, _, coef = chunk.partition(":")
            terms[int(deg)] = terms.get(int(deg), Fraction(0)) + Fraction(coef.strip())
    return trim([terms.get(i, Fraction(0)) for i in range(max(terms, default=-1) + 1)])


def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def evaluate(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative_at(p, j: int, x) -> Fraction:
    """p^(j)(x) from the closed form e!/(e-j)! x^(e-j) of each monomial."""
    return sum(
        (c * (_falling(e, j) * x ** (e - j)) for e, c in enumerate(p) if e >= j and c),
        Fraction(0),
    )


def _falling(e: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= e - i
    return out


def zero_order(p, x, limit: int) -> int:
    """Order of vanishing of p at x, capped at limit (exact derivatives)."""
    for j in range(limit):
        if derivative_at(p, j, x) != 0:
            return j
    return limit


def add(p, q) -> list:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p, q) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p, s) -> list:
    return trim([s * c for c in p])


def deriv(p) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def combination(coords, elements) -> list:
    out = []
    for c, p in zip(coords, elements):
        out = add(out, scale(p, c))
    return out


def proportional(p, q) -> bool:
    """True when p = s q for a nonzero rational s."""
    if not p or not q or len(p) != len(q):
        return False
    s = p[-1] / q[-1]
    return all(x == s * y for x, y in zip(p, q))


def round_half_away(q: Fraction, digits: int) -> str:
    """Decimal text of q with `digits` fractional digits, ties away from zero."""
    neg = q < 0
    scaled = abs(q) * 10 ** digits
    whole = scaled.numerator // scaled.denominator
    if scaled - whole >= Fraction(1, 2):
        whole += 1
    text = f"{whole // 10 ** digits}.{whole % 10 ** digits:0{digits}d}" if digits else str(whole)
    return f"-{text}" if neg and whole else text


# -- small exact linear algebra ---------------------------------------------

def _reduce(rows, width):
    """Gauss-Jordan over Fractions; returns (reduced rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace(rows, width) -> list:
    red, pivots = _reduce(rows, width)
    out = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        out.append(v)
    return out


def solve(columns, target):
    """Coefficients x with sum x_i columns[i] = target, or None if none exist."""
    height = max([len(target)] + [len(c) for c in columns] + [1])
    rows = [
        [(col[i] if i < len(col) else 0) for col in columns] + [target[i] if i < len(target) else 0]
        for i in range(height)
    ]
    red, pivots = _reduce(rows, len(columns) + 1)
    if len(columns) in pivots:
        return None
    x = [Fraction(0)] * len(columns)
    for i, pc in enumerate(pivots):
        x[pc] = red[i][-1]
    return x


# -- Bernstein bases ----------------------------------------------------------

def classical_basis(n: int, a, b) -> list:
    """C(n,k) (x-a)^k (b-x)^(n-k) / (b-a)^n, k = 0..n, as dense polynomials."""
    a, b = rat(a), rat(b)
    out = []
    for k in range(n + 1):
        p = [Fraction(comb(n, k)) / (b - a) ** n]
        for _ in range(k):
            p = mul(p, [-a, Fraction(1)])
        for _ in range(n - k):
            p = mul(p, [b, Fraction(-1)])
        out.append(p)
    return out


def blossom_coordinates(f, n: int, a, b) -> list:
    """Coordinates of f (degree <= n) in the classical basis.

    Coordinate k is the blossom of f at (a^(n-k), b^k): the sum over j of
    c_j e_j / C(n, j), with e_j the elementary symmetric function of the
    multiset of n-k copies of a and k copies of b.
    """
    a, b = rat(a), rat(b)
    out = []
    for k in range(n + 1):
        total = Fraction(0)
        for j, c in enumerate(f):
            if c:
                ej = sum(comb(n - k, j - i) * comb(k, i) * a ** (j - i) * b ** i
                         for i in range(max(0, j - (n - k)), min(j, k) + 1))
                total += c * ej / comb(n, j)
        out.append(total)
    return out


def span_basis(exponents, a, b):
    """Bernstein elements of span{x^e} on [a, b], up to scaling, or a refusal.

    Returns ("basis", [p_0..p_n]) or ("refusal", index, kind, endpoint) where
    the refusal is the highest failing index, as the library reports it.
    """
    a, b = rat(a), rat(b)
    n = len(exponents) - 1
    monos = [[Fraction(0)] * e + [Fraction(1)] for e in exponents]
    elements, failures = [], []
    for k in range(n + 1):
        rows = [[derivative_at(m, j, a) for m in monos] for j in range(k)]
        rows += [[derivative_at(m, j, b) for m in monos] for j in range(n - k)]
        null = nullspace(rows, n + 1) if rows else [[Fraction(1)]]
        if len(null) != 1:
            failures.append((k, "degenerate-solution-space", None))
            continue
        p = combination(null[0], monos)
        if zero_order(p, a, k + 1) > k:
            failures.append((k, "forced-extra-zero", "a"))
        elif zero_order(p, b, n - k + 1) > n - k:
            failures.append((k, "forced-extra-zero", "b"))
        else:  # orient positive just inside b, as the scaling is otherwise free
            elements.append(p if derivative_at(p, n - k, b) * (-1) ** (n - k) > 0 else scale(p, -1))
    if failures:
        return ("refusal",) + failures[-1]
    return ("basis", elements)


def normalized(elements):
    """Scale elements to sum to 1, or None when that needs a scalar <= 0."""
    c = solve(elements, [Fraction(1)])
    if c is None or any(x <= 0 for x in c):
        return None
    return [scale(p, x) for p, x in zip(elements, c)]


# -- sign verdicts by sympy --------------------------------------------------

def sign_verdict(p, a, b) -> str:
    """Sign behaviour of p on the open (a, b) from sympy root counts."""
    import sympy

    a, b = rat(a), rat(b)
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    lo, hi = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    odd = even = 0
    for factor, mult in poly.sqf_list()[1]:
        count = factor.count_roots(lo, hi)  # closed interval
        count -= (factor.eval(lo) == 0) + (factor.eval(hi) == 0)
        if mult % 2:
            odd += count
        else:
            even += count
    if odd:
        return SIGN_CHANGING
    sample = next(
        s for s in (evaluate(p, a + (b - a) * Fraction(i, 64)) for i in range(1, 64)) if s != 0
    )
    if even:
        return NONNEG_INTERIOR_ZEROS if sample > 0 else NONPOS_INTERIOR_ZEROS
    return STRICTLY_POSITIVE if sample > 0 else STRICTLY_NEGATIVE


# -- the existence verdict -----------------------------------------------------

def verdict_rule(beta, gamma, f0, f1, a, b):
    """(verdict, ratios, in-range flags) from the paper's characterization."""
    if any(x <= 0 for x in beta):
        return "beta-not-positive", None, None
    ratios = [g / x for g, x in zip(gamma, beta)]
    r_lo = evaluate(f1, a) / evaluate(f0, a)
    r_hi = evaluate(f1, b) / evaluate(f0, b)
    flags = [r_lo <= r <= r_hi for r in ratios]
    return ("exists" if all(flags) else "node-out-of-range"), ratios, flags


def predict_full(n, a, b, f0, f1):
    """Closed-form beta, gamma and verdict for the full space of degree n."""
    beta = blossom_coordinates(f0, n, a, b)
    gamma = blossom_coordinates(f1, n, a, b)
    verdict, ratios, flags = verdict_rule(beta, gamma, f0, f1, rat(a), rat(b))
    return {"beta": beta, "gamma": gamma, "verdict": verdict, "ratios": ratios, "flags": flags}


def _monotonicity(values) -> str:
    steps = [y - x for x, y in zip(values, values[1:])]
    if all(s > 0 for s in steps):
        return "strictly-increasing"
    if all(s >= 0 for s in steps):
        return "non-decreasing"
    return "non-monotone"


def _rationals(xs):
    return None if xs is None else [rat(x) for x in xs]


def check_existence(desc: dict, out: dict) -> list:
    """Check one existence output against independent computations.

    `desc` is the problem descriptor; `out` holds the report JSON under
    "report" and, when a basis was built, the basis JSON under "basis".
    """
    errs = []
    exps = desc["space"]["exponents"]
    a, b = rat(desc["space"]["a"]), rat(desc["space"]["b"])
    f0, f1 = parse_sparse(desc["f0"]), parse_sparse(desc["f1"])
    n = len(exps) - 1
    full = list(exps) == list(range(n + 1))
    rep, basis = out["report"], out.get("basis")

    numer = add(mul(deriv(f1), f0), scale(mul(f1, deriv(f0)), -1))
    strict = evaluate(numer, a) > 0 and evaluate(numer, b) > 0 and \
        sign_verdict(numer, a, b) == STRICTLY_POSITIVE
    want_cert = "strictly-increasing-ratio" if strict else "increasing-with-critical-points"
    if rep["ratio_certificate"] != want_cert:
        errs.append(f"ratio_certificate: expected {want_cert}, got {rep['ratio_certificate']}")

    truth = ("basis", classical_basis(n, a, b)) if full else span_basis(exps, a, b)
    if truth[0] == "refusal":
        _, index, kind, endpoint = truth
        nb = rep.get("no_basis")
        if rep["verdict"] != "no-nonneg-basis" or nb is None:
            return errs + [f"verdict: expected no-nonneg-basis refusal, got {rep['verdict']}"]
        for key, want in (("index", index), ("kind", kind), ("endpoint", endpoint)):
            if nb.get(key) != want:
                errs.append(f"no_basis.{key}: expected {want}, got {nb.get(key)}")
        if kind == "forced-extra-zero":
            errs += _check_witness(nb, exps, a, b, n)
        return errs

    elements = truth[1]
    if basis is None:
        return errs + [f"basis: missing although the span has a Bernstein basis ({rep['verdict']})"]
    got = [parse_sparse(t) for t in basis["elements"]]
    if len(got) != n + 1:
        return errs + [f"basis.elements: expected {n + 1} elements, got {len(got)}"]
    verdicts = []
    for k, (p, q) in enumerate(zip(got, elements)):
        if any(c and e not in exps for e, c in enumerate(p)):
            errs.append(f"basis.elements[{k}]: leaves the span")
        orders = (zero_order(p, a, k + 2), zero_order(p, b, n - k + 2))
        if orders != (k, n - k) or basis["zero_orders"][k] != [k, n - k]:
            errs.append(f"basis.zero_orders[{k}]: expected [{k}, {n - k}], measured {list(orders)}")
        if not proportional(p, q):
            errs.append(f"basis.elements[{k}]: not the Bernstein element of index {k}")
        v = sign_verdict(p, a, b)
        verdicts.append(v)
        if basis["classifications"][k]["verdict"] != v:
            errs.append(f"basis.classifications[{k}]: expected {v}, got "
                        f"{basis['classifications'][k]['verdict']}")
    if set(verdicts) <= {STRICTLY_POSITIVE}:
        positivity = "positive"
    elif set(verdicts) <= {STRICTLY_POSITIVE, NONNEG_INTERIOR_ZEROS}:
        positivity = "non-negative"
    else:
        positivity = "signed"
    if basis["positivity"] != positivity:
        errs.append(f"basis.positivity: expected {positivity}, got {basis['positivity']}")
    if positivity == "signed":
        if rep["verdict"] != "no-nonneg-basis" or rep["beta"] is not None:
            errs.append(f"verdict: expected no-nonneg-basis for a signed basis, got {rep['verdict']}")
        return errs
    unit = elements if full else normalized(elements)
    if (basis["grade"] == "normalized") != (unit is not None):
        errs.append(f"basis.grade: got {basis['grade']}, normalizable={unit is not None}")
    if unit is not None and got != unit:
        errs.append("basis.elements: partition of unity differs from the independent one")

    beta, gamma = _rationals(rep["beta"]), _rationals(rep["gamma"])
    for name, vec, f, fname in (("beta", beta, f0, "f0"), ("gamma", gamma, f1, "f1")):
        if vec is None or len(vec) != n + 1 or combination(vec, got) != f:
            errs.append(f"{name}: does not reconstruct {fname}")
        elif full and vec != blossom_coordinates(f, n, a, b):
            errs.append(f"{name}: differs from the blossoms at (a^(n-k), b^k)")
    if errs:
        return errs
    verdict, ratios, flags = verdict_rule(beta, gamma, f0, f1, a, b)
    if rep["verdict"] != verdict:
        errs.append(f"verdict: expected {verdict}, got {rep['verdict']}")
    if _rationals(rep["ratios"]) != ratios:
        errs.append("ratios: differ from gamma_k / beta_k")
    if rep["in_range"] != flags:
        errs.append(f"in_range: expected {flags}, got {rep['in_range']}")
    if ratios is None:
        return errs
    mono = _monotonicity(ratios)
    if rep["monotonicity"] != mono:
        errs.append(f"monotonicity: expected {mono}, got {rep['monotonicity']}")
    w = _rationals(rep["w"])
    if full and f0 == [1]:
        want = [n * (gamma[k + 1] - gamma[k]) / (b - a) for k in range(n)]
        if w != want:
            errs.append("w: differs from n (gamma_{k+1} - gamma_k) / (b - a)")
    if full and w is None:
        errs.append("w: missing for a full space")
    if w is not None:
        summary = ("all-positive" if all(x > 0 for x in w)
                   else "all-nonneg-some-zero" if all(x >= 0 for x in w) else "has-negative")
        if rep["w_summary"] != summary:
            errs.append(f"w_summary: expected {summary}, got {rep['w_summary']}")
        if rep["cross_check"] is not True:
            errs.append(f"cross_check: expected true, got {rep['cross_check']}")
    return errs


def _check_witness(nb, exps, a, b, n) -> list:
    k, endpoint = nb["index"], nb.get("endpoint")
    w = parse_sparse(nb.get("witness", ""))
    if not w or any(c and e not in exps for e, c in enumerate(w)):
        return ["no_basis.witness: not a nonzero element of the span"]
    need_a, need_b = k, n - k
    oa, ob = zero_order(w, a, need_a + 2), zero_order(w, b, need_b + 2)
    if oa < need_a or ob < need_b:
        return [f"no_basis.witness: orders ({oa}, {ob}) miss the conditions ({need_a}, {need_b})"]
    extra = oa > need_a if endpoint == "a" else ob > need_b
    if not extra:
        return [f"no_basis.witness: no extra zero at endpoint {endpoint}"]
    return []


# -- nodes, weights and CSV of the operator CLI ----------------------------------

def check_operator(desc: dict, tol: Fraction, samples: int, digits: int, run: dict) -> list:
    """Check one `operator` CLI run: exit code, JSON nodes/weights, text, CSV.

    `run` holds "rc", "stdout", "stderr" and the parsed --json payload under
    "json".  Only full spaces are used, so the closed forms apply.
    """
    exps = desc["space"]["exponents"]
    a, b = rat(desc["space"]["a"]), rat(desc["space"]["b"])
    f0, f1 = parse_sparse(desc["f0"]), parse_sparse(desc["f1"])
    n = len(exps) - 1
    truth = predict_full(n, a, b, f0, f1)
    if run["rc"] != 0:
        return [f"rc: expected 0, got {run['rc']}"]
    payload, errs = run["json"], []
    if payload.get("tol") != fmt(tol):
        errs.append(f"tol: expected {fmt(tol)}, got {payload.get('tol')}")
    nodes, weights = payload["nodes"], payload["weights"]
    if len(nodes) != n + 1 or len(weights) != n + 1:
        return errs + ["nodes: wrong count"]
    for k, (node, weight) in enumerate(zip(nodes, weights)):
        lo, hi = rat(node["lo"]), rat(node["hi"])
        g = add(f1, scale(f0, -truth["ratios"][k]))
        if not (a <= lo <= hi <= b) or hi - lo > tol:
            errs.append(f"nodes[{k}]: [{node['lo']}, {node['hi']}] is not within [a, b] at width <= tol")
            continue
        if lo == hi:
            if evaluate(g, lo) != 0:
                errs.append(f"nodes[{k}]: exact node is not a root of f1 - r_k f0")
        elif evaluate(g, lo) * evaluate(g, hi) >= 0:
            errs.append(f"nodes[{k}]: enclosure does not bracket a sign change")
        ends = {truth["beta"][k] / evaluate(f0, lo), truth["beta"][k] / evaluate(f0, hi)}
        w_lo, w_hi = ((rat(weight["lo"]), rat(weight["hi"])) if isinstance(weight, dict)
                      else (rat(weight), rat(weight)))
        if not all(w_lo <= e <= w_hi for e in ends):
            errs.append(f"weights[{k}]: does not contain beta_k / f0 at both node ends")
    order = sorted(range(n + 1), key=lambda k: (truth["ratios"][k], k))
    want = f"t{order[0]}" + "".join(
        (" = " if truth["ratios"][j] == truth["ratios"][i] else " < ") + f"t{j}"
        for i, j in zip(order, order[1:]))
    if payload.get("node_order") != want:
        errs.append(f"node_order: expected {want}, got {payload.get('node_order')}")

    report = (run["stderr"] if samples else run["stdout"]).splitlines()
    if len(report) != n + 3 or not report[0].startswith(f"nodes (tol {fmt(tol)})") \
            or report[-1] != f"node order: {want}":
        errs.append("report: node listing malformed")
    if samples:
        errs += _check_csv(run["stdout"].splitlines(), n, a, b, samples, digits)
    return errs


def _check_csv(lines, n, a, b, count, digits) -> list:
    if not lines or lines[0] != "x," + ",".join(f"p{n}_{k}" for k in range(n + 1)):
        return ["csv: header malformed"]
    if len(lines) != count + 1:
        return [f"csv: expected {count} rows, got {len(lines) - 1}"]
    steps = max(count - 1, 1)
    binom = [comb(n, k) for k in range(n + 1)]
    denom = steps ** n
    for i, line in enumerate(lines[1:]):
        # At u = i/steps the classical basis is C(n,k) i^k (steps-i)^(n-k) / steps^n.
        want = [round_half_away(a + (b - a) * Fraction(i, steps), digits)]
        want += [round_half_away(Fraction(binom[k] * i ** k * (steps - i) ** (n - k), denom), digits)
                 for k in range(n + 1)]
        if line != ",".join(want):
            return [f"csv: row {i} differs from the closed-form basis: {line!r}"]
    return []
