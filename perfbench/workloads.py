"""Seeded problem lists for the two workloads.

A workload is a fixed list of PASS_SIZE problem slots.  Each slot draws
its problem from a random stream of its own, "<workload>/slot/<i>": space,
interval, f0 and f1, and with them the work.  The seed then draws, per
slot, a change that leaves that work in place (`_reshape`), and the order
of the pass.  Drawn from the seed, endpoints and coefficients moved one
slot's time up to 3.6-fold between seeds: an operator on [-3/4, 0] with
f1 = x^5 took 64 ms, one on [3/2, 13/4] with f1 = x^5 + 3/2 x^3 229 ms.

That operators exist is predicted with the closed forms in `oracles`,
never with bernstein_forge.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles

PASS_SIZE = 32
WORKLOADS = ("certify-gap", "operator-cli")


def _sparse(p) -> str:
    return ",".join(f"{i}:{oracles.fmt(c)}" for i, c in enumerate(p) if c) or "0:0"


def _descriptor(exponents, a, b, f0, f1) -> dict:
    return {
        "space": {"exponents": list(exponents), "a": oracles.fmt(a), "b": oracles.fmt(b)},
        "f0": _sparse(f0),
        "f1": _sparse(f1),
    }


def _interval(rng, kind):
    """Endpoints of one interval class; bit sizes stay within the class."""
    if kind == "shifted":  # integer endpoints, often away from 0
        a = Fraction(rng.choice([-2, -1, 0, 1, 2]))
        return a, a + rng.choice([1, 2, 3])
    if kind == "dyadic":
        a = Fraction(rng.choice([-3, -1, 1, 3]), rng.choice([2, 4]))
        return a, a + Fraction(rng.choice([3, 5, 7]), rng.choice([2, 4]))
    if kind == "non-dyadic":
        a = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([3, 5, 7]))
        return a, a + Fraction(rng.choice([4, 5, 8]), rng.choice([3, 5, 7]))
    raise ValueError(kind)


def _positive_f0(rng, kind, a, b):
    """1, or a linear or quadratic polynomial that is positive on [a, b]."""
    if kind == "one":
        return [Fraction(1)]
    if kind == "linear":  # c (x - a) + d with c, d > 0
        c, d = Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 4))
        return [d - c * a, c]
    if kind != "quadratic":
        raise ValueError(kind)
    m = a + (b - a) * Fraction(rng.randint(1, 7), 8)
    eps = (b - a) ** 2 * Fraction(rng.randint(1, 4), 4)
    return [m * m + eps, -2 * m, Fraction(1)]


def _increasing(rng, kind):
    """g with g' >= 0 everywhere and isolated zeros."""
    if kind == "linear":
        return [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3))]
    if kind == "cubic":  # x^3 + c x with c >= 0
        return [Fraction(0), Fraction(rng.randint(0, 3), rng.randint(1, 2)), Fraction(0), Fraction(1)]
    if kind == "quintic":  # x^5 + c x^3 + d x with c, d >= 0
        return [Fraction(0), Fraction(rng.randint(0, 2)), Fraction(0),
                Fraction(rng.randint(0, 3), 2), Fraction(0), Fraction(1)]
    raise ValueError(kind)


def _mirror(p):
    """p(-x)."""
    return [-c if k % 2 else c for k, c in enumerate(p)]


def _reshape(rng, affine, exponents, a, b, f0, f1) -> dict:
    """The seed's draw for one slot: an equivalent problem of the same cost.

    With probability 1/2 the mirror image x -> -x: [a, b] -> [-b, -a],
    f0 -> f0(-x), f1 -> -f1(-x), which keeps f1/f0 increasing and maps a
    span of monomials onto itself.  If `affine`, then f1 -> lam f1 + mu f0
    with lam > 0, which turns the ratio g = f1/f0 into lam g + mu and so
    keeps every node t_k, every weight and the verdict.  Operators are not
    given the affine change: it changes the integers whose divisors
    `rational_roots` tries, and with them one slot's time up to 1.7-fold.
    """
    if rng.random() < 0.5:
        a, b, f0, f1 = -b, -a, _mirror(f0), [-c for c in _mirror(f1)]
    if affine:
        lam, mu = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])), Fraction(rng.randint(-3, 3))
        f1 = oracles.add([lam * c for c in f1], [mu * c for c in f0])
    return _descriptor(exponents, a, b, f0, f1)


def _gap_problem(rng, i):
    """Sparse gap span: a dense low block, one middle exponent and a top exponent.

    Slot classes, by i mod 10: 0 = symmetric interval with even high
    exponents (refusal with a forced extra zero); 1 = interval straddling 0
    (signed basis or exists); otherwise a positive interval, where every
    element is certified by Sturm chains of degree up to the top exponent.
    """
    cls = i % 10
    low = [[0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 2]][i % 4]
    top = 20 + (i * 7) % 15  # 20..34, spread evenly over the slots
    if cls == 0:
        low = [0, 1, 2] if i % 20 else [0, 1, 2, 3]
        mid = 2 * rng.randint(3, 6)
        top += top % 2
        c = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
        a, b = -c, c
    elif cls == 1:
        low = [0, 1, 2]
        mid = 6 + 2 * ((i // 10) % 4)
        top += top % 2
        a = -Fraction(rng.choice([1, 2]), rng.choice([2, 3]))
        b = Fraction(1)
    else:
        mid = low[-1] + 3 + (i // 10) % 4  # the middle exponent doubles the cost over this range
        a, b = [(Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(2)),
                (Fraction(1, 3), Fraction(3, 2)), (Fraction(2, 3), Fraction(4, 3)),
                (Fraction(1, 4), Fraction(3, 2)), (Fraction(3, 4), Fraction(7, 4))][i % 6]
    exps = low + [mid, top]
    if a < 0:  # f1 must be increasing across 0: an odd power in the span
        f0 = [Fraction(1)]
        e = next(e for e in exps if e % 2)
    elif 2 in low and i % 3 == 0 and top <= 28:  # positive quadratic f0, non-negative coefficients
        f0 = [Fraction(1 + (i // 3) % 3), Fraction((i // 9) % 2 if 1 in low else 0),
              Fraction(1 + (i // 2) % 2, 2)]  # fixed per slot: these coefficients move the cost
        e = rng.choice([mid, top, 2])
    else:
        f0 = [Fraction(1)]
        e = rng.choice([x for x in exps if x > 0])
    f1 = [Fraction(0)] * e + [Fraction(1)]
    return exps, a, b, f0, f1


def _operator_problem(rng, i):
    """Full space of order 6..10, nonlinear g so most nodes are irrational."""
    n = (6, 7, 8, 9, 6, 7, 8, 9, 10, 8)[i % 10]
    for _ in range(500):
        a, b = _interval(rng, ("shifted", "dyadic", "non-dyadic")[i % 3])
        f0 = _positive_f0(rng, "linear" if i % 20 == 3 else "quadratic" if i % 20 == 16 else "one", a, b)
        g = _increasing(rng, "linear" if i % 10 == 7 else ("cubic", "quintic")[(i // 10) % 2])
        f1 = oracles.mul(f0, g)
        if len(f1) <= n + 1 and oracles.predict_full(n, a, b, f0, f1)["verdict"] == "exists":
            return range(n + 1), a, b, f0, f1
    raise RuntimeError(f"no operator problem found for slot {i}")


def operator_options(i) -> tuple:
    """(tolerance exponent, CSV sample count) of operator slot i.

    Most slots print no CSV.  The 12 others spread their sample counts
    geometrically from 51 to 1001, so the costliest slots of a pass form a
    continuum of sizes, not a few groups of equal cost.
    """
    tol_exp = 30 + 10 * ((3 * i) % 8)
    if i % 10 < 6:
        return tol_exp, 0
    rank = 5 * ((i // 10) * 4 + i % 10 - 6) % 12
    return tol_exp, round(51 * (1001 / 51) ** (rank / 11))


def make(workload: str, seed: int) -> list:
    """The workload's problem descriptors for this seed, in pass order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    operators = workload == "operator-cli"
    rng = random.Random(f"{workload}/{seed}")
    problems = []
    for i in range(PASS_SIZE):
        slot_rng = random.Random(f"{workload}/slot/{i}")
        base = _operator_problem(slot_rng, i) if operators else _gap_problem(slot_rng, i)
        desc = _reshape(rng, not operators, *base)
        if operators:
            space = desc["space"]
            n, a, b = len(space["exponents"]) - 1, Fraction(space["a"]), Fraction(space["b"])
            f0, f1 = (oracles.parse_sparse(desc[k]) for k in ("f0", "f1"))
            if oracles.predict_full(n, a, b, f0, f1)["verdict"] != "exists":
                raise RuntimeError(f"operator slot {i} lost its verdict under the seed's change")
        problems.append(desc)
    order = list(range(len(problems)))
    rng.shuffle(order)  # mix sizes so no stretch of the pass is all-large
    return [problems[k] | {"slot": k} for k in order]
