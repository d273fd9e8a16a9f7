"""Exact null spaces by fraction-free (Bareiss) elimination.

The library solves only homogeneous systems: a Bernstein basis element is
the null vector of its vanishing conditions.  Rows are scaled to integers
first; the Bareiss update keeps every intermediate entry an integer minor
of the input, which bounds coefficient blow-up compared with naive
rational elimination.  Null vectors come by back substitution on integers:
scaled by a pivot minor, each is an integer vector by Cramer's rule, so
every division is exact and no Fraction is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import IdentityViolation
from .rational import integer_form


@dataclass(frozen=True)
class LinearSolution:
    rank: int
    nullspace: tuple  # tuple of integer coordinate tuples, one per free column
    particular: None = None  # no particular solve; perfbench/tracing.py still reads it


def _exact_quotient(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise IdentityViolation("inexact division in fraction-free elimination")
    return q


def solve_linear(matrix: Sequence[Sequence]) -> LinearSolution:
    """Rank and a basis of the null space of matrix (rows of ints and
    Fractions), exactly, as integer vectors.

    Null vector i sets free column f_i to |D|, where D is the leading minor
    of the pivot columns left of f_i (1 when there are none), and the other
    free columns to 0.  It is the positive multiple by |D| of the vector
    whose free entry is 1.
    """
    n_cols = len(matrix[0]) if matrix else 0
    im = []
    for row in matrix:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        # Row-wise clear denominators: integer matrix, same solution set.
        im.append(integer_form(row)[1])
    n_rows = len(im)

    pivot_cols = []
    r = 0
    prev = 1
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if im[i][c] != 0), None)
        if pr is None:
            continue
        im[r], im[pr] = im[pr], im[r]
        top = im[r]
        pivot = top[c]
        # Entries left of column c are already zero in rows r and below.
        for row in im[r + 1:]:
            mic = row[c]
            for j in range(c + 1, n_cols):
                row[j] = _exact_quotient(row[j] * pivot - mic * top[j], prev)
            row[c] = 0
        prev = pivot
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    rank = r

    def null_vector(free: int) -> tuple:
        # Pivots left of the free column; the leading minor of their columns
        # is the pivot of the last of them.
        t = sum(1 for pc in pivot_cols if pc < free)
        minor = im[t - 1][pivot_cols[t - 1]] if t else 1
        x = [0] * n_cols
        x[free] = abs(minor)
        for i in range(t - 1, -1, -1):
            pc = pivot_cols[i]
            row = im[i]
            acc = -sum(row[c] * x[c] for c in range(pc + 1, free + 1) if row[c])
            x[pc] = _exact_quotient(acc, row[pc])
        return tuple(x)

    return LinearSolution(rank, tuple(null_vector(f) for f in range(n_cols)
                                      if f not in pivot_cols))
