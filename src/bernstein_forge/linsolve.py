"""Exact null spaces by fraction-free (Bareiss) elimination.

The library solves only homogeneous systems: a Bernstein basis element is
the null vector of its vanishing conditions.  Rows are scaled to integers
first; the Bareiss update keeps every intermediate entry an integer minor
of the input, which bounds coefficient blow-up compared with naive
rational elimination.  Null vectors are extracted by back substitution
over Fractions, so the results are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IdentityViolation
from .rational import as_rational, integer_form


@dataclass(frozen=True)
class LinearSolution:
    rank: int
    nullspace: tuple  # tuple of coordinate tuples, one per free column
    particular: None = None  # no particular solve; perfbench/tracing.py still reads it


def solve_linear(matrix: Sequence[Sequence]) -> LinearSolution:
    """Rank and a basis of the null space of matrix, exactly.

    Null vector i sets free column i to 1 and the other free columns to 0.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    rows = []
    for i in range(n_rows):
        row = [as_rational(x) for x in matrix[i]]
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        rows.append(row)

    # Row-wise clear denominators: integer matrix, same solution set.
    im = [integer_form(row)[1] for row in rows]

    pivot_cols = []
    r = 0
    prev = 1
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if im[i][c] != 0), None)
        if pr is None:
            continue
        im[r], im[pr] = im[pr], im[r]
        for i in range(r + 1, n_rows):
            mic = im[i][c]
            for j in range(n_cols):
                if j == c:
                    continue
                num = im[i][j] * im[r][c] - mic * im[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise IdentityViolation("Bareiss divisibility violated")
                im[i][j] = q
            im[i][c] = 0
        prev = im[r][c]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    rank = r

    def null_vector(free: int) -> tuple:
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for i in range(rank - 1, -1, -1):
            pc = pivot_cols[i]
            acc = Fraction(0)
            for c in range(pc + 1, n_cols):
                if im[i][c]:
                    acc -= im[i][c] * x[c]
            x[pc] = acc / im[i][pc]
        return tuple(x)

    return LinearSolution(rank, tuple(null_vector(f) for f in range(n_cols)
                                      if f not in pivot_cols))
