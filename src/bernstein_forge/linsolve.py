"""Exact linear solving by fraction-free (Bareiss) elimination.

Rows are scaled to integers first; the Bareiss update keeps every
intermediate entry an integer minor of the input, which bounds coefficient
blow-up compared with naive rational elimination.  Solutions are extracted
by back substitution over Fractions, so the results are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import IdentityViolation, InconsistentSystem
from .rational import as_rational, integer_form


@dataclass(frozen=True)
class LinearSolution:
    rank: int
    particular: Optional[tuple]  # None when no rhs was given
    nullspace: tuple  # tuple of coordinate tuples, one per free column


def solve_linear(matrix: Sequence[Sequence], rhs: Optional[Sequence] = None) -> LinearSolution:
    """Solve matrix * x = rhs exactly (or analyze the homogeneous system).

    Returns rank, a particular solution (free variables set to 0) when a
    right-hand side is given, and a basis of the null space.  Raises
    InconsistentSystem when rhs lies outside the column space.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    rows = []
    for i in range(n_rows):
        row = [as_rational(x) for x in matrix[i]]
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        if rhs is not None:
            row.append(as_rational(rhs[i]))
        rows.append(row)
    width = n_cols + (1 if rhs is not None else 0)

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
            for j in range(width):
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

    if rhs is not None:
        for i in range(rank, n_rows):
            if im[i][n_cols] != 0:
                raise InconsistentSystem("rhs outside column space")

    free_cols = [c for c in range(n_cols) if c not in pivot_cols]

    def back_sub(assign: dict, targets) -> tuple:
        x = [Fraction(0)] * n_cols
        for c, v in assign.items():
            x[c] = Fraction(v)
        for i in range(rank - 1, -1, -1):
            pc = pivot_cols[i]
            acc = Fraction(targets[i]) if targets is not None else Fraction(0)
            for c in range(pc + 1, n_cols):
                if im[i][c]:
                    acc -= im[i][c] * x[c]
            x[pc] = acc / im[i][pc]
        return tuple(x)

    particular = None
    if rhs is not None:
        particular = back_sub({}, [im[i][n_cols] for i in range(rank)])

    nullspace = tuple(back_sub({f: 1}, None) for f in free_cols)
    return LinearSolution(rank, particular, nullspace)
