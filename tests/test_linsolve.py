from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_forge import NotInSpace, Polynomial, solve_linear
from bernstein_forge.rational import integer_form

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=10)


class Inconsistent(Exception):
    """The right-hand side lies outside the column space."""


def reference_solve(matrix, rhs) -> tuple:
    """Reference: a particular solution of matrix * x = rhs, free variables
    set to 0, by Bareiss elimination of the augmented integer matrix and back
    substitution; Inconsistent when there is none.  The library makes no
    particular solve; this is what `coordinates` is compared with."""
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    im = [integer_form([Fraction(x) for x in row] + [Fraction(v)])[1]
          for row, v in zip(matrix, rhs)]
    pivot_cols, r, prev = [], 0, 1
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if im[i][c] != 0), None)
        if pr is None:
            continue
        im[r], im[pr] = im[pr], im[r]
        for i in range(r + 1, n_rows):
            mic = im[i][c]
            for j in range(n_cols + 1):
                if j != c:
                    q, rem = divmod(im[i][j] * im[r][c] - mic * im[r][j], prev)
                    assert rem == 0, "Bareiss divisibility violated"
                    im[i][j] = q
            im[i][c] = 0
        prev = im[r][c]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    if any(im[i][n_cols] != 0 for i in range(r, n_rows)):
        raise Inconsistent("rhs outside column space")
    x = [Fraction(0)] * n_cols
    for i in range(r - 1, -1, -1):
        acc = Fraction(im[i][n_cols])
        for c in range(pivot_cols[i] + 1, n_cols):
            acc -= im[i][c] * x[c]
        x[pivot_cols[i]] = acc / im[i][pivot_cols[i]]
    return tuple(x)


def reference_nullspace(matrix) -> tuple:
    """Reference: a basis of the null space of matrix, one vector per free
    column with that column 1 and the other free columns 0, by Bareiss
    elimination and back substitution over Fractions."""
    n_cols = len(matrix[0]) if matrix else 0
    im = [integer_form([Fraction(x) for x in row])[1] for row in matrix]
    pivot_cols, r, prev = [], 0, 1
    for c in range(n_cols):
        pr = next((i for i in range(r, len(im)) if im[i][c] != 0), None)
        if pr is None:
            continue
        im[r], im[pr] = im[pr], im[r]
        for i in range(r + 1, len(im)):
            mic = im[i][c]
            for j in range(n_cols):
                if j != c:
                    q, rem = divmod(im[i][j] * im[r][c] - mic * im[r][j], prev)
                    assert rem == 0, "Bareiss divisibility violated"
                    im[i][j] = q
            im[i][c] = 0
        prev = im[r][c]
        pivot_cols.append(c)
        r += 1
        if r == len(im):
            break

    def null_vector(free):
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for i in range(r - 1, -1, -1):
            acc = Fraction(0)
            for c in range(pivot_cols[i] + 1, n_cols):
                acc -= im[i][c] * x[c]
            x[pivot_cols[i]] = acc / im[i][pivot_cols[i]]
        return tuple(x)

    return tuple(null_vector(f) for f in range(n_cols) if f not in pivot_cols)


def reference_coordinates(f: Polynomial, elements) -> tuple:
    """Reference: coordinates of f in a list of independent polynomials by
    `reference_solve` over their coefficient rows; NotInSpace when f is not
    in their span."""
    height = max([len(p.coeffs) for p in elements] + [len(f.coeffs), 1])
    matrix = [[p.coeff(i) for p in elements] for i in range(height)]
    try:
        return reference_solve(matrix, [f.coeff(i) for i in range(height)])
    except Inconsistent as exc:
        raise NotInSpace(f"{f.to_sparse()} is not in the span") from exc


def matvec(matrix, x):
    return [sum(Fraction(m) * v for m, v in zip(row, x)) for row in matrix]


def test_identity():
    assert reference_solve([[1, 0], [0, 1]], [1, 0]) == (1, 0)
    sol = solve_linear([[1, 0], [0, 1]])
    assert sol.rank == 2
    assert sol.nullspace == ()


def test_inconsistent_raises():
    with pytest.raises(Inconsistent):
        reference_solve([[1, 1], [2, 2]], [1, 3])


def test_rank_deficient_nullspace():
    sol = solve_linear([[1, 2, 3]])
    assert sol.rank == 1
    assert len(sol.nullspace) == 2
    for v in sol.nullspace:
        assert matvec([[1, 2, 3]], v) == [0]
    assert matvec([[1, 2, 3]], reference_solve([[1, 2, 3]], [6])) == [6]


def test_homogeneous_only():
    sol = solve_linear([[1, -1], [2, -2]])
    assert sol.particular is None
    assert len(sol.nullspace) == 1
    assert matvec([[1, -1]], sol.nullspace[0]) == [0]


def test_fractional_entries():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]]
    x = reference_solve(matrix, [Fraction(5, 6), Fraction(5, 4)])
    assert matvec(matrix, x) == [Fraction(5, 6), Fraction(5, 4)]


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_square_systems_reproduce_rhs(case):
    matrix, x_true = case
    rhs = matvec(matrix, x_true)
    # The reference solution reproduces rhs exactly (x itself may differ
    # when the matrix is singular; the residual check is the real contract).
    assert matvec(matrix, reference_solve(matrix, rhs)) == rhs
    for v in solve_linear(matrix).nullspace:
        assert matvec(matrix, v) == [0] * len(matrix)


@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=6)
)
@settings(max_examples=30, deadline=None)
def test_rank_nullity(matrix):
    sol = solve_linear(matrix)
    assert sol.rank + len(sol.nullspace) == 4
    for v in sol.nullspace:
        assert matvec(matrix, v) == [0] * len(matrix)


def assert_positive_multiples(matrix):
    """Every null vector of solve_linear is an integer vector and a positive
    multiple of the reference vector of its free column."""
    sol = solve_linear(matrix)
    reference = reference_nullspace(matrix)
    assert len(sol.nullspace) == len(reference)
    for v, ref in zip(sol.nullspace, reference):
        assert all(type(x) is int for x in v)
        free = max(i for i, x in enumerate(ref) if x)  # only pivots left of it are non-zero
        assert ref[free] == 1
        assert v[free] > 0
        assert v == tuple(v[free] * x for x in ref)


@pytest.mark.parametrize("matrix", [
    [[-1, 2, 0]],  # pivot minor -1 before free columns 1 and 2
    [[0, -3, 1]],  # a zero column before the pivot
    [[1, 2, 3], [2, 1, 3]],  # leading minor 1 - 4 = -3
    [[2, 4, 6], [1, 2, 5]],  # a free column between the pivots
    [[Fraction(-1, 2), Fraction(1, 3), 1], [1, 1, 1]],
])
def test_negative_and_fractional_pivot_minors(matrix):
    assert_positive_multiples(matrix)


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.integers(1, 5).flatmap(lambda w: st.lists(
    st.lists(st.one_of(small_ints, rationals), min_size=w, max_size=w),
    min_size=1, max_size=5)))
@settings(max_examples=300, deadline=None)
def test_null_vectors_are_positive_integer_multiples_of_the_reference(matrix):
    assert_positive_multiples(matrix)
