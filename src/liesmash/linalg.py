"""Dense exact linear algebra over the Gaussian rationals.

Vectors are tuples of GaussianRational; matrices are lists of such rows.
Everything here is deterministic: the reduced row echelon form is the
canonical representative of a row space, so two equal subspaces always
compare equal tuple-for-tuple.
"""

from __future__ import annotations

from .exactnum import ONE, ZERO

Vector = tuple

def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vector(x: Vector) -> bool:
    return all(not a for a in x)


def rref(rows) -> tuple[Vector, ...]:
    """Canonical reduced row echelon form; zero rows dropped.

    Zero entries are neither scaled nor subtracted from, which skips most of
    the work on sparse rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = ONE / mat[pivot_row][col]
        prow = mat[pivot_row] = [inv * v if v else v for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and (f := mat[r][col]):
                mat[r] = [a - f * b if b else a for a, b in zip(mat[r], prow)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row])


def inverse(rows):
    """The exact inverse of a square matrix, from one rref of [M | I], or
    None when M is singular.  Entries may be ints or Gaussian rationals;
    the inverse's are Gaussian rationals."""
    n = len(rows)
    red = rref([tuple(r) + unit_vector(n, i) for i, r in enumerate(rows)])
    if pivot_columns(red) != list(range(n)):
        return None
    return tuple(row[n:] for row in red)


def pivot_columns(echelon_rows) -> list[int]:
    cols = []
    for row in echelon_rows:
        for j, v in enumerate(row):
            if v:
                cols.append(j)
                break
    return cols


def reduce_mod(echelon_rows, pivots, x: Vector) -> Vector:
    """Residual of x after eliminating the pivot coordinates of the rows,
    given with their pivot_columns; zero entries of a row are skipped, as
    in rref."""
    res = list(x)
    for row, p in zip(echelon_rows, pivots):
        if f := res[p]:
            res = [a - f * b if b else a for a, b in zip(res, row)]
    return tuple(res)


def in_span(echelon_rows, pivots, x: Vector) -> bool:
    return is_zero_vector(reduce_mod(echelon_rows, pivots, x))


def solve_in_basis(basis_rows, x: Vector):
    """Coordinates of x in the given (independent) basis, or None.

    basis_rows need not be in echelon form; the system is solved exactly.
    """
    n = len(x)
    k = len(basis_rows)
    # augmented transpose system: sum_j c_j basis[j] = x
    aug = [[basis_rows[j][i] for j in range(k)] + [x[i]] for i in range(n)]
    red = [list(r) for r in rref(aug)]
    coeffs = [ZERO] * k
    for row in red:
        lead = next(j for j, v in enumerate(row) if v)   # rref drops zero rows
        if lead == k:
            return None  # inconsistent: x outside the span
        coeffs[lead] = row[k]
        # independence of basis_rows makes further checks unnecessary
    return tuple(coeffs)
