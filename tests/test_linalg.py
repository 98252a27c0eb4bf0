"""Canonical echelon forms over the Gaussian rationals."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liesmash.exactnum import GaussianRational, ONE, ZERO
from liesmash.linalg import (
    in_span, inverse, pivot_columns, reduce_mod, rref, solve_in_basis,
    unit_vector,
)


def vector(values):
    return tuple(GaussianRational(v) for v in values)

small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=5)
small_scalars = st.builds(GaussianRational, small_rats, small_rats)


def rows_strategy(ncols=4, max_rows=4):
    row = st.tuples(*([small_scalars] * ncols))
    return st.lists(row, min_size=1, max_size=max_rows)


def test_rref_known():
    rows = [vector([0, 1, 2]), vector([1, 1, 1])]
    red = rref(rows)
    assert red == (vector([1, 0, -1]), vector([0, 1, 2]))
    assert pivot_columns(red) == [0, 1]


def test_rref_zero_rows_dropped():
    assert rref([vector([0, 0])]) == ()


@given(rows_strategy())
def test_rref_idempotent(rows):
    red = rref(rows)
    assert rref(red) == red


@given(rows_strategy(), small_scalars)
def test_rref_canonical_under_row_ops(rows, c):
    base = rref(rows)
    # appending a linear combination of existing rows never changes the rref
    combo = tuple(sum((c * r[i] for r in rows), ZERO) for i in range(len(rows[0])))
    assert rref(list(rows) + [combo]) == base


@given(rows_strategy())
def test_membership_of_generators(rows):
    red = rref(rows)
    for r in rows:
        assert in_span(red, pivot_columns(red), r)
        assert not any(reduce_mod(red, pivot_columns(red), r))


def test_solve_in_basis():
    basis = [vector([1, 0, 1]), vector([0, 1, 1])]
    x = vector([2, 3, 5])
    coords = solve_in_basis(basis, x)
    assert coords == (GaussianRational(2), GaussianRational(3))
    assert solve_in_basis(basis, vector([0, 0, 1])) is None


@given(st.lists(st.tuples(*([small_scalars] * 3)), min_size=3, max_size=3))
def test_inverse_is_exact_or_none(rows):
    inv = inverse(rows)
    if inv is None:
        assert len(rref(rows)) < 3
        return
    product = [tuple(sum((a * b for a, b in zip(row, col)), ZERO)
                     for col in zip(*inv)) for row in rows]
    assert product == [unit_vector(3, i) for i in range(3)]


def test_inverse_of_integer_matrices():
    assert inverse([[2, 1], [1, 1]]) == (vector([1, -1]), vector([-1, 2]))
    assert inverse([[1, 1], [1, 1]]) is None
    assert inverse([]) == ()


def test_unit_vectors():
    assert unit_vector(3, 1) == (ZERO, ONE, ZERO)


def _dense_rref(rows):
    """rref as it was before zero entries were skipped: every entry of a row
    is scaled and every entry of a reduced row subtracted."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    pivot_row = 0
    for col in range(len(mat[0])):
        pr = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = ONE / mat[pivot_row][col]
        mat[pivot_row] = [inv * v for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row])


def _dense_reduce_mod(echelon_rows, x):
    res = list(x)
    for row, p in zip(echelon_rows, pivot_columns(echelon_rows)):
        if res[p]:
            f = res[p]
            res = [a - f * b for a, b in zip(res, row)]
    return tuple(res)


def _sparse_rows(seed, count, ncols=5):
    """Seeded rows, most entries zero, the rest Gaussian with non-unit parts."""
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.5:
            return ZERO
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                Fraction(rng.choice((0, 0, 1, -3)), rng.randint(1, 3)))
    return [tuple(entry() for _ in range(ncols)) for _ in range(count)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_zero_skipping_matches_the_dense_elimination(seed, count):
    *rows, x = _sparse_rows(seed, count + 1)
    red = rref(rows)
    assert red == _dense_rref(rows)
    assert reduce_mod(red, pivot_columns(red), x) == _dense_reduce_mod(red, x)
