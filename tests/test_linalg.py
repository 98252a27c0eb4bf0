"""Canonical echelon forms over the Gaussian rationals."""

from hypothesis import given, strategies as st

from liesmash.exactnum import GaussianRational, ONE, ZERO
from liesmash.linalg import (
    in_span, pivot_columns, reduce_mod, rref, solve_in_basis, unit_vector,
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
        assert in_span(red, r)
        assert not any(reduce_mod(red, r))


def test_solve_in_basis():
    basis = [vector([1, 0, 1]), vector([0, 1, 1])]
    x = vector([2, 3, 5])
    coords = solve_in_basis(basis, x)
    assert coords == (GaussianRational(2), GaussianRational(3))
    assert solve_in_basis(basis, vector([0, 0, 1])) is None


def test_unit_vectors():
    assert unit_vector(3, 1) == (ZERO, ONE, ZERO)
