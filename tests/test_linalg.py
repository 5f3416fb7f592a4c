from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glv.linalg import (
    NoSolutionError,
    RatMatrix,
    hstack,
    kernel_basis,
    kron,
    left_inverse,
    rank,
    right_inverse,
    rref,
    solve,
    try_solve,
    unvec,
    vec,
    vstack,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
# Zeros and small entries as often as wide ones, so that elimination meets
# pivots in every position and updates of rows that are zero in the pivot
# column.
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw, max_dim=6, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(0, max_dim))
    c = cols if cols is not None else draw(st.integers(0, max_dim))
    ent = draw(st.tuples(*([rationals] * (r * c))))
    return RatMatrix(r, c, tuple(Fraction(x) for x in ent))


def _wide(draw, rows, cols):
    return RatMatrix(rows, cols, draw(st.tuples(*([wide_rationals] * (rows * cols)))))


@st.composite
def wide_matrices(draw, max_dim):
    """Wide entries, some rows, columns and entries zeroed, and products
    A @ B with a small inner dimension, so that the rank often falls short."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        m = _wide(draw, r, k) @ _wide(draw, k, c)
    else:
        m = _wide(draw, r, c)
    cells = [(i, j) for i in range(r) for j in range(c)]
    zero_rows = draw(st.sets(st.integers(0, r - 1))) if r else set()
    zero_cols = draw(st.sets(st.integers(0, c - 1))) if c else set()
    zeros = draw(st.sets(st.sampled_from(cells))) if cells else set()
    ent = tuple(
        Fraction(0) if i in zero_rows or j in zero_cols or (i, j) in zeros else m.entry(i, j)
        for i, j in cells
    )
    return RatMatrix(r, c, ent)


def reference_rank(m):
    # Plain Gaussian elimination over Fraction, independent of linalg.
    rows = m.to_lists()
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_example():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_example():
    m = RatMatrix.from_rows([[1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert (m @ k).is_zero
    # spans the line through (1, -1)
    assert k.entry(0, 0) * (-1) == k.entry(1, 0)
    assert k.entry(1, 0) != 0


def test_left_inverse_example():
    m = RatMatrix.from_rows([[1], [0]])
    li = left_inverse(m)
    assert li == RatMatrix.from_rows([[1, 0]])


def test_right_inverse_example():
    m = RatMatrix.from_rows([[1, 1]])
    ri = right_inverse(m)
    assert ri == RatMatrix.from_rows([[1], [0]])


def test_solve_inconsistent():
    m = RatMatrix.from_rows([[1, 1], [1, 1]])
    b = RatMatrix.column([0, 1])
    with pytest.raises(NoSolutionError):
        solve(m, b)
    assert try_solve(m, b) is None


def test_zero_dimensional_shapes():
    a = RatMatrix.zeros(0, 3)
    b = RatMatrix.zeros(3, 0)
    assert (a @ a.transpose()) == RatMatrix.zeros(0, 0)
    assert (b @ a) == RatMatrix.zeros(3, 3)
    assert rank(a) == 0
    assert kernel_basis(a).cols == 3
    assert solve(a, RatMatrix.zeros(0, 2)) == RatMatrix.zeros(3, 2)
    assert left_inverse(RatMatrix.zeros(3, 0)) == RatMatrix.zeros(0, 3)
    assert right_inverse(RatMatrix.zeros(0, 3)) == RatMatrix.zeros(3, 0)


def test_stacking():
    a = RatMatrix.from_rows([[1, 2]])
    b = RatMatrix.from_rows([[3, 4]])
    assert vstack(a, b) == RatMatrix.from_rows([[1, 2], [3, 4]])
    assert hstack(a, b) == RatMatrix.from_rows([[1, 2, 3, 4]])


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent_and_rank(m):
    r, pivots = rref(m)
    assert len(pivots) == rank(m)
    r2, pivots2 = rref(r)
    assert r2 == r and pivots2 == pivots


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_is_annihilated_and_independent(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero
    assert rank(k) == k.cols
    assert rank(m) + k.cols == m.cols


@given(matrices(max_dim=4), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_postcondition(m, data):
    x = data.draw(matrices(rows=m.cols, cols=2))
    b = m @ x
    got = solve(m, b)
    assert m @ got == b


def test_rank_rescales_rows_that_are_zero_in_the_pivot_column():
    # Bareiss's exact division needs every row below a pivot updated; row 2
    # is zero in column 0 and must still be rescaled there.
    m = RatMatrix.from_rows([[-1, 0, 0, "1/3"], ["-2/3", -1, 0, 0], [0, "1/3", 0, 0]])
    assert rank(m) == reference_rank(m) == 3


@given(wide_matrices(6))
@settings(max_examples=400, deadline=None)
def test_rank_on_wide_rationals_matches_elimination(m):
    assert rank(m) == reference_rank(m)
    assert rank(m.transpose()) == rank(m)


@given(wide_matrices(5), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_on_wide_rationals_leaves_free_coordinates_zero(m, data):
    k = data.draw(st.integers(0, 3))
    b = m @ _wide(data.draw, m.cols, k)
    got = solve(m, b)
    assert m @ got == b
    _, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    assert all(got.entry(c, j) == 0 for c in free for j in range(k))


@given(matrices(max_dim=4))
@settings(max_examples=150, deadline=None)
def test_one_sided_inverses(m):
    if rank(m) == m.cols:
        assert left_inverse(m) @ m == RatMatrix.identity(m.cols)
    else:
        with pytest.raises(ValueError):
            left_inverse(m)
    if rank(m) == m.rows:
        assert m @ right_inverse(m) == RatMatrix.identity(m.rows)
    else:
        with pytest.raises(ValueError):
            right_inverse(m)


@given(matrices(max_dim=3), matrices(max_dim=3), st.data())
@settings(max_examples=80, deadline=None)
def test_kron_vec_identity(a, b, data):
    # vec(A X B) = (A kron B^T) vec(X), row-major vec
    x = data.draw(matrices(rows=a.cols, cols=b.rows))
    lhs = vec(a @ x @ b)
    rhs = kron(a, b.transpose()) @ vec(x)
    assert lhs == rhs
    assert unvec(lhs, a.rows, b.cols) == a @ x @ b


def test_determinism_bit_exact():
    m = RatMatrix.from_rows([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    assert rref(m) == rref(m)
    assert kernel_basis(m).entries == kernel_basis(m).entries
