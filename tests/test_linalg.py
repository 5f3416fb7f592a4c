from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glv.linalg import (
    NoSolutionError,
    RatMatrix,
    basis_completion,
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
def wide_matrices(draw, max_dim, rows=None, cols=None):
    """Wide entries, some rows, columns and entries zeroed, and products
    A @ B with a small inner dimension, so that the rank often falls short."""
    r = rows if rows is not None else draw(st.integers(0, max_dim))
    c = cols if cols is not None else draw(st.integers(0, max_dim))
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


# Reference implementations over Fraction: the bodies linalg had before its
# kernel moved to integer numerators.  Each returns (rows, cols, entries).


def reference_matmul(x, y):
    n, m, k = x.rows, x.cols, y.cols
    a, b = x.entries, y.entries
    out = [Fraction(0)] * (n * k)
    for i in range(n):
        for t in range(m):
            ait = a[i * m + t]
            if ait == 0:
                continue
            for j in range(k):
                out[i * k + j] += ait * b[t * k + j]
    return n, k, tuple(out)


def reference_reduce(a, ncols):
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = 1 / a[r][c]
        a[r][c:] = [x * inv for x in a[r][c:]]
        tail = a[r][c:]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f != 0:
                row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


def reference_rref(m):
    a = m.to_lists()
    pivots = reference_reduce(a, m.cols)
    return (m.rows, m.cols, tuple(x for row in a for x in row)), tuple(pivots)


def reference_kernel_basis(m):
    a = m.to_lists()
    pivots = reference_reduce(a, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    ent = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for idx, f in enumerate(free):
        ent[f][idx] = Fraction(1)
        for i, p in enumerate(pivots):
            ent[p][idx] = -a[i][f]
    return m.cols, len(free), tuple(x for row in ent for x in row)


def reference_basis_completion(m):
    a = [row + [Fraction(int(i == j)) for j in range(m.rows)] for i, row in enumerate(m.to_lists())]
    picked = [p - m.cols for p in reference_reduce(a, m.cols + m.rows) if p >= m.cols]
    return m.rows, len(picked), tuple(Fraction(int(i == j)) for i in range(m.rows) for j in picked)


def reference_solve(m, b):
    """None where the system has no solution."""
    a = [list(m.row(i) + b.row(i)) for i in range(m.rows)]
    pivots = reference_reduce(a, m.cols)
    if any(x != 0 for row in a[len(pivots) :] for x in row[m.cols :]):
        return None
    ent = [[Fraction(0)] * b.cols for _ in range(m.cols)]
    for row, p in zip(a, pivots):
        ent[p] = row[m.cols :]
    return m.cols, b.cols, tuple(x for row in ent for x in row)


def reference_kron(a, b):
    ent = tuple(
        a.entry(i, j) * b.entry(p, q)
        for i in range(a.rows)
        for p in range(b.rows)
        for j in range(a.cols)
        for q in range(b.cols)
    )
    return a.rows * b.rows, a.cols * b.cols, ent


def assert_canonical(m):
    assert type(m.den) is int and m.den > 0
    assert len(m.nums) == m.rows * m.cols
    assert all(type(x) is int for x in m.nums)
    assert gcd(m.den, *m.nums) == 1


def assert_matches(got, want):
    """got equals the reference (rows, cols, entries) in value and type."""
    assert_canonical(got)
    assert (got.rows, got.cols) == want[:2]
    assert got.entries == want[2]
    assert all(type(x) is Fraction for x in got.entries)


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
    # Row 2 is zero in column 0, so no update for that pivot touches it; it
    # must still come out right once column 1 is reduced.
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


def test_public_constructor_rejects_non_rational_entries():
    with pytest.raises(TypeError):
        RatMatrix(1, 1, (0.5,))
    with pytest.raises(TypeError):
        RatMatrix(1, 2, (1, None))
    with pytest.raises(ValueError):
        RatMatrix(1, 1, ("x",))
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[1, 2.0]])
    with pytest.raises(TypeError):
        RatMatrix.column([0.25])
    m = RatMatrix(1, 3, (1, "1/2", Fraction(-2, 4)))
    assert m.entries == (1, Fraction(1, 2), Fraction(-1, 2))
    assert (m.nums, m.den) == ((2, 1, -1), 2)


def test_matrices_are_immutable():
    m = RatMatrix.identity(2)
    for name in ("rows", "cols", "nums", "den", "entries"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))


@given(wide_matrices(4), wide_rationals, st.data())
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_the_fraction_reference(a, c, data):
    r, k = a.rows, a.cols
    e = a.entries
    b = data.draw(wide_matrices(4, rows=r, cols=k))
    assert_matches(a + b, (r, k, tuple(x + y for x, y in zip(e, b.entries))))
    assert_matches(a - b, (r, k, tuple(x - y for x, y in zip(e, b.entries))))
    assert_matches(-a, (r, k, tuple(-x for x in e)))
    assert_matches(a.scale(c), (r, k, tuple(c * x for x in e)))
    assert_matches(a.transpose(), (k, r, tuple(a.entry(i, j) for j in range(k) for i in range(r))))
    other = data.draw(wide_matrices(4, cols=data.draw(st.integers(0, 3)), rows=k))
    assert_matches(a @ other, reference_matmul(a, other))
    small = data.draw(wide_matrices(2))
    assert_matches(kron(a, small), reference_kron(a, small))
    left = data.draw(wide_matrices(3, rows=r))
    assert_matches(
        hstack(a, left),
        (r, k + left.cols, tuple(x for i in range(r) for x in a.row(i) + left.row(i))),
    )
    top = data.draw(wide_matrices(3, cols=k))
    assert_matches(vstack(top, a), (top.rows + r, k, top.entries + e))
    r0, r1 = sorted(data.draw(st.tuples(st.integers(0, r), st.integers(0, r))))
    c0, c1 = sorted(data.draw(st.tuples(st.integers(0, k), st.integers(0, k))))
    block = tuple(a.entry(i, j) for i in range(r0, r1) for j in range(c0, c1))
    assert_matches(a.block(r0, r1, c0, c1), (r1 - r0, c1 - c0, block))
    assert_matches(vec(a), (r * k, 1, e))
    assert_matches(unvec(vec(a), r, k), (r, k, e))


def _check_elimination(m, b):
    want, want_pivots = reference_rref(m)
    got, pivots = rref(m)
    assert_matches(got, want)
    assert pivots == want_pivots
    assert_matches(kernel_basis(m), reference_kernel_basis(m))
    assert_matches(basis_completion(m), reference_basis_completion(m))
    want = reference_solve(m, b)
    if want is None:
        with pytest.raises(NoSolutionError):
            solve(m, b)
    else:
        assert_matches(solve(m, b), want)


@given(wide_matrices(5), st.data())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_the_fraction_reference(m, data):
    k = data.draw(st.integers(0, 3))
    x = data.draw(wide_matrices(3, rows=m.cols, cols=k))
    _check_elimination(m, m @ x)
    _check_elimination(m, data.draw(wide_matrices(3, rows=m.rows, cols=k)))


@pytest.mark.parametrize(
    "rows, b",
    [
        # negative pivots, full rank
        ([[-2, 1, 0], [1, -3, 1], [0, 1, "-1/2"]], [[1], [-1], ["2/3"]]),
        # negative pivots, rank deficient, consistent and not
        ([[-3, 6, "-3/2"], [2, -4, 1]], [[3, 0], [-2, 1]]),
        ([[0, "-1/3", 2], [0, "2/3", -4], [0, 0, 0]], [["1/3"], ["-2/3"], [0]]),
    ],
)
def test_elimination_examples_match_the_fraction_reference(rows, b):
    _check_elimination(RatMatrix.from_rows(rows), RatMatrix.from_rows(b))


@pytest.mark.parametrize("r, c, k", [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 2, 0)])
def test_elimination_on_empty_shapes_matches_the_fraction_reference(r, c, k):
    _check_elimination(RatMatrix.zeros(r, c), RatMatrix.zeros(r, k))


@given(wide_matrices(4), st.data())
@settings(max_examples=150, deadline=None)
def test_equal_matrices_built_along_different_paths_are_equal(m, data):
    r, c = m.rows, m.cols
    i = data.draw(st.integers(0, r))
    j = data.draw(st.integers(0, c))
    same = [
        m.scale(2).scale(Fraction(1, 2)),
        (m + m).scale(Fraction(1, 2)),
        m - m + m,
        m.transpose().transpose(),
        hstack(m.block(0, r, 0, j), m.block(0, r, j, c)),
        vstack(m.block(0, i, 0, c), m.block(i, r, 0, c)),
        unvec(vec(m), r, c),
        RatMatrix.identity(r) @ m @ RatMatrix.identity(c),
        RatMatrix(r, c, m.entries),
    ]
    for x in [m] + same:
        assert_canonical(x)
    for x in same:
        assert x == m and hash(x) == hash(m)
    assert m - m == RatMatrix.zeros(r, c) and hash(m - m) == hash(RatMatrix.zeros(r, c))
