"""Exact dense linear algebra over the rationals.

Matrices are immutable, row-major tuples of ``fractions.Fraction``.  Zero-row
and zero-column matrices are legal and stand for maps in or out of the zero
space.  Every routine is deterministic: pivots are chosen left to right, top
to bottom, and free coordinates of solutions are set to zero, so equal inputs
produce bit-equal outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class NoSolutionError(Exception):
    """The linear system has no solution."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


@dataclass(frozen=True)
class RatMatrix:
    """A rows x cols matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> RatMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return RatMatrix(rows, cols, tuple(_rat(x) for row in data for x in row))

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMatrix:
        return RatMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> RatMatrix:
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return RatMatrix(n, n, tuple(ent))

    @staticmethod
    def column(values: Sequence) -> RatMatrix:
        vals = tuple(_rat(x) for x in values)
        return RatMatrix(len(vals), 1, vals)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def transpose(self) -> RatMatrix:
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return RatMatrix(self.cols, self.rows, ent)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return RatMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> RatMatrix:
        return RatMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> RatMatrix:
        c = _rat(c)
        return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [Fraction(0)] * (n * k)
        for i in range(n):
            for t in range(m):
                ait = a[i * m + t]
                if ait == 0:
                    continue
                base = t * k
                row = i * k
                for j in range(k):
                    out[row + j] += ait * b[base + j]
        return RatMatrix(n, k, tuple(out))


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    ent: list[Fraction] = []
    for i in range(rows):
        for m in mats:
            ent.extend(m.row(i))
    return RatMatrix(rows, sum(m.cols for m in mats), tuple(ent))


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    ent: list[Fraction] = []
    for m in mats:
        ent.extend(m.entries)
    return RatMatrix(sum(m.rows for m in mats), cols, tuple(ent))


def _reduce(a: list[list[Fraction]], ncols: int) -> list[int]:
    # Reduce the rows a in place to reduced row echelon form over their first
    # ncols columns, applying every row operation to the whole row; returns the
    # pivot columns.  Pivot entries become 1 and alone in their column.  Left
    # of its pivot a pivot row is zero, so each operation starts at the pivot.
    pivots: list[int] = []
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


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    a = m.to_lists()
    pivots = _reduce(a, m.cols)
    flat = tuple(x for row in a for x in row)
    return RatMatrix(m.rows, m.cols, flat), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """Fraction-free: each row is scaled to integers by the lcm of its
    denominators, then Bareiss elimination divides every update exactly by
    the previous pivot, which keeps the integers at the size of minors of m."""
    k = m.cols
    e = m.entries
    a = []
    for i in range(m.rows):
        row = e[i * k : (i + 1) * k]
        scale = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        if any(ints):
            a.append(ints)
    r, prev = 0, 1
    for c in range(k):
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        p = a[r][c]
        tail = a[r][c + 1 :]
        for i in range(r + 1, len(a)):
            row = a[i]
            f = row[c]
            row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], tail)]
        prev = p
        r += 1
    return r


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns form a basis of ker(m); free coordinates are unit vectors."""
    a = m.to_lists()
    pivots = _reduce(a, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    ent = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for idx, f in enumerate(free):
        ent[f][idx] = Fraction(1)
        for i, p in enumerate(pivots):
            ent[p][idx] = -a[i][f]
    return RatMatrix(m.cols, len(free), tuple(x for row in ent for x in row))


def basis_completion(m: RatMatrix) -> RatMatrix:
    """Columns: the standard vectors that complete the column span of m to
    the whole space, chosen greedily left to right.

    e_i is kept when it lies outside the span of m and of the e_j kept
    before it, which makes the chosen vectors exactly the pivot columns of
    rref([m | I]) past the columns of m."""
    _, pivots = rref(hstack(m, RatMatrix.identity(m.rows)))
    picked = [p - m.cols for p in pivots if p >= m.cols]
    ent = tuple(Fraction(1 if i == j else 0) for i in range(m.rows) for j in picked)
    return RatMatrix(m.rows, len(picked), ent)


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix:
    """One solution X of m @ X = b, free coordinates zero.

    Reduces the augmented rows [m | b] over the columns of m.
    Raises NoSolutionError when some column of b is outside the image.
    """
    if m.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    a = [list(m.row(i) + b.row(i)) for i in range(m.rows)]
    pivots = _reduce(a, m.cols)
    for row in a[len(pivots) :]:
        if any(x != 0 for x in row[m.cols :]):
            raise NoSolutionError("inconsistent linear system")
    ent = [[Fraction(0)] * b.cols for _ in range(m.cols)]
    for row, p in zip(a, pivots):
        ent[p] = row[m.cols :]
    return RatMatrix(m.cols, b.cols, tuple(x for row in ent for x in row))


def try_solve(m: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    try:
        return solve(m, b)
    except NoSolutionError:
        return None


def left_inverse(m: RatMatrix) -> RatMatrix:
    """L with L @ m = identity; requires m injective."""
    if rank(m) != m.cols:
        raise ValueError("matrix is not injective")
    return solve(m.transpose(), RatMatrix.identity(m.cols)).transpose()


def right_inverse(m: RatMatrix) -> RatMatrix:
    """S with m @ S = identity; requires m surjective."""
    if rank(m) != m.rows:
        raise ValueError("matrix is not surjective")
    return solve(m, RatMatrix.identity(m.rows))


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; with row-major vec, vec(A X B) = (A kron B^T) vec(X)."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    ent = [Fraction(0)] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entry(i, j)
            if aij == 0:
                continue
            for p in range(b.rows):
                base = (i * b.rows + p) * cols + j * b.cols
                for q in range(b.cols):
                    ent[base + q] = aij * b.entry(p, q)
    return RatMatrix(rows, cols, tuple(ent))


def vec(m: RatMatrix) -> RatMatrix:
    """Row-major flattening as a column vector."""
    return RatMatrix(m.rows * m.cols, 1, m.entries)


def unvec(v: RatMatrix, rows: int, cols: int) -> RatMatrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise ValueError("shape mismatch in unvec")
    return RatMatrix(rows, cols, v.entries)
