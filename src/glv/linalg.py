"""Exact dense linear algebra over the rationals.

A matrix is stored as integer numerators over one common denominator:
``nums`` is a row-major tuple of ``int`` and ``den`` a positive ``int``, kept
in canonical form, ``gcd(den, *nums) == 1``.  Equal matrices therefore have
equal fields, and equality and hashing are tuple compares.  Entry (i, j) is
``Fraction(nums[i * cols + j], den)``; ``entries`` builds the tuple of
``fractions.Fraction`` on demand and is never stored.

The kernel computes on integers only.  Sums, products, stacks and Kronecker
products combine numerators and reduce by one gcd.  Elimination is
fraction-free: a row update is ``p * row - f * pivot_row`` followed by a
division by the row's gcd, and pivots are divided out once, when a result is
built.  ``rank``, ``rref``, ``solve``, ``kernel_basis`` and
``basis_completion`` all read the one elimination, ``_reduce``.
``RatMatrix(rows, cols, entries)`` is the checked public constructor; every
derived matrix is built by ``_canon``.

Zero-row and zero-column matrices are legal and stand for maps in or out of
the zero space.  Every routine is deterministic: pivots are chosen left to
right, top to bottom, and free coordinates of solutions are set to zero, so
equal inputs produce bit-equal outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence


class NoSolutionError(Exception):
    """The linear system has no solution."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class RatMatrix:
    """A rows x cols rational matrix: row-major integer numerators ``nums``
    over one positive denominator ``den``, with gcd(den, *nums) == 1."""

    __slots__ = ("rows", "cols", "nums", "den")

    rows: int
    cols: int
    nums: tuple[int, ...]
    den: int

    def __new__(cls, rows: int, cols: int, entries: Sequence) -> RatMatrix:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        ents = [_rat(x) for x in entries]
        if len(ents) != rows * cols:
            raise ValueError("entry count does not match shape")
        # Entries in lowest terms over the lcm of their denominators are
        # canonical, by the argument given for the stacks below.
        den = lcm(*(x.denominator for x in ents))
        return _raw(rows, cols, tuple([x.numerator * (den // x.denominator) for x in ents]), den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not RatMatrix:
            return NotImplemented
        return (
            self.den == other.den
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nums, self.den))

    def __repr__(self) -> str:
        return f"RatMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> RatMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return RatMatrix(rows, cols, [x for row in data for x in row])

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMatrix:
        return _raw(rows, cols, (0,) * (rows * cols), 1)

    @staticmethod
    def identity(n: int) -> RatMatrix:
        nums = [0] * (n * n)
        nums[:: n + 1] = [1] * n
        return _raw(n, n, tuple(nums), 1)

    @staticmethod
    def column(values: Sequence) -> RatMatrix:
        vals = list(values)
        return RatMatrix(len(vals), 1, vals)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(x, den) for x in self.nums])

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        c, den = self.cols, self.den
        return tuple([Fraction(x, den) for x in self.nums[i * c : (i + 1) * c]])

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple([self.entry(i, j) for i in range(self.rows)])

    def to_lists(self) -> list[list[Fraction]]:
        e, c = self.entries, self.cols
        return [list(e[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> RatMatrix:
        """The sub-matrix of rows r0:r1 and columns c0:c1."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError((r0, r1, c0, c1))
        n, c = self.nums, self.cols
        nums = tuple([x for i in range(r0, r1) for x in n[i * c + c0 : i * c + c1]])
        return _canon(r1 - r0, c1 - c0, nums, self.den)

    def transpose(self) -> RatMatrix:
        n, c = self.nums, self.cols
        return _raw(c, self.rows, tuple([x for j in range(c) for x in n[j::c]]), self.den)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return _combine(self, other, add)

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return _combine(self, other, sub)

    def __neg__(self) -> RatMatrix:
        return _raw(self.rows, self.cols, tuple([-x for x in self.nums]), self.den)

    def scale(self, c) -> RatMatrix:
        c = _rat(c)
        p = c.numerator
        return _canon(self.rows, self.cols, tuple([p * x for x in self.nums]), c.denominator * self.den)

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        m, k = self.cols, other.cols
        a, b = self.nums, other.nums
        arows = [a[i * m : (i + 1) * m] for i in range(self.rows)]
        bcols = [b[j::k] for j in range(k)]
        nums = tuple([sum(map(mul, row, col)) for row in arows for col in bcols])
        return _canon(self.rows, k, nums, self.den * other.den)


# Every tuple of numerators is built as tuple([...]), not from a generator:
# a tuple built from a generator starts at a guessed length and is resized,
# which takes it off one free list and frees it onto another, and the free
# lists then grew by about 0.5 MB of peak memory over a gl-horns run.
_new = object.__new__
# The slot setters write past RatMatrix.__setattr__, as a frozen dataclass does.
_set_rows, _set_cols, _set_nums, _set_den = (RatMatrix.__dict__[f].__set__ for f in RatMatrix.__slots__)


def _raw(rows: int, cols: int, nums: tuple[int, ...], den: int) -> RatMatrix:
    # nums / den, already canonical.
    m = _new(RatMatrix)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_nums(m, nums)
    _set_den(m, den)
    return m


def _canon(rows: int, cols: int, nums: tuple[int, ...], den: int) -> RatMatrix:
    """The matrix nums / den (den > 0), reduced to canonical form."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
    return _raw(rows, cols, nums, den)


def _over(m: RatMatrix, den: int) -> tuple[int, ...]:
    """The numerators of m over den, a multiple of m.den."""
    f = den // m.den
    return m.nums if f == 1 else tuple([f * x for x in m.nums])


def _combine(a: RatMatrix, b: RatMatrix, op) -> RatMatrix:
    den = lcm(a.den, b.den)
    return _canon(a.rows, a.cols, tuple(list(map(op, _over(a, den), _over(b, den)))), den)


# Canonical matrices written over the lcm of their denominators stay
# canonical: for each prime power p^e exactly dividing the lcm, the matrix
# whose denominator p^e divides has a numerator prime to p, and its factor
# lcm / den is prime to p.  So the stacks need no gcd.


def hstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    den = lcm(*(m.den for m in mats))
    parts = [(m.cols, _over(m, den)) for m in mats]
    nums = tuple([x for i in range(rows) for c, n in parts for x in n[i * c : (i + 1) * c]])
    return _raw(rows, sum(m.cols for m in mats), nums, den)


def vstack(*mats: RatMatrix) -> RatMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    den = lcm(*(m.den for m in mats))
    nums = tuple([x for m in mats for x in _over(m, den)])
    return _raw(sum(m.rows for m in mats), cols, nums, den)


def _int_rows(m: RatMatrix) -> list[list[int]]:
    n, c = m.nums, m.cols
    return [list(n[i * c : (i + 1) * c]) for i in range(m.rows)]


def _reduce(a: list[list[int]], ncols: int) -> list[int]:
    # Reduce the integer rows a in place, fraction-free, over their first
    # ncols columns; returns the pivot columns.  Afterwards the k-th row
    # divided by its entry in the k-th pivot column is the k-th row of the
    # reduced row echelon form, and the rows past the pivots are zero there.
    # Every update p * row - f * pivot_row clears one entry and keeps the
    # row's value up to a factor, which dividing by its gcd keeps small.
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        prow = a[pivot_row]
        g = gcd(*prow)
        if g != 1:
            prow = [x // g for x in prow]
        a[pivot_row] = a[r]
        a[r] = prow
        p = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(row, prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _pivot_den(a: list[list[int]], pivots: list[int]) -> int:
    # Each reduced row divided by its pivot has integer numerators over this.
    return lcm(*(row[c] for row, c in zip(a, pivots)))


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    a = _int_rows(m)
    pivots = _reduce(a, m.cols)
    den = _pivot_den(a, pivots)
    nums = [x * (den // row[c]) for row, c in zip(a, pivots) for x in row]
    nums += [0] * ((m.rows - len(pivots)) * m.cols)
    return _canon(m.rows, m.cols, tuple(nums), den), tuple(pivots)


def rank(m: RatMatrix) -> int:
    """The number of pivot columns of m."""
    return len(_reduce(_int_rows(m), m.cols))


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns form a basis of ker(m); free coordinates are unit vectors."""
    a = _int_rows(m)
    pivots = _reduce(a, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    den = _pivot_den(a, pivots)
    ent = [[0] * len(free) for _ in range(m.cols)]
    for idx, f in enumerate(free):
        ent[f][idx] = den
        for row, p in zip(a, pivots):
            ent[p][idx] = -row[f] * (den // row[p])
    return _canon(m.cols, len(free), tuple([x for row in ent for x in row]), den)


def basis_completion(m: RatMatrix) -> RatMatrix:
    """Columns: the standard vectors that complete the column span of m to
    the whole space, chosen greedily left to right.

    e_i is kept when it lies outside the span of m and of the e_j kept
    before it, which makes the chosen vectors exactly the pivot columns of
    rref([m | I]) past the columns of m."""
    ext = hstack(m, RatMatrix.identity(m.rows))
    pivots = _reduce(_int_rows(ext), ext.cols)
    picked = [p - m.cols for p in pivots if p >= m.cols]
    nums = tuple([int(i == j) for i in range(m.rows) for j in picked])
    return _raw(m.rows, len(picked), nums, 1)


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix:
    """One solution X of m @ X = b, free coordinates zero.

    Reduces the integer rows [m | b] written over the lcm of their
    denominators, over the columns of m.  Raises NoSolutionError when some
    column of b is outside the image.
    """
    if m.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    mc, bc = m.cols, b.cols
    common = lcm(m.den, b.den)
    mn, bn = _over(m, common), _over(b, common)
    a = [list(mn[i * mc : (i + 1) * mc] + bn[i * bc : (i + 1) * bc]) for i in range(m.rows)]
    pivots = _reduce(a, mc)
    for row in a[len(pivots) :]:
        if any(row[mc:]):
            raise NoSolutionError("inconsistent linear system")
    den = _pivot_den(a, pivots)
    ent = [[0] * bc for _ in range(mc)]
    for row, p in zip(a, pivots):
        f = den // row[p]
        ent[p] = [x * f for x in row[mc:]]
    return _canon(mc, bc, tuple([x for row in ent for x in row]), den)


def try_solve(m: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    try:
        return solve(m, b)
    except NoSolutionError:
        return None


def left_inverse(m: RatMatrix) -> RatMatrix:
    """L with L @ m = identity; requires m injective, which is when
    m^T @ X = identity has a solution."""
    try:
        return solve(m.transpose(), RatMatrix.identity(m.cols)).transpose()
    except NoSolutionError:
        raise ValueError("matrix is not injective") from None


def right_inverse(m: RatMatrix) -> RatMatrix:
    """S with m @ S = identity; requires m surjective, which is when that
    system has a solution."""
    try:
        return solve(m, RatMatrix.identity(m.rows))
    except NoSolutionError:
        raise ValueError("matrix is not surjective") from None


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product; with row-major vec, vec(A X B) = (A kron B^T) vec(X)."""
    arows = [a.nums[i * a.cols : (i + 1) * a.cols] for i in range(a.rows)]
    brows = [b.nums[p * b.cols : (p + 1) * b.cols] for p in range(b.rows)]
    nums = tuple([x * y for ar in arows for br in brows for x in ar for y in br])
    return _canon(a.rows * b.rows, a.cols * b.cols, nums, a.den * b.den)


def vec(m: RatMatrix) -> RatMatrix:
    """Row-major flattening as a column vector."""
    return _raw(m.rows * m.cols, 1, m.nums, m.den)


def unvec(v: RatMatrix, rows: int, cols: int) -> RatMatrix:
    if v.cols != 1 or v.rows != rows * cols:
        raise ValueError("shape mismatch in unvec")
    return _raw(rows, cols, v.nums, v.den)
