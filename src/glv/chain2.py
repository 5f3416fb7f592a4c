"""Two-term chain complexes of rational vector spaces.

A fiber is a complex  V1 --d--> V0.  A chain map between fibers is a pair
(a1, a0) of matrices with a0 @ d = d' @ a1.  A homotopy between parallel
chain maps alpha, alpha' is a matrix R: V0 -> V1' with

    R @ d  = alpha1 - alpha'1        d' @ R = alpha0 - alpha'0

(read "source minus target").  Both validity conditions are decidable.

Data is checked once, where it enters: the public constructors check the
chain condition and the homotopy equations (and ``GLArrow`` the
quasi-isomorphism test), and raise ``LawError`` naming the law that fails.
The derived operations here and in ``gl2`` -- identities, composites,
whiskers, vertical and horizontal composites, inverse cells and
quasi-inverses -- build their results unchecked with
``_trusted``, because Theorem 1 (the symmetries of 2-term complexes form a
2-groupoid) makes every such result of valid inputs valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    RatMatrix,
    basis_completion,
    hstack,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    try_solve,
    unvec,
    vec,
    vstack,
)
from .reports import LawError, Violation


@dataclass(frozen=True)
class Fiber2:
    """A complex V1 -> V0 with dim V1 = dim1, dim V0 = dim0."""

    dim1: int
    dim0: int
    d: RatMatrix

    def __post_init__(self) -> None:
        if (self.d.rows, self.d.cols) != (self.dim0, self.dim1):
            raise ValueError("differential shape does not match dimensions")

    @property
    def euler(self) -> int:
        return self.dim0 - self.dim1


def zero_fiber() -> Fiber2:
    return Fiber2(0, 0, RatMatrix.zeros(0, 0))


@dataclass(frozen=True)
class HomologyDims:
    h1: int
    h0: int


@dataclass(frozen=True)
class ChainMap2:
    src: Fiber2
    dst: Fiber2
    a1: RatMatrix
    a0: RatMatrix

    def __post_init__(self) -> None:
        if (self.a1.rows, self.a1.cols) != (self.dst.dim1, self.src.dim1):
            raise ValueError("degree-1 component has the wrong shape")
        if (self.a0.rows, self.a0.cols) != (self.dst.dim0, self.src.dim0):
            raise ValueError("degree-0 component has the wrong shape")
        if self.a0 @ self.src.d != self.dst.d @ self.a1:
            raise LawError([Violation("chain condition")])


def _trusted(cls, *values):
    """An instance of the frozen dataclass cls with its fields set to values
    in order, built without __post_init__: only for values derived from
    checked ones by an operation that preserves validity."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def identity_chain_map(f: Fiber2) -> ChainMap2:
    return _trusted(ChainMap2, f, f, RatMatrix.identity(f.dim1), RatMatrix.identity(f.dim0))


def zero_chain_map(src: Fiber2, dst: Fiber2) -> ChainMap2:
    return ChainMap2(
        src, dst, RatMatrix.zeros(dst.dim1, src.dim1), RatMatrix.zeros(dst.dim0, src.dim0)
    )


def compose_chain_maps(g: ChainMap2, f: ChainMap2) -> ChainMap2:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("chain maps are not composable")
    return _trusted(ChainMap2, f.src, g.dst, g.a1 @ f.a1, g.a0 @ f.a0)


@dataclass(frozen=True)
class Homotopy2:
    """A homotopy source => target between parallel chain maps."""

    source: ChainMap2
    target: ChainMap2
    r: RatMatrix

    def __post_init__(self) -> None:
        if self.source.src != self.target.src or self.source.dst != self.target.dst:
            raise ValueError("homotopy endpoints are not parallel")
        if (self.r.rows, self.r.cols) != (self.source.dst.dim1, self.source.src.dim0):
            raise ValueError("homotopy matrix has the wrong shape")
        if self.r @ self.source.src.d != self.source.a1 - self.target.a1:
            raise LawError([Violation("homotopy condition", (), "degree 1")])
        if self.source.dst.d @ self.r != self.source.a0 - self.target.a0:
            raise LawError([Violation("homotopy condition", (), "degree 0")])


def homology(f: Fiber2) -> HomologyDims:
    r = rank(f.d)
    return HomologyDims(h1=f.dim1 - r, h0=f.dim0 - r)


def kernel_inclusion(f: Fiber2) -> RatMatrix:
    """Columns: a basis of H1 = ker(d) inside V1."""
    return kernel_basis(f.d)


def cokernel_complement(f: Fiber2) -> RatMatrix:
    """Columns: standard vectors completing im(d) to a basis of V0.

    The standard basis vectors are tried in order and kept greedily whenever
    they increase the rank, so the choice is deterministic.
    """
    return basis_completion(f.d)


def cokernel_projection(f: Fiber2) -> RatMatrix:
    """Q: V0 -> H0 reading coordinates along the chosen complement basis.

    With C = cokernel_complement(f), Q @ C = identity and Q @ d = 0.
    """
    # [d | I] has full row rank, so its rref is [E d | E] with E invertible.
    # Its pivot columns -- those of d, a basis of im(d), then those of C --
    # form a basis of V0 that E sends to the identity, and Q reads the last
    # h0 coordinates along it.
    reduced, pivots = rref(hstack(f.d, RatMatrix.identity(f.dim0)))
    h0 = sum(j >= f.dim1 for j in pivots)
    return reduced.block(f.dim0 - h0, f.dim0, f.dim1, f.dim1 + f.dim0)


def induced_homology_maps(m: ChainMap2) -> tuple[RatMatrix, RatMatrix]:
    """Matrices of H1(m) and H0(m) in the deterministic homology bases."""
    k_src = kernel_inclusion(m.src)
    k_dst = kernel_inclusion(m.dst)
    h1 = solve(k_dst, m.a1 @ k_src)
    q_dst = cokernel_projection(m.dst)
    c_src = cokernel_complement(m.src)
    h0 = q_dst @ m.a0 @ c_src
    return h1, h0


def is_quasi_iso(m: ChainMap2) -> bool:
    """Kernel, image and Euler characteristic test for quasi-isomorphisms.

    True iff ker(d) meets ker(a1) trivially, im(d') + im(a0) is all of V0',
    and the Euler characteristics of source and target fibers agree.
    """
    if m.src.euler != m.dst.euler:
        return False
    if rank(vstack(m.src.d, m.a1)) != m.src.dim1:
        return False
    if rank(hstack(m.dst.d, m.a0)) != m.dst.dim0:
        return False
    return True


def cone(m: ChainMap2) -> tuple[RatMatrix, RatMatrix]:
    """The mapping cone complex V1 -> V1' + V0 -> V0' of a chain map.

    Returns (d2, d1) with d2 = (a1; d) and d1 = (d' | -a0); the sign makes
    d1 @ d2 = 0 equivalent to the chain condition.
    """
    d2 = vstack(m.a1, m.src.d)
    d1 = hstack(m.dst.d, -m.a0)
    if not (d1 @ d2).is_zero:
        raise AssertionError("cone differentials do not compose to zero")
    return d2, d1


def cone_is_exact(m: ChainMap2) -> bool:
    d2, d1 = cone(m)
    # with rank(d2) == dim V1 and rank(d1) == dim V0', exactness in the
    # middle is that these two dimensions sum to the middle one
    return (
        m.src.dim1 + m.dst.dim0 == m.dst.dim1 + m.src.dim0
        and rank(d2) == m.src.dim1
        and rank(d1) == m.dst.dim0
    )


def _homotopy_system(src: Fiber2, dst: Fiber2) -> RatMatrix:
    # The linear operator R |-> (R @ d_src, d_dst @ R) on row-major vec(R).
    n1y, n0x = dst.dim1, src.dim0
    top = kron(RatMatrix.identity(n1y), src.d.transpose())
    bot = kron(dst.d, RatMatrix.identity(n0x))
    return vstack(top, bot)


def find_homotopy(source: ChainMap2, target: ChainMap2) -> Homotopy2 | None:
    """A homotopy source => target, or None when the maps are not homotopic."""
    if source.src != target.src or source.dst != target.dst:
        raise ValueError("chain maps are not parallel")
    op = _homotopy_system(source.src, source.dst)
    rhs = vstack(vec(source.a1 - target.a1), vec(source.a0 - target.a0))
    sol = try_solve(op, rhs)
    if sol is None:
        return None
    r = unvec(sol, source.dst.dim1, source.src.dim0)
    return Homotopy2(source, target, r)


def are_homotopic(source: ChainMap2, target: ChainMap2) -> bool:
    return find_homotopy(source, target) is not None


def chain_map_space(src: Fiber2, dst: Fiber2) -> RatMatrix:
    """Basis of the space of chain maps src -> dst.

    Columns are stacked vectors (vec(a1); vec(a0)) spanning the solutions of
    the chain condition a0 @ d = d' @ a1.
    """
    n1x, n0x, n1y, n0y = src.dim1, src.dim0, dst.dim1, dst.dim0
    # a0 @ d - d' @ a1 = 0, unknowns ordered (vec(a1), vec(a0))
    left = -kron(dst.d, RatMatrix.identity(n1x))
    right = kron(RatMatrix.identity(n0y), src.d.transpose())
    return kernel_basis(hstack(left, right))


def chain_map_from_vector(src: Fiber2, dst: Fiber2, v: RatMatrix) -> ChainMap2:
    """Rebuild a chain map from a stacked (vec(a1); vec(a0)) column."""
    n1 = dst.dim1 * src.dim1
    n0 = dst.dim0 * src.dim0
    if v.cols != 1 or v.rows != n1 + n0:
        raise ValueError("stacked vector has the wrong shape")
    a1 = unvec(v.block(0, n1, 0, 1), dst.dim1, src.dim1)
    a0 = unvec(v.block(n1, n1 + n0, 0, 1), dst.dim0, src.dim0)
    return ChainMap2(src, dst, a1, a0)


def homotopy_kernel_basis(src: Fiber2, dst: Fiber2) -> RatMatrix:
    """Basis (as vec columns) of matrices R with R @ d_src = 0 and d_dst @ R = 0.

    These are exactly the differences of homotopies between a fixed pair of
    chain maps, so they parametrize homotopy perturbations.
    """
    return kernel_basis(_homotopy_system(src, dst))
