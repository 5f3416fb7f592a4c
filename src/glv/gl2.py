"""The weak 2-groupoid of 2-term chain complexes over the rationals.

Objects are fibers (2-term complexes), arrows are quasi-isomorphisms between
them, 2-cells from f to f' are homotopy matrices R with

    R @ d = f1 - f'1        d' @ R = f0 - f'0.

Horizontal composition of arrows is matrix composition; vertical composition
of 2-cells adds their matrices; horizontal composition of 2-cells whiskers on
either side, and the two possible bracketings agree.

Arrows are invertible up to homotopy only.  ``quasi_inverse`` produces an
explicit inverse by splitting the short exact sequence

    0 -> V1 --(a1; d)--> V1' + V0 --(d' | -a0)--> V0' -> 0

of a quasi-isomorphism: a retraction of the injection gives the degree-1
component of the inverse together with the unit homotopy, and a compatible
section of the surjection gives the degree-0 component together with the
counit homotopy.

Derived arrows and cells are built unchecked; see ``chain2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain2 import (
    ChainMap2,
    Fiber2,
    Homotopy2,
    _trusted,
    are_homotopic,
    compose_chain_maps,
    find_homotopy,
    identity_chain_map,
    is_quasi_iso,
)
from .linalg import RatMatrix, hstack, left_inverse, right_inverse, vstack
from .reports import LawError, Violation


@dataclass(frozen=True)
class GLObject:
    """A fiber sitting over a named base point."""

    point: str
    fiber: Fiber2


@dataclass(frozen=True)
class GLArrow:
    """A quasi-isomorphism between the fibers of two objects."""

    src: GLObject
    dst: GLObject
    map: ChainMap2

    def __post_init__(self) -> None:
        if self.map.src != self.src.fiber or self.map.dst != self.dst.fiber:
            raise ValueError("chain map endpoints do not match the objects")
        if not is_quasi_iso(self.map):
            raise LawError([Violation("quasi-isomorphism")])

    @property
    def a1(self) -> RatMatrix:
        return self.map.a1

    @property
    def a0(self) -> RatMatrix:
        return self.map.a0


@dataclass(frozen=True)
class GL2Cell:
    """A homotopy between parallel arrows, source => target."""

    source: GLArrow
    target: GLArrow
    r: RatMatrix

    def __post_init__(self) -> None:
        if self.source.src != self.target.src or self.source.dst != self.target.dst:
            raise ValueError("2-cell endpoints are not parallel")
        # delegates the homotopy equations to the checked constructor
        Homotopy2(self.source.map, self.target.map, self.r)


def identity_arrow(x: GLObject) -> GLArrow:
    return _trusted(GLArrow, x, x, identity_chain_map(x.fiber))


def compose_arrows(g: GLArrow, f: GLArrow) -> GLArrow:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("arrows are not composable")
    return _trusted(GLArrow, f.src, g.dst, compose_chain_maps(g.map, f.map))


def identity_cell(f: GLArrow) -> GL2Cell:
    return _trusted(GL2Cell, f, f, RatMatrix.zeros(f.dst.fiber.dim1, f.src.fiber.dim0))


def vcompose(s: GL2Cell, r: GL2Cell) -> GL2Cell:
    """Vertical composite: r first, then s."""
    if r.target != s.source:
        raise ValueError("2-cells are not vertically composable")
    return _trusted(GL2Cell, r.source, s.target, s.r + r.r)


def invert_cell(r: GL2Cell) -> GL2Cell:
    return _trusted(GL2Cell, r.target, r.source, -r.r)


def whisker_left(g: GLArrow, r: GL2Cell) -> GL2Cell:
    """g(r): g . source(r) => g . target(r)."""
    if r.source.dst != g.src:
        raise ValueError("whiskering arrow does not attach on the left")
    return _trusted(
        GL2Cell, compose_arrows(g, r.source), compose_arrows(g, r.target), g.a1 @ r.r
    )


def whisker_right(r: GL2Cell, f: GLArrow) -> GL2Cell:
    """(r)f: source(r) . f => target(r) . f."""
    if f.dst != r.source.src:
        raise ValueError("whiskering arrow does not attach on the right")
    return _trusted(
        GL2Cell, compose_arrows(r.source, f), compose_arrows(r.target, f), r.r @ f.a0
    )


def hcompose(s: GL2Cell, r: GL2Cell) -> GL2Cell:
    """Horizontal composite of r: f => f' (x -> y) with s: g => g' (y -> z).

    Computed as whisker_left(source(s), r) followed by
    whisker_right(s, target(r)); the other bracketing gives the same matrix
    s.source.a1 @ r.r + s.r @ r.target.a0 by the homotopy equations.
    """
    if r.source.dst != s.source.src:
        raise ValueError("2-cells are not horizontally composable")
    return _trusted(
        GL2Cell,
        compose_arrows(s.source, r.source),
        compose_arrows(s.target, r.target),
        s.source.a1 @ r.r + s.r @ r.target.a0,
    )


def connecting_cell(f: GLArrow, g: GLArrow) -> GL2Cell | None:
    """Some 2-cell f => g, or None when the arrows are not homotopic."""
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("arrows are not parallel")
    h = find_homotopy(f.map, g.map)
    if h is None:
        return None
    return GL2Cell(f, g, h.r)


def arrows_homotopic(f: GLArrow, g: GLArrow) -> bool:
    return are_homotopic(f.map, g.map)


@dataclass(frozen=True)
class QuasiInverse:
    """An arrow g with unit id_src => g.f and counit id_dst => f.g."""

    inverse: GLArrow
    unit: GL2Cell
    counit: GL2Cell


def quasi_inverse(f: GLArrow) -> QuasiInverse:
    """Split the cone sequence of f to invert it up to homotopy.

    With m = (a1; d) and e = (d' | -a0), a left inverse r of m and the
    compatible section s = (1 - m r) e^+ of e decompose as

        r = (g1 | RX)      s = (RY; -g0)

    where g = (g1, g0) is the inverse arrow, RX the unit homotopy
    id_src => g f and RY the counit homotopy id_dst => f g.
    """
    x, y = f.src.fiber, f.dst.fiber
    m = vstack(f.a1, x.d)
    e = hstack(y.d, -f.a0)
    r = left_inverse(m)  # injective because f is a quasi-isomorphism
    e_plus = right_inverse(e)  # surjective likewise
    middle = y.dim1 + x.dim0
    s = (RatMatrix.identity(middle) - m @ r) @ e_plus

    g1 = r.block(0, x.dim1, 0, y.dim1)
    rx = r.block(0, x.dim1, y.dim1, middle)
    ry = s.block(0, y.dim1, 0, y.dim0)
    g0 = -s.block(y.dim1, middle, 0, y.dim0)

    g = _trusted(GLArrow, f.dst, f.src, _trusted(ChainMap2, y, x, g1, g0))
    unit = _trusted(GL2Cell, identity_arrow(f.src), compose_arrows(g, f), rx)
    counit = _trusted(GL2Cell, identity_arrow(f.dst), compose_arrows(f, g), ry)
    return QuasiInverse(g, unit, counit)

