"""Builders shared across test modules."""

from fractions import Fraction

from glv.chain2 import ChainMap2, Fiber2
from glv.gl2 import GLArrow, GLObject
from glv.linalg import RatMatrix
from glv.nerve import GLHandle, TableHandle, fill_horn, make_horn
from glv.twocat import Fin2Groupoid, delooping


def cyclic_handle(n: int) -> TableHandle:
    els = [str(i) for i in range(n)]
    mul = {(a, b): str((int(a) + int(b)) % n) for a in els for b in els}
    return TableHandle(delooping(els, mul, "0"))


def strict_two_group(m: int) -> Fin2Groupoid:
    """One object, arrows Z/m, cells (arrow, Z/m) composed componentwise."""
    q = [str(i) for i in range(m)]
    add = lambda a, b: str((int(a) + int(b)) % m)
    cell = lambda f, a: f"{f};{a}"
    return Fin2Groupoid(
        objects=("*",),
        arrows={f: ("*", "*") for f in q},
        cells={cell(f, a): (f, f) for f in q for a in q},
        comp1={(g, f): add(g, f) for g in q for f in q},
        hcomp={
            (cell(g, a), cell(f, b)): cell(add(g, f), add(a, b))
            for g in q
            for f in q
            for a in q
            for b in q
        },
        vcomp={
            (cell(f, a), cell(f, b)): cell(f, add(a, b))
            for f in q
            for a in q
            for b in q
        },
        unit_arrow={"*": "0"},
        unit_cell={f: cell(f, "0") for f in q},
        inv2={cell(f, a): cell(f, str(-int(a) % m)) for f in q for a in q},
    )


def one_dim_object(point: str) -> GLObject:
    """A rank-one fiber with zero differential: homology in both degrees."""
    return GLObject(point, Fiber2(1, 1, RatMatrix.zeros(1, 1)))


def scalar_arrow(src: GLObject, dst: GLObject, a1: Fraction, a0: Fraction) -> GLArrow:
    m = ChainMap2(
        src.fiber,
        dst.fiber,
        RatMatrix.from_rows([[a1]]),
        RatMatrix.from_rows([[a0]]),
    )
    return GLArrow(src, dst, m)


def fill_outer_2horn(k: int, vertices, edges) -> tuple:
    """Fill the outer 2-horn missing the face opposite vertex k (0 or 2)
    over GL; returns the new edge and the 2-cell u20 => u21 . u10."""
    s = fill_horn(GLHandle(), make_horn(2, k, vertices, edges, {}))
    new = (2, 1) if k == 0 else (1, 0)
    return s.edge_map()[new], s.triangle_map()[(2, 1, 0)]
