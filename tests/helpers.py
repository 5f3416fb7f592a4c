"""Builders shared across test modules."""

from fractions import Fraction
from itertools import combinations

from glv.chain2 import ChainMap2, Fiber2
from glv.gl2 import GLArrow, GLObject
from glv.linalg import RatMatrix
from glv.nerve import GLHandle, TableHandle, fill_horn, make_horn
from glv.reports import Violation
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


# A plain-Fraction reference for validate_simplex and validate_horn over GL.
# Matrices are (rows, cols, entries) read through RatMatrix.entries, arrows
# (src, dst, a1, a0) and 2-cells (source, target, homotopy), all compared as
# tuples; no operation of glv.gl2 or of RatMatrix arithmetic is used.


def _matrix(m: RatMatrix) -> tuple:
    return m.rows, m.cols, m.entries


def _times(a: tuple, b: tuple) -> tuple:
    (rows, inner, x), (inner_b, cols, y) = a, b
    assert inner == inner_b
    return rows, cols, tuple(
        sum((x[i * inner + t] * y[t * cols + j] for t in range(inner)), Fraction(0))
        for i in range(rows)
        for j in range(cols)
    )


def _plus(a: tuple, b: tuple) -> tuple:
    assert a[:2] == b[:2]
    return a[0], a[1], tuple(p + q for p, q in zip(a[2], b[2]))


def _object(x: GLObject) -> tuple:
    return x.point, x.fiber.dim1, x.fiber.dim0, _matrix(x.fiber.d)


def _arrow(f: GLArrow) -> tuple:
    return _object(f.src), _object(f.dst), _matrix(f.map.a1), _matrix(f.map.a0)


def _after(g: tuple, f: tuple) -> tuple:
    assert f[1] == g[0]
    return f[0], g[1], _times(g[2], f[2]), _times(g[3], f[3])


def _vertical(s: tuple, r: tuple) -> tuple:
    assert r[1] == s[0]
    return r[0], s[1], _plus(s[2], r[2])


def reference_gl_violations(s) -> list[Violation]:
    """The violations validate_simplex reports for a GL simplex, or
    validate_horn for a GL horn (an object with a k): those of the first
    failing stage among edge endpoints, triangle endpoints and tetrahedra,
    each tetrahedron compared as two full 2-cells, endpoints included."""
    n = len(s.vertices) - 1
    horn_k = getattr(s, "k", None)

    def keep(face) -> bool:
        return horn_k is None or len({horn_k, *face}) <= n

    vertices = [_object(x) for x in s.vertices]
    edges = {key: _arrow(f) for key, f in s.edges}
    tris = {key: (_arrow(c.source), _arrow(c.target), _matrix(c.r)) for key, c in s.triangles}
    bad = [
        Violation("endpoint", (j, i), "edge does not match its vertices")
        for (j, i), (src, dst, _, _) in sorted(edges.items())
        if keep((j, i)) and (src, dst) != (vertices[i], vertices[j])
    ]
    if bad:
        return bad
    bad = [
        Violation("endpoint", (k, j, i), "triangle cell does not match its edges")
        for (k, j, i), (source, target, _) in sorted(tris.items())
        if keep((k, j, i))
        and (source != edges[(k, i)] or target != _after(edges[(k, j)], edges[(j, i)]))
    ]
    if bad:
        return bad
    out = []
    # largest site first, as the validator lists them
    for quad in sorted((q[::-1] for q in combinations(range(n + 1), 4)), reverse=True):
        l, k, j, i = quad
        if not keep(quad):
            continue
        u_lk, u_ji = edges[(l, k)], edges[(j, i)]
        (f, f2, r), (g, g2, q) = tris[(k, j, i)], tris[(l, k, j)]
        front = _after(u_lk, f), _after(u_lk, f2), _times(u_lk[2], r)  # u_{l,k} o u_{k,j,i}
        back = _after(g, u_ji), _after(g2, u_ji), _times(q, u_ji[3])  # u_{l,k,j} o u_{j,i}
        if _vertical(front, tris[(l, k, i)]) != _vertical(back, tris[(l, j, i)]):
            out.append(Violation("tetrahedron", quad))
    return out
