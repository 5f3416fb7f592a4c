"""Lax functors out of finite 2-categories and their simplicial shadows.

A (normal) lax functor F from a finite 2-category into a handle target
carries objects, arrows and 2-cells over, preserving units and vertical
composition strictly, and carries a comparison 2-cell

    F_{g,f} : F(g . f)  =>  F(g) . F(f)

for every composable pair, natural in both slots and coherent on triples.
Such data is the same thing as a simplicial map between nerves in levels
up to 3, and that translation is implemented here, along with lax
transformations between lax functors and the matching simplicial
homotopies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .groupoid import _stray_pairs, chains
from .nerve import SimplexLabel, degeneracy, face, make_simplex, nerve_levels
from .reports import Violation, gate, missing, require
from .twocat import Fin2Cat


class NotSimplicialError(Exception):
    """Level data that does not commute with faces and degeneracies."""


@dataclass
class LaxFunctor:
    """A normal lax functor from table data into a handle target."""

    source: Fin2Cat
    obj_map: dict
    arrow_map: dict
    cell_map: dict
    comp_cell: dict  # (g, f) -> 2-cell F(g.f) => F(g).F(f)


def strict_functor(source: Fin2Cat, target, obj_map, arrow_map, cell_map) -> LaxFunctor:
    """Package strictly functorial data, with identity comparison cells."""
    comp = {
        (g, f): target.id_cell(arrow_map[source.comp1[(g, f)]])
        for g, f in source.composable_arrow_pairs()
    }
    return LaxFunctor(source, dict(obj_map), dict(arrow_map), dict(cell_map), comp)


def verify_lax_functor(fun: LaxFunctor, target) -> list[Violation]:
    c = fun.source
    return gate(
        chain(
            missing(
                (c.objects, fun.obj_map, "object has no image"),
                (c.arrows, fun.arrow_map, "arrow has no image"),
                (c.cells, fun.cell_map, "2-cell has no image"),
                (c.composable_arrow_pairs(), fun.comp_cell, "no comparison cell"),
            ),
            _stray_pairs(c.arrows, fun.comp_cell),
        ),
        _image_endpoints(fun, target),
        _comparison_endpoints(fun, target),
        _normality(fun, target),
        _functor_laws(fun, target),
    )


def _image_endpoints(fun: LaxFunctor, target) -> Iterator[Violation]:
    c = fun.source
    for f, (x, y) in c.arrows.items():
        ff = fun.arrow_map[f]
        if target.arrow_src(ff) != fun.obj_map[x] or target.arrow_tgt(ff) != fun.obj_map[y]:
            yield Violation("endpoint", (f,), "arrow image endpoints")
    for r, (f, g) in c.cells.items():
        rr = fun.cell_map[r]
        if target.cell_src(rr) != fun.arrow_map[f] or target.cell_tgt(rr) != fun.arrow_map[g]:
            yield Violation("endpoint", (r,), "2-cell image endpoints")


def _comparison_endpoints(fun: LaxFunctor, target) -> Iterator[Violation]:
    # arrow images compose here: the stage before has checked their endpoints
    c = fun.source
    for (g, f), cc in fun.comp_cell.items():
        want_src = fun.arrow_map[c.comp1[(g, f)]]
        want_tgt = target.compose(fun.arrow_map[g], fun.arrow_map[f])
        if target.cell_src(cc) != want_src or target.cell_tgt(cc) != want_tgt:
            yield Violation("endpoint", (g, f), "comparison cell endpoints")


def _normality(fun: LaxFunctor, target) -> Iterator[Violation]:
    c = fun.source
    for x in c.objects:
        u = c.unit_arrow[x]
        if fun.arrow_map[u] != target.id_arrow(fun.obj_map[x]):
            yield Violation("normality", (x,), "unit arrow image")
    for f in c.arrows:
        if fun.cell_map[c.unit_cell[f]] != target.id_cell(fun.arrow_map[f]):
            yield Violation("normality", (f,), "unit 2-cell image")
    for (g, f), cc in fun.comp_cell.items():
        if g in c.unit_arrow.values() or f in c.unit_arrow.values():
            if cc != target.id_cell(fun.arrow_map[c.comp1[(g, f)]]):
                yield Violation("normality", (g, f), "comparison cell at a unit")


def _functor_laws(fun: LaxFunctor, target) -> Iterator[Violation]:
    c = fun.source
    for s, r in c.vcomposable_cell_pairs():
        if fun.cell_map[c.vcomp[(s, r)]] != target.vcompose(fun.cell_map[s], fun.cell_map[r]):
            yield Violation("vertical composition", (s, r))

    for s, r in c.hcomposable_cell_pairs():
        g, gp = c.cells[s]
        f, fp = c.cells[r]
        lhs = target.vcompose(fun.comp_cell[(gp, fp)], fun.cell_map[c.hcomp[(s, r)]])
        rhs = target.vcompose(
            target.hcompose(fun.cell_map[s], fun.cell_map[r]), fun.comp_cell[(g, f)]
        )
        if lhs != rhs:
            yield Violation("naturality", (s, r))

    for h, g, f in chains(c.arrows, 3):
        lhs = target.vcompose(
            target.whisker_left(fun.arrow_map[h], fun.comp_cell[(g, f)]),
            fun.comp_cell[(h, c.comp1[(g, f)])],
        )
        rhs = target.vcompose(
            target.whisker_right(fun.comp_cell[(h, g)], fun.arrow_map[f]),
            fun.comp_cell[(c.comp1[(h, g)], f)],
        )
        if lhs != rhs:
            yield Violation("coherence", (h, g, f))


@dataclass
class SimplicialMapData:
    """Images of the source nerve in levels 0 to 3, keyed by simplex."""

    levels: dict  # level -> {source SimplexLabel: target SimplexLabel}


def map_simplex(fun: LaxFunctor, target, s: SimplexLabel) -> SimplexLabel:
    """The image of one labelled simplex under a lax functor.

    Vertices and edges map directly; a triangle cell a: u20 => u21.u10 goes
    to the composite of F(a) with the comparison cell of the pair."""
    c = fun.source
    verts = tuple(fun.obj_map[x] for x in s.vertices)
    edges = {e: fun.arrow_map[f] for e, f in s.edge_map().items()}
    tris = {}
    em = s.edge_map()
    for (k, j, i), r in s.triangle_map().items():
        tris[(k, j, i)] = target.vcompose(
            fun.comp_cell[(em[(k, j)], em[(j, i)])], fun.cell_map[r]
        )
    return make_simplex(verts, edges, tris)


def lax_to_simplicial(fun: LaxFunctor, source_handle, target) -> SimplicialMapData:
    levels = {
        level: {s: map_simplex(fun, target, s) for s in simplices}
        for level, simplices in enumerate(nerve_levels(source_handle, 3))
    }
    return SimplicialMapData(levels)


def verify_simplicial_map(data: SimplicialMapData, source_handle, target) -> list[Violation]:
    """Totality first: in levels 0 to 3 the images are keyed by exactly the
    simplices of the source nerve and have their dimension.  Then faces, then
    degeneracies, which may therefore look up every face and degeneracy."""
    levels = data.levels
    source = [set(simplices) for simplices in nerve_levels(source_handle, 3)]
    return gate(
        _simplicial_totality(levels, source),
        _commuting(levels, face, source_handle, target, range(1, 4), -1, "faces"),
        _commuting(levels, degeneracy, source_handle, target, range(3), 1, "degeneracies"),
    )


def _simplicial_totality(levels: dict, source: list) -> Iterator[Violation]:
    for level, simplices in enumerate(source):
        have = levels.get(level, {})
        if any(s not in have for s in simplices):
            yield Violation("totality", (level,), "simplex has no image")
        if any(s not in simplices for s in have):
            yield Violation("totality", (level,), "image of a labelling that is not a simplex")
        if any(img.n != level for img in have.values()):
            yield Violation("dimension", (level,))


def _commuting(levels, op, source_handle, target, stage, shift, what) -> Iterator[Violation]:
    """Where op (face or degeneracy, shifting the level by shift) applied to
    a source simplex of the stage's levels and to its image disagree."""
    for level in stage:
        for s, img in levels[level].items():
            for i in range(level + 1):
                if levels[level + shift][op(source_handle, s, i)] != op(target, img, i):
                    yield Violation("simplicial identity", (level, i), f"{what} do not commute")


def _unit_triangle(c: Fin2Cat, r: str) -> SimplexLabel:
    """The 2-simplex reading off the image of a 2-cell r: f => g."""
    f, g = c.cells[r]
    x, y = c.arrows[f]
    return make_simplex(
        (x, y, y),
        {(1, 0): g, (2, 1): c.unit_arrow[y], (2, 0): f},
        {(2, 1, 0): r},
    )


def _pair_triangle(c: Fin2Cat, g: str, f: str) -> SimplexLabel:
    """The 2-simplex reading off the comparison cell of a pair (g, f)."""
    x, y = c.arrows[f]
    z = c.arrow_tgt(g)
    gf = c.comp1[(g, f)]
    return make_simplex(
        (x, y, z),
        {(1, 0): f, (2, 1): g, (2, 0): gf},
        {(2, 1, 0): c.unit_cell[gf]},
    )


def simplicial_to_lax(data: SimplicialMapData, source_handle, target) -> LaxFunctor:
    """Read lax functor data back off a simplicial map.

    Raises NotSimplicialError when the levels do not commute with faces or
    miss required simplices."""
    bad = verify_simplicial_map(data, source_handle, target)
    if bad:
        raise NotSimplicialError(str(bad[0]))
    c = source_handle.cat
    obj_map = {s.vertices[0]: img.vertices[0] for s, img in data.levels[0].items()}
    arrow_map = {
        s.edge_map()[(1, 0)]: img.edge_map()[(1, 0)]
        for s, img in data.levels[1].items()
    }
    cell_map = {}
    for r in c.cells:
        img = data.levels[2][_unit_triangle(c, r)]
        cell_map[r] = img.triangle_map()[(2, 1, 0)]
    comp_cell = {}
    for g, f in c.composable_arrow_pairs():
        img = data.levels[2][_pair_triangle(c, g, f)]
        comp_cell[(g, f)] = img.triangle_map()[(2, 1, 0)]
    return LaxFunctor(c, obj_map, arrow_map, cell_map, comp_cell)


@dataclass
class LaxTransformation:
    """Data of a transformation H: F => G of lax functors.

    at_obj[x] is an arrow F(x) -> G(x); at_arrow[f], for f: x -> y, is a
    2-cell H_y . F(f) => G(f) . H_x."""

    at_obj: dict
    at_arrow: dict


def verify_lax_transformation(
    h: LaxTransformation, fun: LaxFunctor, gun: LaxFunctor, target
) -> list[Violation]:
    c = fun.source
    if gun.source is not c and gun.source != c:
        return [Violation("totality", (), "lax functors have different sources")]
    return gate(
        missing(
            (c.objects, h.at_obj, "object has no component"),
            (c.arrows, h.at_arrow, "arrow has no component"),
        ),
        (
            Violation("endpoint", (x,), "component endpoints")
            for x in c.objects
            if target.arrow_src(h.at_obj[x]) != fun.obj_map[x]
            or target.arrow_tgt(h.at_obj[x]) != gun.obj_map[x]
        ),
        (
            Violation("endpoint", (f,), "naturality cell endpoints")
            for f, (x, y) in c.arrows.items()
            if target.cell_src(h.at_arrow[f]) != target.compose(h.at_obj[y], fun.arrow_map[f])
            or target.cell_tgt(h.at_arrow[f]) != target.compose(gun.arrow_map[f], h.at_obj[x])
        ),
        _transformation_laws(h, fun, gun, target),
    )


def _transformation_laws(h, fun: LaxFunctor, gun: LaxFunctor, target) -> Iterator[Violation]:
    c = fun.source
    for x in c.objects:
        if h.at_arrow[c.unit_arrow[x]] != target.id_cell(h.at_obj[x]):
            yield Violation("transformation unit", (x,))

    for r, (f, fp) in c.cells.items():
        x, y = c.arrows[f]
        lhs = target.vcompose(
            h.at_arrow[fp], target.whisker_left(h.at_obj[y], fun.cell_map[r])
        )
        rhs = target.vcompose(
            target.whisker_right(gun.cell_map[r], h.at_obj[x]), h.at_arrow[f]
        )
        if lhs != rhs:
            yield Violation("transformation naturality", (r,))

    for g, f in c.composable_arrow_pairs():
        x, y = c.arrows[f]
        z = c.arrow_tgt(g)
        gf = c.comp1[(g, f)]
        lhs = target.vcompose(
            target.whisker_left(gun.arrow_map[g], h.at_arrow[f]),
            target.vcompose(
                target.whisker_right(h.at_arrow[g], fun.arrow_map[f]),
                target.whisker_left(h.at_obj[z], fun.comp_cell[(g, f)]),
            ),
        )
        rhs = target.vcompose(
            target.whisker_right(gun.comp_cell[(g, f)], h.at_obj[x]), h.at_arrow[gf]
        )
        if lhs != rhs:
            yield Violation("transformation prism", (g, f))


@dataclass
class HomotopyData:
    """A simplicial homotopy between the nerves of two lax functors.

    Each arrow f: x -> y is covered by a prism split into two triangles
    sharing the diagonal D_f: F(x) -> G(y):

        cell0[f] : D_f => H_y . F(f)      cell1[f] : D_f => G(f) . H_x
    """

    at_obj: dict
    diagonal: dict
    cell0: dict
    cell1: dict


def lax_transformation_to_homotopy(
    h: LaxTransformation, fun: LaxFunctor, target
) -> HomotopyData:
    c = fun.source
    diagonal = {}
    cell0 = {}
    cell1 = {}
    for f, (x, y) in c.arrows.items():
        d = target.compose(h.at_obj[y], fun.arrow_map[f])
        diagonal[f] = d
        cell0[f] = target.id_cell(d)
        cell1[f] = h.at_arrow[f]
    return HomotopyData(dict(h.at_obj), diagonal, cell0, cell1)


def homotopy_to_lax_transformation(
    data: HomotopyData, fun: LaxFunctor, gun: LaxFunctor, target
) -> LaxTransformation:
    """Collapse prism data to a transformation and verify it.

    Raises LawError when the resulting data violates a transformation
    axiom; the prisms of a genuine simplicial homotopy always pass."""
    c = fun.source
    at_arrow = {}
    for f, (x, y) in c.arrows.items():
        diag = data.diagonal[f]
        want0 = target.compose(data.at_obj[y], fun.arrow_map[f])
        want1 = target.compose(gun.arrow_map[f], data.at_obj[x])
        c0, c1 = data.cell0[f], data.cell1[f]
        if target.cell_src(c0) != diag or target.cell_tgt(c0) != want0:
            raise ValueError(f"prism cell0 endpoints are wrong at {f}")
        if target.cell_src(c1) != diag or target.cell_tgt(c1) != want1:
            raise ValueError(f"prism cell1 endpoints are wrong at {f}")
        at_arrow[f] = target.vcompose(c1, target.invert_cell(c0))
    h = LaxTransformation(dict(data.at_obj), at_arrow)
    require(verify_lax_transformation(h, fun, gun, target))
    return h
