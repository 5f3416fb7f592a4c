"""Lax functors, the simplicial dictionary, transformations, homotopies."""

import random
from fractions import Fraction

import pytest

from helpers import cyclic_handle, one_dim_object, scalar_arrow, strict_two_group
from glv.gl2 import GL2Cell, identity_arrow
from glv.groupoid import pair_groupoid
from glv.laxmaps import (
    HomotopyData,
    LaxFunctor,
    LaxTransformation,
    NotSimplicialError,
    SimplicialMapData,
    homotopy_to_lax_transformation,
    lax_to_simplicial,
    lax_transformation_to_homotopy,
    map_simplex,
    simplicial_to_lax,
    strict_functor,
    verify_lax_functor,
    verify_lax_transformation,
    verify_simplicial_map,
)
from glv.linalg import RatMatrix
from glv.nerve import GLHandle, TableHandle, make_simplex, validate_simplex
from glv.reports import Violation
from glv.ruth import as_lax_functor, ruth_to_pseudofunctor
from glv.sampling import rand_fiber_with_homology, rand_strict_ruth, sample_table_simplex
from glv.twocat import from_groupoid, verify_2groupoid

GL = GLHandle()


def carry_functor(m: int):
    """A genuinely lax endofunctor: comparison cells given by the carry
    2-cocycle of Z/m (the one classifying Z/m^2)."""
    g = strict_two_group(m)
    h = TableHandle(g)
    carry = lambda a, b: "1" if int(a) + int(b) >= m else "0"
    comp = {
        (b, a): f"{g.comp1[(b, a)]};{carry(b, a)}"
        for b in g.arrows
        for a in g.arrows
    }
    fun = LaxFunctor(
        g,
        {"*": "*"},
        {f: f for f in g.arrows},
        {r: r for r in g.cells},
        comp,
    )
    return h, fun


def test_two_group_tables_verify():
    assert verify_2groupoid(strict_two_group(3)) == []


def test_carry_functor_is_lax():
    h, fun = carry_functor(3)
    assert verify_lax_functor(fun, h) == []


def test_broken_cocycle_fails_coherence():
    h, fun = carry_functor(3)
    fun.comp_cell[("1", "1")] = "2;1"
    bad = verify_lax_functor(fun, h)
    assert bad and all(v.law == "coherence" for v in bad)


def test_strict_functor_doubling_cells():
    g = strict_two_group(5)
    h = TableHandle(g)
    fun = strict_functor(
        g,
        h,
        {"*": "*"},
        {f: f for f in g.arrows},
        {f"{f};{a}": f"{f};{int(a) * 2 % 5}" for f in g.arrows for a in g.arrows},
    )
    assert verify_lax_functor(fun, h) == []
    fun.cell_map["1;1"] = "1;1"
    assert any(v.law == "vertical composition" for v in verify_lax_functor(fun, h))


def test_wrong_arrow_image_is_reported_not_raised():
    # b|a runs a -> b; its image p|p runs p -> p, not p -> q, so composing
    # it with the image of a|b would fail: the endpoint stage must report
    # it before any comparison cell is composed
    src = from_groupoid(pair_groupoid(["a", "b"]))
    h = TableHandle(from_groupoid(pair_groupoid(["p", "q"])))
    rename = {"a": "p", "b": "q"}
    arrows = {f: "|".join(rename[x] for x in f.split("|")) for f in src.arrows}
    arrows["b|a"] = "p|p"
    cells = {src.unit_cell[f]: h.id_cell(arrows[f]) for f in src.arrows}
    fun = strict_functor(src, h, rename, arrows, cells)
    assert [str(v) for v in verify_lax_functor(fun, h)] == [
        "endpoint fails at ('b|a',): arrow image endpoints"
    ]


def test_simplicial_round_trip_tables():
    h, fun = carry_functor(3)
    data = lax_to_simplicial(fun, h, h)
    assert verify_simplicial_map(data, h, h) == []
    for level in range(4):
        for img in data.levels[level].values():
            assert validate_simplex(h, img) == []
    back = simplicial_to_lax(data, h, h)
    assert back == fun
    assert lax_to_simplicial(back, h, h) == data


def test_map_simplex_preserves_validity():
    h, fun = carry_functor(4)
    for seed in range(4):
        s = sample_table_simplex(h, random.Random(seed), 3)
        assert validate_simplex(h, map_simplex(fun, h, s)) == []


def test_non_simplicial_data_is_rejected():
    h, fun = carry_functor(2)
    data = lax_to_simplicial(fun, h, h)
    key = next(iter(data.levels[2]))
    img = data.levels[2][key]
    tris = img.triangle_map()
    old = tris[(2, 1, 0)]
    f, a = old.split(";")
    tris[(2, 1, 0)] = f"{f};{str(1 - int(a))}"
    data.levels[2][key] = make_simplex(img.vertices, img.edge_map(), tris)
    with pytest.raises(NotSimplicialError):
        simplicial_to_lax(data, h, h)


def test_image_of_a_non_simplex_is_a_totality_violation():
    h, fun = carry_functor(2)
    data = lax_to_simplicial(fun, h, h)
    key = next(iter(data.levels[2]))
    edges = key.edge_map()
    edges[(1, 0)] = "1" if edges[(1, 0)] == "0" else "0"
    stray = make_simplex(key.vertices, edges, key.triangle_map())
    assert stray not in data.levels[2]
    data.levels[2][stray] = data.levels[2][key]
    assert [str(v) for v in verify_simplicial_map(data, h, h)] == [
        "totality fails at (2,): image of a labelling that is not a simplex"
    ]
    with pytest.raises(NotSimplicialError, match="not a simplex"):
        simplicial_to_lax(data, h, h)


def strict_gl_rep():
    """A strict functor from the pair groupoid on three letters into the
    2-groupoid of complexes, by invertible scalars T_y T_x^{-1}."""
    g = from_groupoid(pair_groupoid(["a", "b", "c"]))
    scal = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(-3)}
    scal0 = {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(5)}
    objs = {x: one_dim_object(x) for x in "abc"}
    arrow_map = {}
    for f, (x, y) in g.arrows.items():
        arrow_map[f] = scalar_arrow(
            objs[x], objs[y], scal[y] / scal[x], scal0[y] / scal0[x]
        )
    cell_map = {g.unit_cell[f]: GL.id_cell(arrow_map[f]) for f in g.arrows}
    fun = strict_functor(g, GL, objs, arrow_map, cell_map)
    return g, fun


def test_strict_gl_rep_is_lax_functor():
    _, fun = strict_gl_rep()
    assert verify_lax_functor(fun, GL) == []


def test_a_comparison_cell_off_the_composable_pairs_is_reported():
    rng = random.Random(0)
    g = pair_groupoid(["a", "b"])
    r = rand_strict_ruth(rng, g, rand_fiber_with_homology(rng, 1, 1, 1))
    fun = as_lax_functor(ruth_to_pseudofunctor(r))
    fun.comp_cell[("q", "a|b")] = next(iter(fun.comp_cell.values()))
    assert verify_lax_functor(fun, GL) == [Violation("composability", ("q", "a|b"))]


def test_gl_simplicial_round_trip():
    g, fun = strict_gl_rep()
    h = TableHandle(g)
    data = lax_to_simplicial(fun, h, GL)
    assert verify_simplicial_map(data, h, GL) == []
    assert simplicial_to_lax(data, h, GL) == fun


def kernel_transformation(g, fun, kvals):
    """H_x identities, H_f built from a family K_x of homotopy-kernel
    elements; always a lax transformation from fun to itself."""
    at_obj = {x: identity_arrow(fun.obj_map[x]) for x in g.objects}
    at_arrow = {}
    for f, (x, y) in g.arrows.items():
        ff = fun.arrow_map[f]
        r = ff.a1 @ kvals[x] - kvals[y] @ ff.a0
        src = GL.compose(at_obj[y], ff)
        dst = GL.compose(ff, at_obj[x])
        at_arrow[f] = GL2Cell(src, dst, r)
    return LaxTransformation(at_obj, at_arrow)


def test_kernel_transformation_verifies():
    g, fun = strict_gl_rep()
    kvals = {
        "a": RatMatrix.from_rows([[Fraction(1, 3)]]),
        "b": RatMatrix.from_rows([[Fraction(2)]]),
        "c": RatMatrix.from_rows([[Fraction(-1, 2)]]),
    }
    h = kernel_transformation(g, fun, kvals)
    assert verify_lax_transformation(h, fun, fun, GL) == []


def test_broken_transformation_fails_prism():
    g, fun = strict_gl_rep()
    kvals = {x: RatMatrix.from_rows([[Fraction(n)]]) for n, x in enumerate("abc")}
    h = kernel_transformation(g, fun, kvals)
    f = "b|a"
    cell = h.at_arrow[f]
    h.at_arrow[f] = GL2Cell(
        cell.source, cell.target, cell.r + RatMatrix.from_rows([[Fraction(1)]])
    )
    bad = verify_lax_transformation(h, fun, fun, GL)
    assert any(v.law == "transformation prism" for v in bad)


def test_homotopy_round_trip():
    g, fun = strict_gl_rep()
    kvals = {
        "a": RatMatrix.from_rows([[Fraction(0)]]),
        "b": RatMatrix.from_rows([[Fraction(3, 2)]]),
        "c": RatMatrix.from_rows([[Fraction(-2)]]),
    }
    h = kernel_transformation(g, fun, kvals)
    data = lax_transformation_to_homotopy(h, fun, GL)
    back = homotopy_to_lax_transformation(data, fun, fun, GL)
    assert back == h


def test_bad_homotopy_raises():
    g, fun = strict_gl_rep()
    kvals = {x: RatMatrix.from_rows([[Fraction(1)]]) for x in "abc"}
    h = kernel_transformation(g, fun, kvals)
    data = lax_transformation_to_homotopy(h, fun, GL)
    f = "c|a"
    cell = data.cell1[f]
    data.cell1[f] = GL2Cell(
        cell.source, cell.target, cell.r + RatMatrix.from_rows([[Fraction(2)]])
    )
    with pytest.raises(ValueError):
        homotopy_to_lax_transformation(data, fun, fun, GL)


def test_transformation_unit_axiom_checked():
    g, fun = strict_gl_rep()
    kvals = {x: RatMatrix.from_rows([[Fraction(0)]]) for x in "abc"}
    h = kernel_transformation(g, fun, kvals)
    u = g.unit_arrow["a"]
    cell = h.at_arrow[u]
    h.at_arrow[u] = GL2Cell(
        cell.source, cell.target, cell.r + RatMatrix.from_rows([[Fraction(1)]])
    )
    bad = verify_lax_transformation(h, fun, fun, GL)
    assert any(v.law == "transformation unit" for v in bad)
