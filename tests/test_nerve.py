"""Simplices, horn filling, coskeletal extension, and the edge filtration."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import glv.nerve as nerve
from glv.cli import main
from glv.documents import (
    decode_two_category,
    dump_document,
    encode_horn,
    encode_two_category,
    load_document,
)
from glv.groupoid import pair_groupoid
from glv.nerve import (
    GLHandle,
    IncompatibleBoundaryError,
    NoFillerError,
    TableHandle,
    coskeletal_extend,
    degeneracy,
    enumerate_nerve,
    face,
    facets,
    fill_horn,
    horn_of,
    initial_stage,
    make_horn,
    make_simplex,
    nerve_levels,
    reconstruct_stage,
    solve_tetrahedron,
    stage_to_simplex,
    strip_to_stage,
    tetrahedron_holds,
    triangle_of,
    validate_horn,
    validate_simplex,
)
from glv.reports import Violation
from glv.sampling import sample_gl_simplex, sample_table_simplex
from glv.twocat import (
    Fin2Cat,
    Fin2Groupoid,
    delooping,
    from_groupoid,
    monoid_delooping,
    verify_fin2cat,
)
from test_cli import _idempotent_category

GL = GLHandle()


def cyclic_handle(n: int) -> TableHandle:
    els = [str(i) for i in range(n)]
    mul = {(a, b): str((int(a) + int(b)) % n) for a in els for b in els}
    return TableHandle(delooping(els, mul, "0"))


def test_gl_simplices_validate():
    for seed in range(6):
        rng = random.Random(seed)
        for n in (2, 3):
            s = sample_gl_simplex(rng, n)
            assert validate_simplex(GL, s) == []


def test_gl_four_simplex_closes_the_cube():
    # the sampler solves four tetrahedron equations; the fifth face of the
    # cube, (4, 3, 2, 0), must then commute on its own
    for seed in range(4):
        s = sample_gl_simplex(random.Random(seed), 4)
        assert tetrahedron_holds(GL, s, (4, 3, 2, 0))
        assert validate_simplex(GL, s) == []


def test_table_simplices_validate():
    h = cyclic_handle(6)
    for seed in range(8):
        s = sample_table_simplex(h, random.Random(seed), 3)
        assert validate_simplex(h, s) == []
    hp = TableHandle(from_groupoid(pair_groupoid(["a", "b", "c"])))
    for seed in range(8):
        s = sample_table_simplex(hp, random.Random(seed), 4)
        assert validate_simplex(hp, s) == []


def test_validate_catches_broken_triangle():
    h = cyclic_handle(5)
    s = sample_table_simplex(h, random.Random(3), 3)
    tris = s.triangle_map()
    old = tris[(3, 2, 0)]
    tris[(3, 2, 0)] = str((int(old) + 1) % 5)
    bad = make_simplex(s.vertices, s.edge_map(), tris)
    laws = {v.law for v in validate_simplex(h, bad)}
    assert laws == {"tetrahedron"}


def test_weak_indices_give_identities():
    s = sample_gl_simplex(random.Random(1), 2)
    assert triangle_of(GL, s, 1, 1, 0).r.is_zero
    assert triangle_of(GL, s, 2, 2, 2).source == GL.id_arrow(s.vertices[2])


def test_faces_and_degeneracies_are_simplicial():
    h = cyclic_handle(4)
    s = sample_table_simplex(h, random.Random(7), 3)
    n = s.n
    for i in range(n + 1):
        assert validate_simplex(h, face(h, s, i)) == []
    for j in range(n + 1):
        assert validate_simplex(h, degeneracy(h, s, j)) == []
    # d_i d_j = d_{j-1} d_i for i < j
    for j in range(n + 1):
        for i in range(j):
            assert face(h, face(h, s, j), i) == face(h, face(h, s, i), j - 1)
    # d_i s_j identities
    for j in range(n + 1):
        assert face(h, degeneracy(h, s, j), j) == s
        assert face(h, degeneracy(h, s, j), j + 1) == s
    # s_i s_j = s_{j+1} s_i for i <= j
    for j in range(n + 1):
        for i in range(j + 1):
            assert degeneracy(h, degeneracy(h, s, j), i) == degeneracy(
                h, degeneracy(h, s, i), j + 1
            )


def test_degenerate_simplices_validate_over_gl():
    s = sample_gl_simplex(random.Random(5), 2)
    for j in range(3):
        assert validate_simplex(GL, degeneracy(GL, s, j)) == []


def test_shape_errors():
    s = sample_gl_simplex(random.Random(0), 2)
    with pytest.raises(ValueError):
        make_simplex(s.vertices, {}, s.triangle_map())
    with pytest.raises(ValueError):
        make_horn(2, 3, s.vertices, s.edge_map(), {})


@pytest.mark.parametrize("k", [0, 1, 2])
def test_fill_two_horns_gl(k):
    for seed in range(4):
        s = sample_gl_simplex(random.Random(seed), 2)
        horn = horn_of(s, k)
        assert validate_horn(GL, horn) == []
        filled = fill_horn(GL, horn)
        assert validate_simplex(GL, filled) == []
        assert horn_of(filled, k) == horn


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_fill_three_horns_are_unique_gl(k):
    # a (3, k) horn forces its missing triangle, so filling is exact
    for seed in range(3):
        s = sample_gl_simplex(random.Random(seed), 3)
        assert fill_horn(GL, horn_of(s, k)) == s


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_fill_three_horns_tables(k):
    h = cyclic_handle(6)
    for seed in range(5):
        s = sample_table_simplex(h, random.Random(seed), 3)
        assert fill_horn(h, horn_of(s, k)) == s


@pytest.mark.parametrize("k", [0, 2, 4])
def test_fill_four_horns(k):
    s = sample_gl_simplex(random.Random(11), 4)
    assert fill_horn(GL, horn_of(s, k)) == s
    h = cyclic_handle(3)
    t = sample_table_simplex(h, random.Random(2), 4)
    assert fill_horn(h, horn_of(t, k)) == t


def test_unfillable_horn_reports_no_filler():
    mul = {(a, b): str(int(a) * int(b)) for a in "01" for b in "01"}
    cat = monoid_delooping(["0", "1"], mul, "1")
    h = TableHandle(cat)
    star = cat.objects[0]
    f = cat.unit_arrow[star]
    horn = make_horn(
        3,
        1,
        (star, star, star, star),
        {(j, i): f for j in range(4) for i in range(j)},
        {(2, 1, 0): "0", (3, 2, 1): "1", (3, 1, 0): "1"},
    )
    assert validate_horn(h, horn) == []
    with pytest.raises(NoFillerError):
        fill_horn(h, horn)


def test_perturbed_three_horn_fills_differently():
    # a (3, k) horn with any endpoint-compatible faces is still a horn; the
    # forced face moves with it
    h = cyclic_handle(5)
    s = sample_table_simplex(h, random.Random(9), 3)
    horn = horn_of(s, 1)
    tris = horn.triangle_map()
    tris[(3, 2, 1)] = str((int(tris[(3, 2, 1)]) + 2) % 5)
    other = make_horn(3, 1, horn.vertices, horn.edge_map(), tris)
    filled = fill_horn(h, other)
    assert validate_simplex(h, filled) == []
    assert filled.triangle_map()[(3, 2, 0)] != s.triangle_map()[(3, 2, 0)]


def test_fill_rejects_invalid_horn():
    h = cyclic_handle(5)
    s = sample_table_simplex(h, random.Random(9), 4)
    horn = horn_of(s, 2)
    tris = horn.triangle_map()
    tris[(3, 2, 1)] = str((int(tris[(3, 2, 1)]) + 2) % 5)
    bad = make_horn(4, 2, horn.vertices, horn.edge_map(), tris)
    assert any(v.law == "tetrahedron" for v in validate_horn(h, bad))
    with pytest.raises(NoFillerError):
        fill_horn(h, bad)


def _unit_edge_horn(k: int):
    """The multiplicative monoid on 0 and 1 as a one-object 2-category, and a
    4-horn over it with every edge the unit arrow whose tetrahedra commute
    while the tetrahedron of its k-th face does not: the first triangle
    labelling in product order.  Whiskering by the unit arrow is the
    identity, so (l, c, b, a) commutes when
    u_{c,b,a} u_{l,c,a} = u_{l,c,b} u_{l,b,a}."""
    mul = {(a, b): str(int(a) * int(b)) for a in "01" for b in "01"}
    cat = monoid_delooping(["0", "1"], mul, "1")
    star, unit = cat.objects[0], cat.unit_arrow[cat.objects[0]]
    tris = list(combinations(range(4, -1, -1), 3))
    for labels in product("01", repeat=len(tris)):
        t = dict(zip(tris, labels))
        holds = {
            (l, c, b, a): mul[(t[(c, b, a)], t[(l, c, a)])] == mul[(t[(l, c, b)], t[(l, b, a)])]
            for l, c, b, a in combinations(range(4, -1, -1), 4)
        }
        if all(ok == (k in quad) for quad, ok in holds.items()):
            edges = {e: unit for e in combinations(range(4, -1, -1), 2)}
            return cat, make_horn(4, k, (star,) * 5, edges, t)
    raise AssertionError(f"no such horn for k = {k}")


@pytest.mark.parametrize("k", range(5))
def test_fill_checks_the_tetrahedron_the_horn_lacks(k, tmp_path):
    # the one check after filling that can fail on a valid horn
    cat, horn = _unit_edge_horn(k)
    h = TableHandle(cat)
    missing = tuple(t for t in range(4, -1, -1) if t != k)
    assert validate_horn(h, horn) == []
    with pytest.raises(NoFillerError) as err:
        fill_horn(h, horn)
    assert str(err.value) == f"no filler exists: tetrahedron fails at {missing}"
    path = tmp_path / "horn.json"
    path.write_text(dump_document("horn", encode_horn(horn, cat)))
    assert CliRunner().invoke(main, ["verify", str(path)]).output == "ok: horn\n"
    result = CliRunner().invoke(main, ["fill", str(path)])
    assert result.exit_code == 1
    assert result.output == f"no filler: no filler exists: tetrahedron fails at {missing}\n"


@pytest.mark.parametrize("source", ["gl", "table"])
def test_five_horns_of_degenerate_simplices_fill_back(source):
    # above dimension 4 the horn carries every label and every tetrahedron,
    # so filling assembles and checks nothing more
    if source == "gl":
        h, s = GL, sample_gl_simplex(random.Random(5), 4)
    else:
        h = cyclic_handle(3)
        s = sample_table_simplex(h, random.Random(5), 4)
    for j in range(5):
        d = degeneracy(h, s, j)
        for k in range(6):
            assert fill_horn(h, horn_of(d, k)) == d


def test_four_horns_check_each_tetrahedron_once(monkeypatch):
    s = sample_gl_simplex(random.Random(11), 4)
    calls = Counter()

    def counted(name):
        original = getattr(nerve, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(nerve, name, wrapper)

    counted("_tetrahedron_sides")
    counted("validate_simplex")
    for k in range(5):
        assert fill_horn(GL, horn_of(s, k)) == s
    # four tetrahedra on each horn, then the one of its missing face
    assert calls == {"_tetrahedron_sides": 25}


def _solver_cases():
    z5 = cyclic_handle(5)
    pair3 = TableHandle(from_groupoid(pair_groupoid(["a", "b", "c"])))
    for seed in range(10):
        for n in (3, 4):
            yield GL, sample_gl_simplex(random.Random(seed), n)
            yield z5, sample_table_simplex(z5, random.Random(seed), n)
            yield pair3, sample_table_simplex(pair3, random.Random(seed), n)


def test_solve_tetrahedron_recovers_each_face():
    # opposite j or k the face is forced, so the solver returns the
    # simplex's own label; opposite l or i it goes through a quasi-inverse
    # and need only return a face that closes the tetrahedron
    for handle, s in _solver_cases():
        edges, tris = s.edge_map(), s.triangle_map()
        for quad in combinations(range(s.n, -1, -1), 4):
            l, k, j, i = quad
            for omit in quad:
                absent = tuple(t for t in quad if t != omit)
                rest = {t: r for t, r in tris.items() if t != absent}
                got = solve_tetrahedron(handle, edges, rest, quad, omit)
                if omit in (j, k):
                    assert got == tris[absent]
                    continue
                c, b, a = absent
                assert handle.cell_src(got) == edges[(c, a)]
                assert handle.cell_tgt(got) == handle.compose(edges[(c, b)], edges[(b, a)])
                closed = make_simplex(s.vertices, edges, {**rest, absent: got})
                assert tetrahedron_holds(handle, closed, quad)


def _reference_horn(n: int, k: int) -> tuple[set, set, set]:
    """Lambda^n_k as the union of the faces other than the k-th: its edges,
    triangles and tetrahedra, each listed with decreasing indices."""
    edges, tris, quads = set(), set(), set()
    for omit in range(n + 1):
        if omit == k:
            continue
        verts = [t for t in range(n, -1, -1) if t != omit]
        edges.update(combinations(verts, 2))
        tris.update(combinations(verts, 3))
        quads.update(combinations(verts, 4))
    return edges, tris, quads


# labels every edge and triangle by its own indices, so that every endpoint
# check passes; like a TableHandle, it is its own cell view
INDEX_HANDLE = SimpleNamespace(
    arrow_src=lambda f: f[1],
    arrow_tgt=lambda f: f[0],
    cell_src=lambda r: (r[0], r[2]),
    cell_tgt=lambda r: r,
    compose=lambda g, f: (*g, f[1]),
    cell_view=lambda tris: (INDEX_HANDLE, tris),
)


@pytest.mark.parametrize("n", range(7))
def test_horn_shape_is_the_union_of_the_other_faces(n, monkeypatch):
    checked = []
    monkeypatch.setattr(
        nerve, "_tetrahedron_sides", lambda h, e, t, quad: checked.append(quad) or (0, 0)
    )
    verts = tuple(range(n + 1))
    all_edges = set(combinations(range(n, -1, -1), 2))
    all_tris = set(combinations(range(n, -1, -1), 3))
    s = make_simplex(verts, {e: e for e in all_edges}, {t: t for t in all_tris})
    for k in range(n + 1):
        edges, tris, quads = _reference_horn(n, k)
        horn = horn_of(s, k)
        assert set(horn.edge_map()) == edges
        assert set(horn.triangle_map()) == tris
        assert make_horn(n, k, verts, horn.edge_map(), horn.triangle_map()) == horn
        # make_horn requires exactly the reference labels
        for label in all_edges:
            with pytest.raises(ValueError):
                make_horn(n, k, verts, {e: e for e in edges ^ {label}}, horn.triangle_map())
        for label in all_tris:
            with pytest.raises(ValueError):
                make_horn(n, k, verts, horn.edge_map(), {t: t for t in tris ^ {label}})
        checked.clear()
        assert validate_horn(INDEX_HANDLE, horn) == []
        assert sorted(checked) == sorted(quads)


def test_coskeletal_extension_round_trip():
    s = sample_gl_simplex(random.Random(13), 4)
    assert coskeletal_extend(GL, facets(GL, s)) == s
    h = cyclic_handle(4)
    t = sample_table_simplex(h, random.Random(1), 3)
    assert coskeletal_extend(h, facets(h, t)) == t


def test_coskeletal_extension_rejects_mismatch():
    h = cyclic_handle(4)
    t = sample_table_simplex(h, random.Random(1), 3)
    fs = facets(h, t)
    tris = fs[0].triangle_map()
    tris[(2, 1, 0)] = str((int(tris[(2, 1, 0)]) + 1) % 4)
    fs[0] = make_simplex(fs[0].vertices, fs[0].edge_map(), tris)
    with pytest.raises(IncompatibleBoundaryError):
        coskeletal_extend(h, fs)


def test_enumeration_counts_for_deloopings():
    for m in (2, 3):
        h = cyclic_handle(m)
        assert len(enumerate_nerve(h, 0)) == 1
        assert len(enumerate_nerve(h, 1)) == 1
        assert len(enumerate_nerve(h, 2)) == m
        assert len(enumerate_nerve(h, 3)) == m**3
        for s in enumerate_nerve(h, 3):
            assert validate_simplex(h, s) == []


@pytest.mark.parametrize(
    "source", ["two_category_delooping_z4.json", "two_category_pair.json", 2, 3]
)
def test_enumerated_simplices_need_no_validation(source):
    # glv nerve validates nothing it enumerates: over a verified 2-category
    # every simplex the filtration builds commutes, which this re-checks.
    # Nor does enumeration pass labels through make_simplex: it keeps them
    # sorted, and each simplex must equal the one make_simplex would build
    if isinstance(source, int):
        h = cyclic_handle(source)
    else:
        _, payload = load_document((Path(__file__).parent / "fixtures" / source).read_text())
        h = TableHandle(decode_two_category(payload))
    levels = list(nerve_levels(h, 4))
    assert len(levels) == 5
    for level, simplices in enumerate(levels):
        assert simplices and all(s.n == level for s in simplices)
        for s in simplices:
            assert validate_simplex(h, s) == []
            assert s == make_simplex(s.vertices, s.edge_map(), s.triangle_map())
        assert enumerate_nerve(h, level) == simplices


def test_enumeration_matches_one_categorical_nerve():
    # a groupoid seen as a 2-category with only identity cells has the
    # nerve of the groupoid: one simplex per chain of arrows
    g = pair_groupoid(["a", "b"])
    h = TableHandle(from_groupoid(g))
    for level in (0, 1, 2, 3):
        assert len(enumerate_nerve(h, level)) == 2 ** (level + 1)


def test_enumeration_at_level_four_is_coskeletal():
    h = cyclic_handle(3)
    level4 = enumerate_nerve(h, 4)
    assert len(level4) == 3**6
    assert len(set(level4)) == 3**6
    for s in level4[:: 40]:
        assert validate_simplex(h, s) == []
        assert coskeletal_extend(h, facets(h, s)) == s


def _reference_levels(cat, top: int):
    """The nerve level by level, each stage a pair of label dicts extended
    down the filtration through the checked Fin2Cat operations: the
    reference for nerve_levels, which reads the tables by position."""

    def inverse(r):
        if isinstance(cat, Fin2Groupoid):
            return cat.inv2[r]
        f, g = cat.cells[r]
        for s in cat.cells_between(g, f):
            if cat.vcompose(s, r) == cat.unit_cell[f] and cat.vcompose(r, s) == cat.unit_cell[g]:
                return s
        raise NoFillerError(Violation("inverse law", (r,)))

    level = [make_simplex((x,), {}, {}) for x in cat.objects]
    yield level
    for n in range(1, top + 1):
        out = []
        for base in level:
            for e in (f for f, (x, _) in cat.arrows.items() if x == base.vertices[-1]):
                stages = [({**base.edge_map(), (n, n - 1): e}, base.triangle_map())]
                for k1 in range(n - 1, 0, -1):
                    k, extended = k1 - 1, []
                    for edges, tris in stages:
                        target = cat.compose(edges[(n, k1)], edges[(k1, k)])
                        for alpha in (r for r, (_, g) in cat.cells.items() if g == target):
                            ed = {**edges, (n, k): cat.cell_src(alpha)}
                            tr = {**tris, (n, k1, k): alpha}
                            for l in range(k1 + 1, n):
                                right = cat.hcompose(tr[(n, l, k1)], cat.unit_cell[ed[(k1, k)]])
                                inv = inverse(tr[(l, k1, k)])
                                left = cat.hcompose(cat.unit_cell[ed[(n, l)]], inv)
                                tr[(n, l, k)] = cat.vcompose(left, cat.vcompose(right, alpha))
                            extended.append((ed, tr))
                    stages = extended
                vertices = base.vertices + (cat.arrow_tgt(e),)
                out.extend(make_simplex(vertices, ed, tr) for ed, tr in stages)
        level = out
        yield level


def _levels_and_error(levels):
    """The levels an enumeration yields, and the arguments of the
    NoFillerError that stops it, if one does."""
    got = []
    try:
        for simplices in levels:
            got.append(simplices)
    except NoFillerError as e:
        return got, e.args
    return got, None


def _category(source):
    if source == "idempotent":
        return decode_two_category(_idempotent_category())
    if isinstance(source, int):
        return cyclic_handle(source).cat
    _, payload = load_document((Path(__file__).parent / "fixtures" / source).read_text())
    return decode_two_category(payload)


@pytest.mark.parametrize(
    "source", ["two_category_delooping_z4.json", "two_category_pair.json", 2, 3, "idempotent"]
)
def test_nerve_levels_match_the_reference_enumeration(source):
    # the same simplices in the same order, level by level; over the
    # idempotent category both stop at level 3 on the same cell
    cat = _category(source)
    assert verify_fin2cat(cat) == []
    got = _levels_and_error(nerve_levels(TableHandle(cat), 4))
    assert got == _levels_and_error(_reference_levels(cat, 4))
    levels, error = got
    if source == "idempotent":
        assert len(levels) == 3 and error == (Violation("inverse law", ("e",)),)
    else:
        assert len(levels) == 5 and error is None


def test_nerve_levels_check_each_table_entry_once(monkeypatch):
    # over a verified category enumeration composes by table reads alone,
    # and looks for the inverse of each cell at most once; the monoid
    # delooping of Z/3 is a 2-category whose cells are invertible but carry
    # no inverse table
    els = ["0", "1", "2"]
    cat = monoid_delooping(els, {(a, b): str((int(a) + int(b)) % 3) for a in els for b in els}, "0")
    assert verify_fin2cat(cat) == []
    handle = TableHandle(cat)
    calls, inverted = Counter(), set()

    def counted(owner, name, record):
        original = getattr(owner, name)

        def wrapper(self, *args):
            record(name, args)
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("compose", "vcompose", "hcompose", "cells_between"):
        counted(Fin2Cat, name, lambda name, args: calls.update([name]))
    counted(TableHandle, "invert_cell", lambda name, args: inverted.add(args))
    levels = list(nerve_levels(handle, 4))
    assert [len(simplices) for simplices in levels] == [1, 1, 3, 27, 729]
    assert len(inverted) == 3
    assert calls == {"cells_between": 3}


def _traced_peak(run):
    """The tracemalloc peak while run() runs, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_nerve_verb_counts_the_top_level_without_listing_it(tmp_path):
    # glv nerve lists the levels below --level and counts the top one as it
    # is built: on the Z/6 delooping at level 4 (46,656 simplices) its peak
    # stays under half that of listing the top level
    cat = cyclic_handle(6).cat
    path = tmp_path / "z6.json"
    path.write_text(dump_document("two-category", encode_two_category(cat)))
    listed, levels = _traced_peak(lambda: list(nerve_levels(TableHandle(cat), 4)))
    assert len(levels[4]) == 6**6
    del levels
    argv = ["nerve", str(path), "--level", "4"]
    counted, result = _traced_peak(lambda: CliRunner().invoke(main, argv))
    assert result.exit_code == 0
    assert result.output.splitlines()[-2:] == ["level 3: 216 simplices", "level 4: 46656 simplices"]
    assert counted < listed / 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_filtration_round_trip_gl(n):
    s = sample_gl_simplex(random.Random(n), n)
    tris = s.triangle_map()
    for start in range(1, n):
        stage = strip_to_stage(s, start)
        for k1 in range(start, 0, -1):
            stage = reconstruct_stage(GL, stage, tris[(n, k1, k1 - 1)])
        assert stage_to_simplex(stage) == s


@pytest.mark.parametrize("n", [3, 4])
def test_filtration_round_trip_tables(n):
    h = cyclic_handle(6)
    for seed in range(4):
        s = sample_table_simplex(h, random.Random(seed), n)
        tris = s.triangle_map()
        stage = strip_to_stage(s, n - 1)
        for k1 in range(n - 1, 0, -1):
            stage = reconstruct_stage(h, stage, tris[(n, k1, k1 - 1)])
        assert stage_to_simplex(stage) == s


def test_initial_stage_matches_strip():
    h = cyclic_handle(5)
    s = sample_table_simplex(h, random.Random(4), 3)
    base = face(h, s, 3)
    st = initial_stage(h, base, s.vertices[3], s.edge_map()[(3, 2)])
    assert st == strip_to_stage(s, 2)


def test_reconstruct_rejects_wrong_target():
    h = TableHandle(from_groupoid(pair_groupoid(["a", "b", "c", "d"])))
    s = sample_table_simplex(h, random.Random(4), 3, start="a")
    stage = strip_to_stage(s, 2)
    with pytest.raises(ValueError):
        # a 2-cell aimed at the wrong composite cannot extend the stage
        reconstruct_stage(h, stage, h.id_cell(h.id_arrow("a")))
