from itertools import permutations
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glv import twocat
from glv.documents import decode_two_category, load_document
from glv.groupoid import cyclic_group, pair_groupoid
from glv.reports import Violation
from glv.twocat import (
    Fin2Groupoid,
    delooping,
    find_quasi_inverse,
    from_groupoid,
    monoid_delooping,
    right_mult_equivalence,
    verify_2category,
    verify_2groupoid,
    verify_fin2cat,
)
from helpers import strict_two_group

FIXTURES = Path(__file__).parent / "fixtures"


def s3_table():
    els = list(permutations((0, 1, 2)))
    name = {p: "".join(map(str, p)) for p in els}
    mul = {}
    for a in els:
        for b in els:
            c = tuple(a[b[i]] for i in range(3))  # a after b
            mul[(name[a], name[b])] = name[c]
    return tuple(name[p] for p in els), mul, name[(0, 1, 2)]


def test_delooping_cyclic_groups_verify():
    for n in range(1, 7):
        els, mul, unit = cyclic_group(n)
        g = delooping(els, mul, unit)
        assert not verify_2groupoid(g)


def test_delooping_rejects_nonabelian():
    els, mul, unit = s3_table()
    with pytest.raises(ValueError, match="interchange"):
        delooping(els, mul, unit)


def test_monoid_delooping_is_2category_not_2groupoid():
    els = ("0", "1")
    mul = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    c = monoid_delooping(els, mul, "1")
    assert not verify_2category(c)
    # forcing an inversion table exposes the non-invertible cell "0"
    g = Fin2Groupoid(**{**c.__dict__}, inv2={"0": "0", "1": "1"})
    report = verify_2groupoid(g)
    assert any(v.law == "inverse law" and v.where == ("0",) for v in report)


def test_from_groupoid_is_2groupoid():
    g = from_groupoid(pair_groupoid(["a", "b", "c"]))
    assert not verify_2groupoid(g)


def test_broken_associativity_detected():
    els, mul, unit = cyclic_group(3)
    g = delooping(els, mul, unit)
    g.vcomp[("1", "1")] = "0"  # was "2"
    report = verify_2groupoid(g)
    assert report
    laws = {v.law for v in report}
    assert laws & {"associativity", "interchange", "inverse law"}


def test_strict_2group_from_extension_data():
    # arrows a group Q, cells pairs (arrow, K) with componentwise tables
    q_els, q_mul, q_unit = cyclic_group(2)
    k_els, k_mul, k_unit = cyclic_group(2)
    arrows = {f: ("*", "*") for f in q_els}
    cell = lambda f, a: f"{f};{a}"
    cells = {cell(f, a): (f, f) for f in q_els for a in k_els}
    comp1 = {(g, f): q_mul[(g, f)] for g in q_els for f in q_els}
    hcomp = {
        (cell(g, a), cell(f, b)): cell(q_mul[(g, f)], k_mul[(a, b)])
        for g in q_els
        for f in q_els
        for a in k_els
        for b in k_els
    }
    vcomp = {
        (cell(f, a), cell(f, b)): cell(f, k_mul[(a, b)])
        for f in q_els
        for a in k_els
        for b in k_els
    }
    k_inv = {a: next(b for b in k_els if k_mul[(a, b)] == k_unit) for a in k_els}
    g2 = Fin2Groupoid(
        objects=("*",),
        arrows=arrows,
        cells=cells,
        comp1=comp1,
        hcomp=hcomp,
        vcomp=vcomp,
        unit_arrow={"*": q_unit},
        unit_cell={f: cell(f, k_unit) for f in q_els},
        inv2={cell(f, a): cell(f, k_inv[a]) for f in q_els for a in k_els},
    )
    assert not verify_2groupoid(g2)
    w = right_mult_equivalence(g2, "1", "*")
    assert w.inverse == "1"
    assert set(w.nu) == set(g2.arrows)
    assert set(w.mu) == set(g2.arrows)


def test_find_quasi_inverse_in_delooping():
    els, mul, unit = cyclic_group(4)
    g = delooping(els, mul, unit)
    got = find_quasi_inverse(g, "id")
    assert got is not None and got[0] == "id"


def test_right_mult_equivalence_delooping():
    els, mul, unit = cyclic_group(3)
    g = delooping(els, mul, unit)
    w = right_mult_equivalence(g, "id", "*")
    assert w.f == "id"


def reference_2category_laws(c):
    """The law stage as it read before it went straight to the tables:
    every instance through the checking methods of Fin2Cat, partners found
    by scanning every arrow or cell."""
    for g, f in c.composable_arrow_pairs():
        gf = c.compose(g, f)
        if c.compose(gf, c.unit_arrow[c.arrow_src(f)]) != gf:
            yield Violation("unit law", (gf,))
    for f in c.arrows:
        if (
            c.compose(f, c.unit_arrow[c.arrow_src(f)]) != f
            or c.compose(c.unit_arrow[c.arrow_tgt(f)], f) != f
        ):
            yield Violation("unit law", (f,))
    for h, g in c.composable_arrow_pairs():
        for f in c.arrows:
            if c.arrow_src(g) == c.arrow_tgt(f):
                if c.compose(c.compose(h, g), f) != c.compose(h, c.compose(g, f)):
                    yield Violation("associativity", (h, g, f))
    for r in c.cells:
        f, g = c.cells[r]
        if c.vcompose(r, c.unit_cell[f]) != r or c.vcompose(c.unit_cell[g], r) != r:
            yield Violation("unit law", (r,), "vertical")
    for t, s in c.vcomposable_cell_pairs():
        for r in c.cells:
            if c.cell_tgt(r) == c.cell_src(s):
                if c.vcompose(c.vcompose(t, s), r) != c.vcompose(t, c.vcompose(s, r)):
                    yield Violation("associativity", (t, s, r), "vertical")
    for s, r in c.hcomposable_cell_pairs():
        for q in c.cells:
            if c.arrow_src(c.cell_src(r)) == c.arrow_tgt(c.cell_src(q)):
                if c.hcompose(c.hcompose(s, r), q) != c.hcompose(s, c.hcompose(r, q)):
                    yield Violation("associativity", (s, r, q), "horizontal")
    for f in c.arrows:
        u_src = c.unit_cell[c.unit_arrow[c.arrow_src(f)]]
        u_tgt = c.unit_cell[c.unit_arrow[c.arrow_tgt(f)]]
        for r in [r for r, (a, _) in c.cells.items() if a == f]:
            if c.hcompose(r, u_src) != r or c.hcompose(u_tgt, r) != r:
                yield Violation("unit law", (r,), "horizontal")
    for g, f in c.composable_arrow_pairs():
        if c.hcompose(c.unit_cell[g], c.unit_cell[f]) != c.unit_cell[c.compose(g, f)]:
            yield Violation("unit law", (g, f), "horizontal composite of identity cells")
    for sp, s in c.vcomposable_cell_pairs():
        for rp, r in c.vcomposable_cell_pairs():
            if c.arrow_src(c.cell_src(s)) == c.arrow_tgt(c.cell_src(r)):
                lhs = c.hcompose(c.vcompose(sp, s), c.vcompose(rp, r))
                rhs = c.vcompose(c.hcompose(sp, rp), c.hcompose(s, r))
                if lhs != rhs:
                    yield Violation("interchange", (sp, s, rp, r))


def _fixture_category(name):
    _, payload = load_document((FIXTURES / name).read_text())
    return decode_two_category(payload)


def _idempotent_monoid():
    mul = {(a, b): str(int(a) * int(b)) for a in "01" for b in "01"}
    return monoid_delooping(["0", "1"], mul, "1")


LAW_INPUTS = {
    **{f"Z/{n}": (lambda n=n: delooping(*cyclic_group(n))) for n in range(2, 6)},
    "idempotent monoid": _idempotent_monoid,
    "pair 2-groupoid": lambda: from_groupoid(pair_groupoid(["a", "b", "c"])),
    "strict 2-group": lambda: strict_two_group(2),
    "delooping fixture": lambda: _fixture_category("two_category_delooping_z4.json"),
    "pair fixture": lambda: _fixture_category("two_category_pair.json"),
}

EDITS = (
    "set comp1",
    "set vcomp",
    "set hcomp",
    "set unit_arrow",
    "set unit_cell",
    "drop comp1",
    "drop vcomp",
    "drop hcomp",
    "move source",
    "move target",
)


def _nth(names, i):
    return sorted(names)[i % len(names)]


def _edit(c, kind, i, j):
    """Change a table value to another name, drop a table entry, or move
    one endpoint of a cell to another arrow."""
    verb, name = kind.split()
    if verb == "move":
        r = _nth(c.cells, i)
        f, g = c.cells[r]
        a = _nth(c.arrows, j)
        c.cells[r] = (a, g) if name == "source" else (f, a)
        return
    table = getattr(c, name)
    if not table:
        return
    key = _nth(table, i)
    if verb == "drop":
        del table[key]
    else:
        table[key] = _nth(c.arrows if name in ("comp1", "unit_arrow") else c.cells, j)


@given(
    st.sampled_from(sorted(LAW_INPUTS)),
    st.lists(
        st.tuples(st.sampled_from(EDITS), st.integers(0, 999), st.integers(0, 999)),
        min_size=1,
        max_size=3,
    ),
)
# single edits whose violations come in several partners' order, so that a
# skipped partner or a reversed index shows on every run
@example("Z/2", [("set vcomp", 0, 1)])
@example("Z/2", [("set hcomp", 0, 1)])
@example("Z/2", [("set unit_cell", 0, 1)])
@example("strict 2-group", [("set unit_arrow", 0, 1)])
@settings(max_examples=400, deadline=None)
def test_law_stage_matches_the_reference(name, edits):
    # the law stage reads the tables straight after the gate checked them;
    # it must report what the checked-method loops reported, in their order
    c = LAW_INPUTS[name]()
    for edit in edits:
        _edit(c, *edit)
    with patch.object(twocat, "_2category_laws", reference_2category_laws):
        want = verify_fin2cat(c)
    assert verify_fin2cat(c) == want
