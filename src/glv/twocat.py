"""Finite strict 2-categories and 2-groupoids given by explicit tables.

A Fin2Cat stores objects, arrows and 2-cells as strings, with source and
target tables, a composition table for arrows, horizontal and vertical
composition tables for 2-cells (defined exactly on the composable pairs) and
unit tables.  A Fin2Groupoid adds a vertical inversion table; quasi-inverses
of arrows are found by search.

The verifiers gate their stages: endpoints, units, totality of the tables,
then the laws.  The law stage reads the tables directly, without the
composability checks of compose/vcompose/hcompose, because the gate has
already checked every pair it looks up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable, Iterator, Mapping

from .groupoid import FinGroupoid
from .reports import Violation, gate


@dataclass
class Fin2Cat:
    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]  # arrow -> (src obj, tgt obj)
    cells: dict[str, tuple[str, str]]  # cell -> (src arrow, tgt arrow)
    comp1: dict[tuple[str, str], str]  # (g, f), src(g) = tgt(f) -> g . f
    hcomp: dict[tuple[str, str], str]  # horizontally composable cell pairs
    vcomp: dict[tuple[str, str], str]  # (s, r) with tgt(r) = src(s)
    unit_arrow: dict[str, str]  # object -> identity arrow
    unit_cell: dict[str, str]  # arrow -> identity cell

    def arrow_src(self, f: str) -> str:
        return self.arrows[f][0]

    def arrow_tgt(self, f: str) -> str:
        return self.arrows[f][1]

    def cell_src(self, r: str) -> str:
        return self.cells[r][0]

    def cell_tgt(self, r: str) -> str:
        return self.cells[r][1]

    def compose(self, g: str, f: str) -> str:
        if self.arrow_src(g) != self.arrow_tgt(f):
            raise ValueError(f"arrows not composable: {g} . {f}")
        return self.comp1[(g, f)]

    def vcompose(self, s: str, r: str) -> str:
        """r first, then s."""
        if self.cell_tgt(r) != self.cell_src(s):
            raise ValueError(f"cells not vertically composable: {s} * {r}")
        return self.vcomp[(s, r)]

    def hcompose(self, s: str, r: str) -> str:
        if self.arrow_src(self.cell_src(s)) != self.arrow_tgt(self.cell_src(r)):
            raise ValueError(f"cells not horizontally composable: {s} o {r}")
        return self.hcomp[(s, r)]

    def cells_between(self, f: str, g: str) -> list[str]:
        return [r for r, (a, b) in self.cells.items() if a == f and b == g]

    def arrows_between(self, x: str, y: str) -> list[str]:
        return [f for f, (a, b) in self.arrows.items() if a == x and b == y]

    def composable_arrow_pairs(self):
        for g, f in product(self.arrows, self.arrows):
            if self.arrow_src(g) == self.arrow_tgt(f):
                yield g, f

    def vcomposable_cell_pairs(self):
        for s, r in product(self.cells, self.cells):
            if self.cell_tgt(r) == self.cell_src(s):
                yield s, r

    def hcomposable_cell_pairs(self):
        for s, r in product(self.cells, self.cells):
            if self.arrow_src(self.cell_src(s)) == self.arrow_tgt(self.cell_src(r)):
                yield s, r


@dataclass
class Fin2Groupoid(Fin2Cat):
    inv2: dict[str, str] = field(default_factory=dict)  # vertical inverses


def verify_2category(c: Fin2Cat) -> list[Violation]:
    no_unit = chain(
        (x for x in c.objects if c.arrows.get(c.unit_arrow.get(x)) != (x, x)),
        (f for f in c.arrows if c.cells.get(c.unit_cell.get(f)) != (f, f)),
    )
    return gate(
        _endpoints(c),
        (Violation("unit law", (u,)) for u in no_unit),
        _tables(c),
        _2category_laws(c),
    )


def _endpoints(c: Fin2Cat) -> Iterator[Violation]:
    for f, (s, t) in c.arrows.items():
        if s not in c.objects or t not in c.objects:
            yield Violation("endpoint", (f,))
    for r, (f, g) in c.cells.items():
        if f not in c.arrows or g not in c.arrows:
            yield Violation("endpoint", (r,))
        elif c.arrows[f] != c.arrows[g]:
            yield Violation("endpoint", (r,), "2-cell between non-parallel arrows")


def _tables(c: Fin2Cat) -> Iterator[Violation]:
    """Totality of the tables on composable pairs."""
    for g, f in c.composable_arrow_pairs():
        r = c.comp1.get((g, f))
        if r is None or c.arrows.get(r) != (c.arrow_src(f), c.arrow_tgt(g)):
            yield Violation("composability", (g, f))
    for s, r in c.vcomposable_cell_pairs():
        v = c.vcomp.get((s, r))
        if v is None or c.cells.get(v) != (c.cell_src(r), c.cell_tgt(s)):
            yield Violation("composability", (s, r), "vertical")
    for s, r in c.hcomposable_cell_pairs():
        h = c.hcomp.get((s, r))
        # .get: a missing arrow composite is already reported above
        expect = (
            c.comp1.get((c.cell_src(s), c.cell_src(r))),
            c.comp1.get((c.cell_tgt(s), c.cell_tgt(r))),
        )
        if h is None or c.cells.get(h) != expect:
            yield Violation("composability", (s, r), "horizontal")


def _2category_laws(c: Fin2Cat) -> Iterator[Violation]:
    """Every law instance, in a fixed order, read straight off the tables.

    The gate runs this stage only after endpoints, units and totality have
    passed, so each lookup below is of a composable pair and is present.
    Composable partners come from indexes built here, each in table order;
    they are not kept on c, whose tables may change after construction."""
    arrows, cells = c.arrows, c.cells
    comp1, vcomp, hcomp = c.comp1, c.vcomp, c.hcomp
    unit_arrow, unit_cell = c.unit_arrow, c.unit_cell
    arrows_into: dict[str, list[str]] = {x: [] for x in c.objects}
    for f, (_, y) in arrows.items():
        arrows_into[y].append(f)
    cells_into: dict[str, list[str]] = {f: [] for f in arrows}  # r: _ => f
    cells_out: dict[str, list[str]] = {f: [] for f in arrows}  # r: f => _
    cells_over: dict[str, list[str]] = {x: [] for x in c.objects}  # r between arrows into x
    cell_src_obj: dict[str, str] = {}
    for r, (f, g) in cells.items():
        cells_into[g].append(r)
        cells_out[f].append(r)
        x, y = arrows[f]
        cells_over[y].append(r)
        cell_src_obj[r] = x
    arrow_pairs = [(g, f) for g, (y, _) in arrows.items() for f in arrows_into[y]]
    cell_pairs = [(s, r) for s, (f, _) in cells.items() for r in cells_into[f]]

    for g, f in arrow_pairs:
        gf = comp1[(g, f)]
        if comp1[(gf, unit_arrow[arrows[f][0]])] != gf:
            yield Violation("unit law", (gf,))
    for f, (x, y) in arrows.items():
        if comp1[(f, unit_arrow[x])] != f or comp1[(unit_arrow[y], f)] != f:
            yield Violation("unit law", (f,))
    for h, g in arrow_pairs:
        hg = comp1[(h, g)]
        for f in arrows_into[arrows[g][0]]:
            if comp1[(hg, f)] != comp1[(h, comp1[(g, f)])]:
                yield Violation("associativity", (h, g, f))
    for r, (f, g) in cells.items():
        if vcomp[(r, unit_cell[f])] != r or vcomp[(unit_cell[g], r)] != r:
            yield Violation("unit law", (r,), "vertical")
    for t, s in cell_pairs:
        ts = vcomp[(t, s)]
        for r in cells_into[cells[s][0]]:
            if vcomp[(ts, r)] != vcomp[(t, vcomp[(s, r)])]:
                yield Violation("associativity", (t, s, r), "vertical")
    for s in cells:
        for r in cells_over[cell_src_obj[s]]:
            sr = hcomp[(s, r)]
            for q in cells_over[cell_src_obj[r]]:
                if hcomp[(sr, q)] != hcomp[(s, hcomp[(r, q)])]:
                    yield Violation("associativity", (s, r, q), "horizontal")
    for f, (x, y) in arrows.items():
        u_src = unit_cell[unit_arrow[x]]
        u_tgt = unit_cell[unit_arrow[y]]
        for r in cells_out[f]:
            if hcomp[(r, u_src)] != r or hcomp[(u_tgt, r)] != r:
                yield Violation("unit law", (r,), "horizontal")
    # identity cells are multiplicative for horizontal composition
    for g, f in arrow_pairs:
        if hcomp[(unit_cell[g], unit_cell[f])] != unit_cell[comp1[(g, f)]]:
            yield Violation("unit law", (g, f), "horizontal composite of identity cells")
    # interchange: (s', s) and (r', r) vertical pairs with s after r horizontally
    cell_pairs_over: dict[str, list[tuple]] = {x: [] for x in c.objects}
    for rp, r in cell_pairs:
        cell_pairs_over[arrows[cells[r][0]][1]].append((rp, r, vcomp[(rp, r)]))
    for sp, s in cell_pairs:
        sps = vcomp[(sp, s)]
        for rp, r, rpr in cell_pairs_over[cell_src_obj[s]]:
            if hcomp[(sps, rpr)] != vcomp[(hcomp[(sp, rp)], hcomp[(s, r)])]:
                yield Violation("interchange", (sp, s, rp, r))


def find_quasi_inverse(c: Fin2Cat, f: str) -> tuple[str, str, str] | None:
    """Search for (g, eta, eps) with eta: id_src => g.f and eps: id_tgt => f.g."""
    x, y = c.arrows[f]
    for g in c.arrows_between(y, x):
        etas = c.cells_between(c.unit_arrow[x], c.comp1[(g, f)])
        epss = c.cells_between(c.unit_arrow[y], c.comp1[(f, g)])
        if etas and epss:
            return g, sorted(etas)[0], sorted(epss)[0]
    return None


def verify_2groupoid(g: Fin2Groupoid) -> list[Violation]:
    return gate(verify_2category(g), _inverses(g))


def _inverses(g: Fin2Groupoid) -> Iterator[Violation]:
    for r in g.cells:
        s = g.inv2.get(r)
        f_src, f_tgt = g.cells[r]
        if s is None or g.cells.get(s) != (f_tgt, f_src):
            yield Violation("inverse law", (r,), "vertical inverse missing")
        elif g.vcomp[(s, r)] != g.unit_cell[f_src] or g.vcomp[(r, s)] != g.unit_cell[f_tgt]:
            yield Violation("inverse law", (r,), "2-cell not invertible")
    for f in g.arrows:
        if find_quasi_inverse(g, f) is None:
            yield Violation("quasi-inverse", (f,), "arrow not invertible up to a 2-cell")


def verify_fin2cat(c: Fin2Cat) -> list[Violation]:
    """The laws of a 2-groupoid when c carries cell inverses, else those of
    a 2-category."""
    return verify_2groupoid(c) if isinstance(c, Fin2Groupoid) else verify_2category(c)


def delooping(
    elements: Iterable[str], mul: Mapping[tuple[str, str], str], unit: str
) -> Fin2Groupoid:
    """One object, one arrow, 2-cells an abelian group under both compositions.

    Raises when the group is not abelian: horizontal and vertical composition
    coincide on a single arrow, so interchange forces commutativity.
    """
    c = _one_object(elements, mul, unit, "the group is not abelian")
    inv = {a: next(b for b in c.cells if mul[(a, b)] == unit) for a in c.cells}
    return Fin2Groupoid(**vars(c), inv2=inv)


def monoid_delooping(
    elements: Iterable[str], mul: Mapping[tuple[str, str], str], unit: str
) -> Fin2Cat:
    """Like delooping but for a commutative monoid; 2-cells need not invert."""
    return _one_object(elements, mul, unit, "the monoid is not commutative")


def _one_object(elements: Iterable[str], mul: Mapping, unit: str, noncommutative: str) -> Fin2Cat:
    """The tables of a one-object 2-category whose 2-cells multiply by mul."""
    els = tuple(elements)
    for a, b in product(els, els):
        if mul[(a, b)] != mul[(b, a)]:
            raise ValueError(f"interchange fails: {noncommutative}")
    table = dict(mul)
    return Fin2Cat(
        objects=("*",),
        arrows={"id": ("*", "*")},
        cells={a: ("id", "id") for a in els},
        comp1={("id", "id"): "id"},
        hcomp=table,
        vcomp=dict(table),
        unit_arrow={"*": "id"},
        unit_cell={"id": unit},
    )


def from_groupoid(g: FinGroupoid) -> Fin2Groupoid:
    """A groupoid viewed as a 2-groupoid with identity 2-cells only."""
    cell = lambda f: f"id[{f}]"
    return Fin2Groupoid(
        objects=g.objects,
        arrows=dict(g.arrows),
        cells={cell(f): (f, f) for f in g.arrows},
        comp1=dict(g.comp),
        hcomp={
            (cell(h), cell(f)): cell(g.comp[(h, f)])
            for (h, f) in g.comp
        },
        vcomp={(cell(f), cell(f)): cell(f) for f in g.arrows},
        unit_arrow=dict(g.units),
        unit_cell={f: cell(f) for f in g.arrows},
        inv2={cell(f): cell(f) for f in g.arrows},
    )


@dataclass(frozen=True)
class RightMultWitness:
    """Data of the equivalence 'compose with f' between hom-categories.

    The inverse functor composes with a chosen quasi-inverse g of f; the
    natural families nu and mu connect the round trips to the identities:
    nu[a]: a => (a g) f for arrows a: x -> z and mu[c]: c => (c f) g for
    arrows c: y -> z.
    """

    f: str
    inverse: str
    nu: dict[str, str]
    mu: dict[str, str]


def right_mult_equivalence(c: Fin2Groupoid, f: str, z: str) -> RightMultWitness:
    """Witness that right multiplication by f: x -> y on hom(y, z) -> hom(x, z)
    is fully faithful and essentially surjective, by explicit enumeration."""
    x, y = c.arrows[f]
    qi = find_quasi_inverse(c, f)
    if qi is None:
        raise ValueError(f"quasi-inverse fails at {f}")
    g, eta, eps = qi
    nu: dict[str, str] = {}
    mu: dict[str, str] = {}
    for a in c.arrows_between(x, z):
        # whisker eta: id_x => g f by a on the left: a => a (g f) = (a g) f...
        cand = c.hcompose(c.unit_cell[a], eta)
        nu[a] = cand
        if c.cells[cand] != (a, c.comp1[(c.comp1[(a, g)], f)]):
            raise AssertionError("naturality witness has wrong endpoints")
    for b in c.arrows_between(y, z):
        cand = c.hcompose(c.unit_cell[b], eps)
        mu[b] = cand
        if c.cells[cand] != (b, c.comp1[(c.comp1[(b, f)], g)]):
            raise AssertionError("naturality witness has wrong endpoints")
    # fully faithful: composing with f is a bijection on each cell set
    for a1 in c.arrows_between(x, z):
        for a2 in c.arrows_between(x, z):
            cells = c.cells_between(a1, a2)
            images = {
                c.hcompose(r, c.unit_cell[f]): r for r in cells
            }
            if len(images) != len(cells):
                raise ValueError(f"fully-faithfulness fails at ({a1}, {a2})")
    return RightMultWitness(f=f, inverse=g, nu=nu, mu=mu)
