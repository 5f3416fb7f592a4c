"""Finite strict 2-categories and 2-groupoids given by explicit tables.

A Fin2Cat stores objects, arrows and 2-cells as strings, with source and
target tables, a composition table for arrows, horizontal and vertical
composition tables for 2-cells (defined exactly on the composable pairs) and
unit tables.  A Fin2Groupoid adds a vertical inversion table; quasi-inverses
of arrows are found by search.

Composable strings are groupoid.chains over arrows, over 2-cells
(vertically), and over 2-cells with the ends of their source arrows
(horizontally).  The verifiers gate their stages: endpoints, units, exactness
of the tables, then the laws.  The law stage reads the tables directly,
without the composability checks of compose/vcompose/hcompose, because the
gate has already checked every pair it looks up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable, Iterator, Mapping

from .groupoid import FinGroupoid, _stray_pairs, chains, grouped
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

    def hcell_ends(self) -> dict[str, tuple[str, str]]:
        """Each cell with the ends of its source arrow, as hcomp composes it."""
        return {r: self.arrows[f] for r, (f, _) in self.cells.items()}

    def composable_arrow_pairs(self):
        return chains(self.arrows, 2)

    def vcomposable_cell_pairs(self):
        return chains(self.cells, 2)

    def hcomposable_cell_pairs(self):
        return chains(self.hcell_ends(), 2)


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
    """Exactness of the tables: an entry with the composite's ends on each
    composable pair, and none on any other pair."""
    arrows, cells, comp1 = c.arrows, c.cells, c.comp1
    # .get: a missing arrow composite is reported with the first table
    hcomposite = lambda s, r: tuple(comp1.get(fs) for fs in zip(cells[s], cells[r]))
    for table, ends, values, detail, composite in (
        (comp1, arrows, arrows, "", lambda g, f: (arrows[f][0], arrows[g][1])),
        (c.vcomp, cells, cells, "vertical", lambda s, r: (cells[r][0], cells[s][1])),
        (c.hcomp, c.hcell_ends(), cells, "horizontal", hcomposite),
    ):
        for s, r in chains(ends, 2):
            if values.get(table.get((s, r))) != composite(s, r):
                yield Violation("composability", (s, r), detail)
        yield from _stray_pairs(ends, table, detail)


def _2category_laws(c: Fin2Cat) -> Iterator[Violation]:
    """Every law instance, in a fixed order, read straight off the tables.

    The gate runs this stage only after endpoints, units and exactness have
    passed, so each lookup below is of a composable pair and is present.
    Composable partners come from groupoid.chains, in the order of a scan of
    the tables; only interchange groups its vertical pairs here."""
    arrows, cells = c.arrows, c.cells
    comp1, vcomp, hcomp = c.comp1, c.vcomp, c.hcomp
    unit_arrow, unit_cell = c.unit_arrow, c.unit_cell
    hends = c.hcell_ends()

    for g, f in chains(arrows, 2):
        gf = comp1[(g, f)]
        if comp1[(gf, unit_arrow[arrows[f][0]])] != gf:
            yield Violation("unit law", (gf,))
    for f, (x, y) in arrows.items():
        if comp1[(f, unit_arrow[x])] != f or comp1[(unit_arrow[y], f)] != f:
            yield Violation("unit law", (f,))
    for h, g, f in chains(arrows, 3):
        if comp1[(comp1[(h, g)], f)] != comp1[(h, comp1[(g, f)])]:
            yield Violation("associativity", (h, g, f))
    for r, (f, g) in cells.items():
        if vcomp[(r, unit_cell[f])] != r or vcomp[(unit_cell[g], r)] != r:
            yield Violation("unit law", (r,), "vertical")
    for t, s, r in chains(cells, 3):
        if vcomp[(vcomp[(t, s)], r)] != vcomp[(t, vcomp[(s, r)])]:
            yield Violation("associativity", (t, s, r), "vertical")
    for s, r, q in chains(hends, 3):
        if hcomp[(hcomp[(s, r)], q)] != hcomp[(s, hcomp[(r, q)])]:
            yield Violation("associativity", (s, r, q), "horizontal")
    cells_out = grouped((f, r) for r, (f, _) in cells.items())
    for f, (x, y) in arrows.items():
        u_src, u_tgt = unit_cell[unit_arrow[x]], unit_cell[unit_arrow[y]]
        for r in cells_out.get(f, ()):
            if hcomp[(r, u_src)] != r or hcomp[(u_tgt, r)] != r:
                yield Violation("unit law", (r,), "horizontal")
    # identity cells are multiplicative for horizontal composition
    for g, f in chains(arrows, 2):
        if hcomp[(unit_cell[g], unit_cell[f])] != unit_cell[comp1[(g, f)]]:
            yield Violation("unit law", (g, f), "horizontal composite of identity cells")
    # interchange: (s', s) and (r', r) vertical pairs with s after r horizontally
    pairs_over = grouped((hends[r][1], (rp, r, vcomp[(rp, r)])) for rp, r in chains(cells, 2))
    for sp, s in chains(cells, 2):
        sps = vcomp[(sp, s)]
        for rp, r, rpr in pairs_over.get(hends[s][0], ()):
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
