"""Finite groupoids given by explicit tables, and their simplicial nerves.

Objects and arrows are strings.  The composition table maps composable pairs
(h, g) with src(h) = tgt(g) to h . g.  The nerve at level n is the set of
chains of n composable arrows, stored source-first: chain[i] goes from vertex
i to vertex i + 1.

Every string of composable arrows or 2-cells in glv is found by one walk,
chains, over a table of ends {name: (src, tgt)}; grouped is its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping

from .reports import Violation, gate, require


def grouped(pairs: Iterable[tuple[Hashable, object]]) -> dict[Hashable, list]:
    """The values of (key, value) pairs listed under their key, in the order
    the pairs come."""
    groups: dict[Hashable, list] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def chains(ends: Mapping[str, tuple], n: int) -> Iterator[tuple[str, ...]]:
    """The n-tuples (x1, ..., xn), n >= 1, with src(xi) = tgt(xi+1) of a table
    {name: (src, tgt)}, lazily, in the order of a filtered scan of its n-th
    product; indexed by endpoint value, declared objects or not."""
    into = grouped((t, x) for x, (_, t) in ends.items())
    walk: Iterator[tuple[str, ...]] = ((x,) for x in ends)
    for _ in range(n - 1):
        walk = (c + (x,) for c in walk for x in into.get(ends[c[-1]][0], ()))
    return walk


def _stray_pairs(
    ends: Mapping[str, tuple], table: Iterable, detail: str = ""
) -> Iterator[Violation]:
    """A composability violation at each key (s, r) of a pair-keyed table that
    is not a composable pair of the table of ends {name: (src, tgt)}, in
    table order."""
    for s, r in table:
        if s not in ends or r not in ends or ends[s][0] != ends[r][1]:
            yield Violation("composability", (s, r), detail)


@dataclass
class FinGroupoid:
    objects: tuple[str, ...]
    arrows: dict[str, tuple[str, str]]  # arrow -> (src, tgt)
    comp: dict[tuple[str, str], str]  # (h, g) with src(h) = tgt(g) -> h . g
    units: dict[str, str]  # object -> identity arrow
    inv: dict[str, str]  # arrow -> inverse arrow

    def src(self, a: str) -> str:
        return self.arrows[a][0]

    def tgt(self, a: str) -> str:
        return self.arrows[a][1]

    def compose(self, h: str, g: str) -> str:
        """h after g."""
        if self.src(h) != self.tgt(g):
            raise ValueError(f"arrows not composable: {h} . {g}")
        return self.comp[(h, g)]

    def unit(self, x: str) -> str:
        return self.units[x]

    def inverse(self, a: str) -> str:
        return self.inv[a]

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        return chains(self.arrows, 2)

    def composable_triples(self) -> Iterator[tuple[str, str, str]]:
        return chains(self.arrows, 3)


def verify_groupoid(g: FinGroupoid) -> list[Violation]:
    return gate(_groupoid_tables(g), _groupoid_laws(g))


def _groupoid_tables(g: FinGroupoid) -> Iterator[Violation]:
    for a, (s, t) in g.arrows.items():
        if s not in g.objects or t not in g.objects:
            yield Violation("endpoint", (a,))
    for x in g.objects:
        if g.arrows.get(g.units.get(x)) != (x, x):
            yield Violation("unit law", (x,))
    for (h, a), r in g.comp.items():
        if h not in g.arrows or a not in g.arrows or g.src(h) != g.tgt(a):
            yield Violation("composability", (h, a))
        elif g.arrows.get(r) != (g.src(a), g.tgt(h)):
            yield Violation("endpoint", (h, a))
    for h, a in g.composable_pairs():
        if (h, a) not in g.comp:
            yield Violation("composability", (h, a))


def _groupoid_laws(g: FinGroupoid) -> Iterator[Violation]:
    """Read straight off the tables: the gate runs this stage only after
    _groupoid_tables proved every composable pair present."""
    comp, units = g.comp, g.units
    for a, (x, y) in g.arrows.items():
        if comp[(a, units[x])] != a or comp[(units[y], a)] != a:
            yield Violation("unit law", (a,))
        b = g.inv.get(a)
        if b is None or g.arrows.get(b) != (y, x):
            yield Violation("inverse law", (a,))
        elif comp[(b, a)] != units[x] or comp[(a, b)] != units[y]:
            yield Violation("inverse law", (a,))
    for k, h, a in g.composable_triples():
        if comp[(comp[(k, h)], a)] != comp[(k, comp[(h, a)])]:
            yield Violation("associativity", (k, h, a))


def _checked(g: FinGroupoid) -> FinGroupoid:
    require(verify_groupoid(g))
    return g


def pair_groupoid(points: Iterable[str]) -> FinGroupoid:
    """Exactly one arrow y|x from x to y for every ordered pair."""
    pts = tuple(points)
    arrows = {f"{y}|{x}": (x, y) for y in pts for x in pts}
    comp = {
        (f"{z}|{y}", f"{y}|{x}"): f"{z}|{x}"
        for z in pts
        for y in pts
        for x in pts
    }
    units = {x: f"{x}|{x}" for x in pts}
    inv = {f"{y}|{x}": f"{x}|{y}" for y in pts for x in pts}
    return _checked(FinGroupoid(pts, arrows, comp, units, inv))


def action_groupoid(
    elements: tuple[str, ...],
    mul: Mapping[tuple[str, str], str],
    unit: str,
    points: tuple[str, ...],
    action: Mapping[tuple[str, str], str],
) -> FinGroupoid:
    """The translation groupoid of a finite group action on a finite set.

    Arrows are pairs g*x from x to g(x); composition multiplies the group
    elements.  Raises when the tables do not define an action.
    """
    for x in points:
        if action[(unit, x)] != x:
            raise ValueError("unit does not act trivially")
    for a, b in product(elements, elements):
        for x in points:
            if action[(a, action[(b, x)])] != action[(mul[(a, b)], x)]:
                raise ValueError("action is not multiplicative")
    inv_el = {}
    for a in elements:
        inv_el[a] = next(b for b in elements if mul[(a, b)] == unit)
    name = lambda g, x: f"{g}*{x}"
    arrows = {name(g, x): (x, action[(g, x)]) for g in elements for x in points}
    comp = {}
    for a in elements:
        for b in elements:
            for x in points:
                comp[(name(a, action[(b, x)]), name(b, x))] = name(mul[(a, b)], x)
    units = {x: name(unit, x) for x in points}
    inv = {name(g, x): name(inv_el[g], action[(g, x)]) for g in elements for x in points}
    return _checked(FinGroupoid(points, arrows, comp, units, inv))


def cyclic_group(n: int) -> tuple[tuple[str, ...], dict[tuple[str, str], str], str]:
    """Element names, multiplication table and unit of Z/n."""
    els = tuple(str(i) for i in range(n))
    mul = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return els, mul, "0"


def projection_to_pair(g: FinGroupoid) -> dict[str, str]:
    """The canonical functor onto the pair groupoid of the object set.

    Returns the arrow map and checks functoriality; the object map is the
    identity.
    """
    target = pair_groupoid(g.objects)
    m = {a: f"{g.tgt(a)}|{g.src(a)}" for a in g.arrows}
    for x in g.objects:
        if m[g.unit(x)] != target.unit(x):
            raise AssertionError("projection does not preserve units")
    for h, a in g.composable_pairs():
        if m[g.compose(h, a)] != target.compose(m[h], m[a]):
            raise AssertionError("projection does not preserve composition")
    return m


Chain = tuple[str, ...]


def nerve1(g: FinGroupoid, n: int) -> list[Chain]:
    """All chains of n composable arrows; level 0 lists the objects."""
    if n == 0:
        return [(x,) for x in g.objects]
    # source-first: chains of the opposite table
    return list(chains({a: (t, s) for a, (s, t) in g.arrows.items()}, n))


def chain_vertices(g: FinGroupoid, c: Chain) -> tuple[str, ...]:
    return (g.src(c[0]),) + tuple(g.tgt(a) for a in c)


def nerve1_face(g: FinGroupoid, c: Chain, i: int) -> Chain:
    n = len(c)
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    if n == 1:
        return (g.tgt(c[0]),) if i == 0 else (g.src(c[0]),)
    if i == 0:
        return c[1:]
    if i == n:
        return c[:-1]
    return c[: i - 1] + (g.compose(c[i], c[i - 1]),) + c[i + 1 :]


def nerve1_degeneracy(g: FinGroupoid, c: Chain, j: int) -> Chain:
    if len(c) == 1 and c[0] in g.objects:
        if j != 0:
            raise ValueError("degeneracy index out of range")
        return (g.unit(c[0]),)
    n = len(c)
    if not 0 <= j <= n:
        raise ValueError("degeneracy index out of range")
    verts = chain_vertices(g, c)
    return c[:j] + (g.unit(verts[j]),) + c[j:]
