"""Nerves of 2-categories: labelled simplices, horns, filling, filtration.

A simplex of dimension n is a labelling of the simplicial set Delta^n:
vertices carry objects u_i, edges carry arrows u_{j,i}: u_i -> u_j for j > i,
and triangles carry 2-cells

    u_{k,j,i} : u_{k,i}  =>  u_{k,j} . u_{j,i}      (k > j > i).

A labelling is a simplex when every tetrahedron (l, k, j, i) commutes:

    (u_{l,k} o u_{k,j,i}) * u_{l,k,i}  =  (u_{l,k,j} o u_{j,i}) * u_{l,j,i}

where o whiskers and * composes vertically.  Nothing is stored above
dimension 2; validity of the tetrahedra makes the nerve 3-coskeletal.
Horn filling and the sampler solve it for one face with solve_tetrahedron.

Weak index lookups fill in degeneracies: u_{i,i} is the identity arrow of
u_i, and triangles with repeated indices are identity 2-cells.

The code is generic over a handle, either finite tables (TableHandle) or the
2-groupoid of 2-term chain complexes (GLHandle).  Validation compares the two
sides of a tetrahedron in the handle's cell view: over GL, by their homotopy
matrices alone (see _validate_labels).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from operator import ne
from typing import Iterator, Mapping, Sequence

from . import gl2
from .groupoid import grouped
from .reports import Violation, gate
from .twocat import Fin2Cat, Fin2Groupoid, find_quasi_inverse


class NoFillerError(Exception):
    """The horn admits no filler over this handle.  When a law of the handle
    stops the filling, the one argument is its Violation."""


class IncompatibleBoundaryError(Exception):
    """Boundary facets disagree on shared faces or fail a tetrahedron."""


class TableHandle:
    """Operations of a finite 2-category given by tables, which verify_fin2cat
    must have passed: compositions and whiskers are reads of comp1, vcomp,
    hcomp and unit_cell that check no composability.  A cell's inverse is read
    from inv2 or searched for once; without one, the inverse law fails at it."""

    def __init__(self, cat: Fin2Cat):
        self.cat = cat
        self._arrows_from = grouped((x, f) for f, (x, _) in cat.arrows.items())
        self._cells_into = grouped((g, r) for r, (_, g) in cat.cells.items())
        self._inverse = dict(cat.inv2) if isinstance(cat, Fin2Groupoid) else {}

    def id_arrow(self, x):
        return self.cat.unit_arrow[x]

    def id_cell(self, f):
        return self.cat.unit_cell[f]

    def arrow_src(self, f):
        return self.cat.arrows[f][0]

    def arrow_tgt(self, f):
        return self.cat.arrows[f][1]

    def cell_src(self, r):
        return self.cat.cells[r][0]

    def cell_tgt(self, r):
        return self.cat.cells[r][1]

    def compose(self, g, f):
        return self.cat.comp1[(g, f)]

    def vcompose(self, s, r):
        return self.cat.vcomp[(s, r)]

    def hcompose(self, s, r):
        return self.cat.hcomp[(s, r)]

    def whisker_left(self, g, r):
        return self.cat.hcomp[(self.cat.unit_cell[g], r)]

    def whisker_right(self, r, f):
        return self.cat.hcomp[(r, self.cat.unit_cell[f])]

    def invert_cell(self, r):
        if r not in self._inverse:
            c = self.cat
            f, g = c.cells[r]
            for s in c.cells_between(g, f):
                if c.vcomp[(s, r)] == c.unit_cell[f] and c.vcomp[(r, s)] == c.unit_cell[g]:
                    self._inverse[r] = s
                    break
            else:
                raise NoFillerError(Violation("inverse law", (r,)))
        return self._inverse[r]

    def quasi_inverse(self, f):
        got = find_quasi_inverse(self.cat, f)
        if got is None:
            raise NoFillerError(Violation("quasi-inverse", (f,)))
        return got

    # enumeration hooks
    def objects(self):
        return list(self.cat.objects)

    def arrows_from(self, x):
        return self._arrows_from.get(x, [])

    def cells_into(self, g):
        return self._cells_into.get(g, [])

    def cells_between(self, f, g):
        return self.cat.cells_between(f, g)

    def cell_view(self, tris: Mapping):
        """The handle itself, with the cells as they are (see _validate_labels)."""
        return self, tris


class GLHandle:
    """Operations of the 2-groupoid of 2-term chain complexes."""

    def id_arrow(self, x):
        return gl2.identity_arrow(x)

    def id_cell(self, f):
        return gl2.identity_cell(f)

    def arrow_src(self, f):
        return f.src

    def arrow_tgt(self, f):
        return f.dst

    def cell_src(self, r):
        return r.source

    def cell_tgt(self, r):
        return r.target

    def compose(self, g, f):
        return gl2.compose_arrows(g, f)

    def vcompose(self, s, r):
        return gl2.vcompose(s, r)

    def hcompose(self, s, r):
        return gl2.hcompose(s, r)

    def whisker_left(self, g, r):
        return gl2.whisker_left(g, r)

    def whisker_right(self, r, f):
        return gl2.whisker_right(r, f)

    def invert_cell(self, r):
        return gl2.invert_cell(r)

    def quasi_inverse(self, f):
        qi = gl2.quasi_inverse(f)
        return qi.inverse, qi.unit, qi.counit

    def cell_view(self, tris: Mapping):
        """_Homotopies, with each cell of tris as its homotopy matrix."""
        return _Homotopies(), {t: r.r for t, r in tris.items()}


class _Homotopies:
    """The whiskers and vertical composite of gl2 on homotopy matrices alone,
    without the arrows at their ends, for comparing parallel GL 2-cells."""

    def vcompose(self, s, r):
        return s + r

    def whisker_left(self, g, r):
        return g.a1 @ r

    def whisker_right(self, r, f):
        return r @ f.a0


def _freeze(mapping: Mapping) -> tuple:
    # the keys are distinct, so items compare by key alone
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True, slots=True)
class SimplexLabel:
    vertices: tuple
    edges: tuple  # ((j, i), arrow), j > i
    triangles: tuple  # ((k, j, i), cell), k > j > i

    @property
    def n(self) -> int:
        return len(self.vertices) - 1

    def edge_map(self) -> dict:
        return dict(self.edges)

    def triangle_map(self) -> dict:
        return dict(self.triangles)


# A simplex lists its labels sorted, largest index first: edge (j, i) at
# _edge_at(j, i), triangle (k, j, i) at _triangle_at(k, j, i).  After those of
# the face d_n, (n, l) is the l-th label and (n, l, m) the _edge_at(l, m)-th.
def _edge_at(j: int, i: int) -> int:
    return comb(j, 2) + i


def _triangle_at(k: int, j: int, i: int) -> int:
    return comb(k, 3) + _edge_at(j, i)


def make_simplex(vertices: Sequence, edges: Mapping, triangles: Mapping) -> SimplexLabel:
    n = len(vertices) - 1
    want_edges = {(j, i) for j in range(n + 1) for i in range(j)}
    want_tris = {(k, j, i) for k in range(n + 1) for j in range(k) for i in range(j)}
    if set(edges) != want_edges:
        raise ValueError("edge labels do not cover the simplex")
    if set(triangles) != want_tris:
        raise ValueError("triangle labels do not cover the simplex")
    return SimplexLabel(tuple(vertices), _freeze(edges), _freeze(triangles))


def edge_of(handle, s: SimplexLabel, j: int, i: int):
    """u_{j,i} with the degenerate case u_{i,i} = identity."""
    if j == i:
        return handle.id_arrow(s.vertices[i])
    return s.edges[_edge_at(j, i)][1]


def triangle_of(handle, s: SimplexLabel, k: int, j: int, i: int):
    """u_{k,j,i} with repeated indices giving identity 2-cells."""
    if k == j or j == i:
        return handle.id_cell(edge_of(handle, s, k, i))
    return s.triangles[_triangle_at(k, j, i)][1]


def _tetrahedron_sides(handle, edges: Mapping, tris: Mapping, quad):
    """(u_{l,k} o u_{k,j,i}) * u_{l,k,i} and (u_{l,k,j} o u_{j,i}) * u_{l,j,i},
    over a handle or, from _validate_labels, over its cell view."""
    l, k, j, i = quad
    lhs = handle.vcompose(handle.whisker_left(edges[(l, k)], tris[(k, j, i)]), tris[(l, k, i)])
    rhs = handle.vcompose(handle.whisker_right(tris[(l, k, j)], edges[(j, i)]), tris[(l, j, i)])
    return lhs, rhs


def solve_tetrahedron(handle, edges: Mapping, tris: Mapping, quad, omit):
    """The face of quad = (l, k, j, i) opposite vertex omit that closes the
    tetrahedron front * u_{l,k,i} = back * u_{l,j,i}, where front is
    u_{l,k} o u_{k,j,i} and back is u_{l,k,j} o u_{j,i}.

    Opposite j or k it inverts a whiskered triangle; opposite l or i it also
    unwhiskers through a quasi-inverse of u_{l,k} or u_{j,i}, which raises
    NoFillerError over a handle where that edge has none.
    """
    l, k, j, i = quad
    v, inv = handle.vcompose, handle.invert_cell
    wl, wr = handle.whisker_left, handle.whisker_right
    front = lambda: wl(edges[(l, k)], tris[(k, j, i)])
    back = lambda: wr(tris[(l, k, j)], edges[(j, i)])
    if omit == j:  # u_{l,k,i}
        return v(v(inv(front()), back()), tris[(l, j, i)])
    if omit == k:  # u_{l,j,i}
        return v(v(inv(back()), front()), tris[(l, k, i)])
    if omit == l:  # u_{k,j,i}, unwhiskered from front = u_{l,k} o u_{k,j,i}
        w = v(v(back(), tris[(l, j, i)]), inv(tris[(l, k, i)]))
        d = handle.compose(edges[(k, j)], edges[(j, i)])
        q, eta, _ = handle.quasi_inverse(edges[(l, k)])
        return v(v(inv(wr(eta, d)), wl(q, w)), wr(eta, edges[(k, i)]))
    # omit == i: u_{l,k,j}, unwhiskered from back = u_{l,k,j} o u_{j,i}
    w = v(v(front(), tris[(l, k, i)]), inv(tris[(l, j, i)]))
    b = handle.compose(edges[(l, k)], edges[(k, j)])
    q, _, eps = handle.quasi_inverse(edges[(j, i)])
    return v(v(wl(b, inv(eps)), wr(w, q)), wl(edges[(l, j)], eps))


def tetrahedron_holds(handle, s: SimplexLabel, quad) -> bool:
    lhs, rhs = _tetrahedron_sides(handle, s.edge_map(), s.triangle_map(), quad)
    return lhs == rhs


def validate_simplex(handle, s: SimplexLabel) -> list[Violation]:
    return _validate_labels(handle, s, lambda face: True)


def _validate_labels(handle, s, keep) -> list[Violation]:
    """Edge endpoints, then triangle endpoints, then tetrahedra, at the faces
    of s that keep accepts; each face reads only its own sub-faces.

    Tetrahedra are compared in the handle's cell view, which is exact once the
    endpoint stages passed (for a filler, also at its horn): both sides of
    (l, k, j, i) then run from u_{l,i} to u_{l,k} . u_{k,j} . u_{j,i}, chain maps
    composing associatively on the nose, and parallel GL 2-cells are equal
    exactly when their homotopy matrices are."""
    vertices, edges, tris = s.vertices, s.edge_map(), s.triangle_map()

    def kept(labels: dict):
        return (item for item in labels.items() if keep(item[0]))

    def tetrahedra():
        view, cells = handle.cell_view(tris)
        for quad in filter(keep, combinations(range(s.n, -1, -1), 4)):
            if ne(*_tetrahedron_sides(view, edges, cells, quad)):
                yield Violation("tetrahedron", quad)

    return gate(
        (
            Violation("endpoint", (j, i), "edge does not match its vertices")
            for (j, i), f in kept(edges)
            if handle.arrow_src(f) != vertices[i] or handle.arrow_tgt(f) != vertices[j]
        ),
        (
            Violation("endpoint", (k, j, i), "triangle cell does not match its edges")
            for (k, j, i), r in kept(tris)
            if handle.cell_src(r) != edges[(k, i)]
            or handle.cell_tgt(r) != handle.compose(edges[(k, j)], edges[(j, i)])
        ),
        tetrahedra(),
    )


def _reindex(handle, s: SimplexLabel, size: int, m) -> SimplexLabel:
    """The simplex on vertices 0..size-1 labelled by s at the indices m(t),
    m non-decreasing; repeated indices give identities, by edge_of and
    triangle_of."""
    span = range(size)
    return SimplexLabel(
        tuple(s.vertices[m(t)] for t in span),
        tuple(((b, a), edge_of(handle, s, m(b), m(a))) for b in span for a in range(b)),
        tuple(
            ((c, b, a), triangle_of(handle, s, m(c), m(b), m(a)))
            for c in span
            for b in range(c)
            for a in range(b)
        ),
    )


def face(handle, s: SimplexLabel, i: int) -> SimplexLabel:
    if not 0 <= i <= s.n:
        raise ValueError("face index out of range")
    return _reindex(handle, s, s.n, lambda t: t if t < i else t + 1)


def degeneracy(handle, s: SimplexLabel, j: int) -> SimplexLabel:
    if not 0 <= j <= s.n:
        raise ValueError("degeneracy index out of range")
    return _reindex(handle, s, s.n + 2, lambda t: t if t <= j else t - 1)


@dataclass(frozen=True)
class Horn:
    """The data of Lambda^n_k: every face except the k-th."""

    k: int
    vertices: tuple
    edges: tuple
    triangles: tuple

    @property
    def n(self) -> int:
        return len(self.vertices) - 1

    def edge_map(self) -> dict:
        return dict(self.edges)

    def triangle_map(self) -> dict:
        return dict(self.triangles)


def _in_horn(n: int, k: int, label: tuple) -> bool:
    """Lambda^n_k carries a label (edge, triangle or tetrahedron) exactly when
    some vertex other than k is missing from it."""
    return len({k, *label}) <= n


def make_horn(n: int, k: int, vertices: Sequence, edges: Mapping, triangles: Mapping) -> Horn:
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")

    def want(size: int) -> set:
        return {a for a in combinations(range(n, -1, -1), size) if _in_horn(n, k, a)}

    if set(edges) != want(2):
        raise ValueError("edge labels do not cover the horn")
    if set(triangles) != want(3):
        raise ValueError("triangle labels do not cover the horn")
    return Horn(k, tuple(vertices), _freeze(edges), _freeze(triangles))


def horn_of(s: SimplexLabel, k: int) -> Horn:
    """Forget the k-th face of a simplex."""

    def present(label) -> bool:
        return _in_horn(s.n, k, label[0])

    return Horn(k, s.vertices, tuple(filter(present, s.edges)), tuple(filter(present, s.triangles)))


def validate_horn(handle, h: Horn) -> list[Violation]:
    """The checks of validate_simplex at the faces the horn carries."""
    return _validate_labels(handle, h, lambda face: _in_horn(h.n, h.k, face))


def fill_horn(handle, h: Horn) -> SimplexLabel:
    """A simplex restricting to the horn on its present faces.

    For n = 3 the missing face comes from solve_tetrahedron.  Inner horns
    need only 2-cell algebra; outer horns use quasi-inverses and can raise
    NoFillerError over handles whose arrows are not invertible up to
    homotopy.  For n >= 4 the horn already carries the full 2-skeleton and filling
    is assembly plus the tetrahedra of the missing face, one at n = 4 and none above.
    """
    bad = validate_horn(handle, h)
    if bad:
        raise NoFillerError(f"horn data is not valid: {bad[0]}")
    n, k = h.n, h.k
    if n < 2:
        raise ValueError("horn filling starts at dimension 2")
    edges = h.edge_map()
    tris = h.triangle_map()
    if n == 2:
        if k == 1:
            beta, alpha = edges[(2, 1)], edges[(1, 0)]
            gamma = handle.compose(beta, alpha)
            cell = handle.id_cell(gamma)
            edges[(2, 0)] = gamma
        elif k == 0:
            alpha, gamma = edges[(1, 0)], edges[(2, 0)]
            q, eta, _ = handle.quasi_inverse(alpha)
            beta = handle.compose(gamma, q)
            cell = handle.whisker_left(gamma, eta)
            edges[(2, 1)] = beta
        else:
            beta, gamma = edges[(2, 1)], edges[(2, 0)]
            q, _, eps = handle.quasi_inverse(beta)
            alpha = handle.compose(q, gamma)
            cell = handle.whisker_right(eps, gamma)
            edges[(1, 0)] = alpha
        tris[(2, 1, 0)] = cell
    elif n == 3:
        quad = (3, 2, 1, 0)
        absent = tuple(t for t in quad if t != k)
        tris[absent] = solve_tetrahedron(handle, edges, tris, quad, k)
    filled = make_simplex(h.vertices, edges, tris)
    bad = _validate_labels(handle, filled, lambda face: not _in_horn(n, k, face))
    if bad:
        raise NoFillerError(f"no filler exists: {bad[0]}")
    return filled


def facets(handle, s: SimplexLabel) -> list[SimplexLabel]:
    return [face(handle, s, i) for i in range(s.n + 1)]


def coskeletal_extend(handle, boundary: Sequence[SimplexLabel]) -> SimplexLabel:
    """Assemble a simplex from compatible facets d_0, ..., d_n.

    The boundary determines the entire labelling (nothing is stored above
    dimension 2); shared faces must agree and all tetrahedra must commute.
    """
    n = len(boundary) - 1
    if n < 3:
        raise ValueError("boundary assembly needs dimension at least 3")
    for i, f in enumerate(boundary):
        if f.n != n - 1:
            raise IncompatibleBoundaryError(f"facet {i} has the wrong dimension")
    verts: dict[int, object] = {}
    edges: dict[tuple, object] = {}
    tris: dict[tuple, object] = {}

    def put(store, key, value, what):
        if key in store and store[key] != value:
            raise IncompatibleBoundaryError(f"facets disagree on {what} {key}")
        store[key] = value

    for i in range(n + 1):
        m = lambda t: t if t < i else t + 1
        fac = boundary[i]
        for t in range(n):
            put(verts, m(t), fac.vertices[t], "vertex")
        for (b, a), v in fac.edge_map().items():
            put(edges, (m(b), m(a)), v, "edge")
        for (c, b, a), v in fac.triangle_map().items():
            put(tris, (m(c), m(b), m(a)), v, "triangle")
    s = make_simplex([verts[i] for i in range(n + 1)], edges, tris)
    bad = validate_simplex(handle, s)
    if bad:
        raise IncompatibleBoundaryError(str(bad[0]))
    return s


@dataclass(slots=True)  # not frozen: enumeration lowers one stage in place
class FiltrationStage:
    """The stage F_k of the filtration interpolating the inclusion of the
    last face: F_k carries the labels a with max(a) < n or min(a) >= k.

    The labels with max(a) < n are those of base, the face d_n, which stages
    over it share.  Those at vertex n are (key, label) items by position, None
    where F_k has none: top_edges[l] is ((n, l), u_{n,l}) and
    top_triangles[_edge_at(l, m)] is ((n, l, m), u_{n,l,m}).  edge_map and
    triangle_map are views for reading a stage; building one never calls them."""

    k: int
    vertices: tuple
    base: SimplexLabel
    top_edges: list
    top_triangles: list

    def edge_map(self) -> dict:
        return dict(self.base.edges + tuple(filter(None, self.top_edges)))

    def triangle_map(self) -> dict:
        return dict(self.base.triangles + tuple(filter(None, self.top_triangles)))


def strip_to_stage(s: SimplexLabel, k: int) -> FiltrationStage:
    n = s.n
    if not 0 <= k <= n - 1:
        raise ValueError("stage index out of range")
    e, t = _edge_at(n, 0), _triangle_at(n, 0, 0)
    base = SimplexLabel(s.vertices[:-1], s.edges[:e], s.triangles[:t])
    top_edges = [item if item[0][-1] >= k else None for item in s.edges[e:]]
    top_triangles = [item if item[0][-1] >= k else None for item in s.triangles[t:]]
    return FiltrationStage(k, s.vertices, base, top_edges, top_triangles)


def stage_to_simplex(stage: FiltrationStage) -> SimplexLabel:
    if stage.k != 0:
        raise ValueError("only the last stage carries a full simplex")
    return SimplexLabel(
        stage.vertices,
        stage.base.edges + tuple(stage.top_edges),
        stage.base.triangles + tuple(stage.top_triangles),
    )


def reconstruct_stage(handle, stage: FiltrationStage, alpha) -> FiltrationStage:
    """F_k from F_{k+1} and the new triangle (n, k+1, k): _lower on a copy."""
    if stage.k < 1:
        raise ValueError("nothing left to reconstruct")
    out = replace(stage, top_edges=stage.top_edges.copy(), top_triangles=stage.top_triangles.copy())
    _lower(handle, out, alpha)
    return out


def _lower(handle, stage: FiltrationStage, alpha) -> None:
    """Write the labels of F_k over those of F_{k+1} = stage, in place.

    The 2-cell alpha labels the triangle (n, k+1, k); its source is the new
    edge (n, k).  The remaining new triangles (n, l, k) for k+1 < l < n are
    forced:

        u_{n,l,k} = (u_{n,l} o inv(u_{l,k+1,k})) * (u_{n,l,k+1} o u_{k+1,k})
                     * u_{n,k+1,k}

    vertically composed bottom-up, whiskering on the left of the first factor
    and the right of the second.  Over a TableHandle each whisker and
    composite is a single table read.
    """
    vertices, base, edges, tris = stage.vertices, stage.base, stage.top_edges, stage.top_triangles
    n, k1, k = len(vertices) - 1, stage.k, stage.k - 1
    below = base.edges[_edge_at(k1, k)][1]  # u_{k+1,k}
    if handle.cell_tgt(alpha) != handle.compose(edges[k1][1], below):
        raise ValueError("new 2-cell does not target the composite over the new edge")
    new_edge = handle.cell_src(alpha)
    if (handle.arrow_src(new_edge), handle.arrow_tgt(new_edge)) != (vertices[k], vertices[n]):
        raise ValueError("new 2-cell source is not an edge from vertex k to vertex n")
    edges[k] = ((n, k), new_edge)
    tris[_edge_at(k1, k)] = ((n, k1, k), alpha)
    for l in range(k1 + 1, n):
        at = _edge_at(l, k)  # (n, l, k); (n, l, k+1) follows it
        step = handle.vcompose(handle.whisker_right(tris[at + 1][1], below), alpha)
        inv = handle.invert_cell(base.triangles[_triangle_at(l, k1, k)][1])  # u_{l,k+1,k}
        tris[at] = ((n, l, k), handle.vcompose(handle.whisker_left(edges[l][1], inv), step))
    stage.k = k


def initial_stage(handle, base: SimplexLabel, top_vertex, last_edge) -> FiltrationStage:
    """F_{n-1}: a full (n-1)-simplex plus the edge (n, n-1)."""
    n = base.n + 1
    ends = handle.arrow_src(last_edge), handle.arrow_tgt(last_edge)
    if ends != (base.vertices[-1], top_vertex):
        raise ValueError("edge does not connect the base simplex to the top vertex")
    edges = [None] * (n - 1) + [((n, n - 1), last_edge)]
    return FiltrationStage(n - 1, base.vertices + (top_vertex,), base, edges, [None] * comb(n, 2))


def simplices_over(handle: TableHandle, level: Sequence[SimplexLabel]) -> Iterator[SimplexLabel]:
    """The n-simplices of a finite handle over its (n-1)-simplices, one by one:
    each (n-1)-simplex plus an edge out of its last vertex is the stage F_{n-1},
    which each choice of new triangle (n, k+1, k) lowers, depth first and in
    place, until F_0 is a simplex.  Nothing is validated: over a verified
    2-category the forced triangles make every tetrahedron commute."""
    for base in level:
        for e in handle.arrows_from(base.vertices[-1]):
            yield from _leaves(handle, initial_stage(handle, base, handle.arrow_tgt(e), e))


def _leaves(handle, stage: FiltrationStage) -> Iterator[SimplexLabel]:
    k1 = stage.k
    if k1 == 0:
        yield stage_to_simplex(stage)
        return
    below = stage.base.edges[_edge_at(k1, k1 - 1)][1]
    for alpha in handle.cells_into(handle.compose(stage.top_edges[k1][1], below)):
        stage.k = k1
        _lower(handle, stage, alpha)
        yield from _leaves(handle, stage)


def nerve_levels(handle: TableHandle, top: int) -> Iterator[list[SimplexLabel]]:
    """The simplices of a finite handle at levels 0 to top, each listed from the one before."""
    level = [SimplexLabel((x,), (), ()) for x in handle.objects()]
    yield level
    for _ in range(top):
        level = list(simplices_over(handle, level))
        yield level


def enumerate_nerve(handle: TableHandle, level: int) -> list[SimplexLabel]:
    """All simplices of a finite handle at the given level."""
    for simplices in nerve_levels(handle, level):
        pass
    return simplices
