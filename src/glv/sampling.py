"""Seeded random generators for fibers, arrows, cells and larger structures.

Everything takes an explicit ``random.Random`` so that callers own their seed
and runs are reproducible.  Generators only ever return valid structures; the
checked constructors double as assertions.

Three moves, one builder each: transport (``rand_transport``) conjugates by
per-point changes of basis, and a strict representation is the transport of
the constant one; gauge (``rand_gauge``) shears by degree-shifting maps;
perturbation (``perturb_chain_map``) moves a chain map along a homotopy, the
2-cell of ``rand_cell_on`` and the longer edges of a simplex on a spine.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from .chain2 import (
    ChainMap2,
    Fiber2,
    chain_map_from_vector,
    chain_map_space,
    cokernel_complement,
    cokernel_projection,
    find_homotopy,
    homology,
    homotopy_kernel_basis,
    is_quasi_iso,
    kernel_inclusion,
)
from .gl2 import GL2Cell, GLArrow, GLObject
from .groupoid import FinGroupoid
from .linalg import RatMatrix, basis_completion, hstack, left_inverse, rank, solve, unvec
from .nerve import GLHandle, SimplexLabel, TableHandle, make_simplex, solve_tetrahedron
from .ruth import Ruth2, RuthMorphism, compose_morphisms, double_rep, identity_morphism


def rand_rat(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))


def rand_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> RatMatrix:
    return RatMatrix(
        rows, cols, tuple(rand_rat(rng, span) for _ in range(rows * cols))
    )


def rand_fiber(rng: random.Random, max_dim: int = 3) -> Fiber2:
    d1 = rng.randint(0, max_dim)
    d0 = rng.randint(0, max_dim)
    return Fiber2(d1, d0, rand_matrix(rng, d0, d1))


def rand_fiber_with_homology(
    rng: random.Random, h1: int, h0: int, max_extra: int = 2
) -> Fiber2:
    """A fiber with prescribed homology dimensions."""
    for _ in range(100):
        r = rng.randint(0, max_extra)
        d1, d0 = h1 + r, h0 + r
        if r == 0:
            return Fiber2(d1, d0, RatMatrix.zeros(d0, d1))
        d = rand_matrix(rng, d0, r) @ rand_matrix(rng, r, d1)
        if rank(d) == r:
            return Fiber2(d1, d0, d)
    raise AssertionError("failed to sample a fiber of the requested homology")


def rand_chain_map(rng: random.Random, src: Fiber2, dst: Fiber2) -> ChainMap2:
    """A random solution of the chain condition between the given fibers."""
    basis = chain_map_space(src, dst)
    coeffs = RatMatrix.column([rand_rat(rng) for _ in range(basis.cols)])
    return chain_map_from_vector(src, dst, basis @ coeffs)


def _projection_to_minimal(x: Fiber2) -> ChainMap2:
    # quasi-isomorphism from x onto the fiber (H1, H0, 0)
    h = homology(x)
    minimal = Fiber2(h.h1, h.h0, RatMatrix.zeros(h.h0, h.h1))
    ker = kernel_inclusion(x)
    basis = hstack(ker, basis_completion(ker))
    inv = solve(basis, RatMatrix.identity(x.dim1))
    p1 = inv.block(0, h.h1, 0, x.dim1)
    p0 = cokernel_projection(x)
    return ChainMap2(x, minimal, p1, p0)


def _inclusion_of_minimal(y: Fiber2) -> ChainMap2:
    h = homology(y)
    minimal = Fiber2(h.h1, h.h0, RatMatrix.zeros(h.h0, h.h1))
    return ChainMap2(minimal, y, kernel_inclusion(y), cokernel_complement(y))


def perturb_chain_map(
    rng: random.Random, m: ChainMap2, span: int = 2
) -> tuple[ChainMap2, RatMatrix]:
    """A chain map homotopic to m (same fibers), with the random homotopy r
    from m to it."""
    r = rand_matrix(rng, m.dst.dim1, m.src.dim0, span)
    return ChainMap2(m.src, m.dst, m.a1 - r @ m.src.d, m.a0 - m.dst.d @ r), r


def rand_quasi_iso(rng: random.Random, src: Fiber2, dst: Fiber2) -> ChainMap2:
    """A random quasi-isomorphism; the fibers must have equal homology."""
    if homology(src) != homology(dst):
        raise ValueError("no quasi-isomorphism exists: homology differs")
    basis = chain_map_space(src, dst)
    for _ in range(40):
        coeffs = RatMatrix.column([rand_rat(rng) for _ in range(basis.cols)])
        m = chain_map_from_vector(src, dst, basis @ coeffs)
        if is_quasi_iso(m):
            return m
    # guaranteed fallback: route through the minimal fiber, then perturb
    inc, proj = _inclusion_of_minimal(dst), _projection_to_minimal(src)
    via = ChainMap2(src, dst, inc.a1 @ proj.a1, inc.a0 @ proj.a0)
    return perturb_chain_map(rng, via)[0]


def rand_gl_arrow(rng: random.Random, src: GLObject, dst: GLObject) -> GLArrow:
    return GLArrow(src, dst, rand_quasi_iso(rng, src.fiber, dst.fiber))


def rand_gl_objects(
    rng: random.Random, count: int, max_h: int = 1, max_extra: int = 2
) -> list[GLObject]:
    """Objects over points p0, p1, ... sharing their homology dimensions."""
    h1, h0 = rng.randint(0, max_h), rng.randint(0, max_h)
    return [
        GLObject(f"p{i}", rand_fiber_with_homology(rng, h1, h0, max_extra))
        for i in range(count)
    ]


def rand_cell_on(rng: random.Random, f: GLArrow, span: int = 2) -> GL2Cell:
    """A random 2-cell out of f, obtained by perturbing f along a homotopy."""
    m, r = perturb_chain_map(rng, f.map, span)
    return GL2Cell(f, GLArrow(f.src, f.dst, m), r)


def rand_cell_between(rng: random.Random, f: GLArrow, g: GLArrow) -> GL2Cell:
    """A random 2-cell f => g; the arrows must be homotopic."""
    h = find_homotopy(f.map, g.map)
    if h is None:
        raise ValueError("arrows are not homotopic")
    basis = homotopy_kernel_basis(f.src.fiber, f.dst.fiber)
    r = h.r
    if basis.cols:
        coeffs = RatMatrix.column([rand_rat(rng, 2) for _ in range(basis.cols)])
        r = r + unvec(basis @ coeffs, r.rows, r.cols)
    return GL2Cell(f, g, r)


def rand_interchange_square(rng: random.Random, max_extra: int = 2):
    """Cells r: f => f' => f'' over x -> y and s: g => g' => g'' over y -> z.

    Returns ((r2, r1), (s2, s1)) ready for an interchange check.
    """
    x, y, z = rand_gl_objects(rng, 3, max_extra=max_extra)
    f = rand_gl_arrow(rng, x, y)
    g = rand_gl_arrow(rng, y, z)
    r1 = rand_cell_on(rng, f)
    r2 = rand_cell_on(rng, r1.target)
    s1 = rand_cell_on(rng, g)
    s2 = rand_cell_on(rng, s1.target)
    return (r2, r1), (s2, s1)


def complete_to_simplex(handle, vertices, edges, pick_cell) -> SimplexLabel:
    """Extend full edge data to a simplex, choosing the free triangles.

    pick_cell(f, g) supplies a 2-cell f => g for the triangles that are not
    forced; the remaining labels come from nerve.solve_tetrahedron.
    Supports dimensions up to 4.  The solved labels satisfy every equation
    used to produce them; for dimension 4 the one remaining equation
    (4, 3, 2, 0) holds automatically, which callers are free to re-check.
    """
    n = len(vertices) - 1
    if n > 4:
        raise ValueError("supported up to dimension 4")
    tris: dict = {}

    def composite(k, j, i):
        return handle.compose(edges[(k, j)], edges[(j, i)])

    if n >= 2:
        tris[(2, 1, 0)] = pick_cell(edges[(2, 0)], composite(2, 1, 0))
    if n >= 3:
        tris[(3, 2, 1)] = pick_cell(edges[(3, 1)], composite(3, 2, 1))
        tris[(3, 2, 0)] = pick_cell(edges[(3, 0)], composite(3, 2, 0))
        tris[(3, 1, 0)] = solve_tetrahedron(handle, edges, tris, (3, 2, 1, 0), 2)
    if n >= 4:
        tris[(4, 2, 1)] = pick_cell(edges[(4, 1)], composite(4, 2, 1))
        tris[(4, 1, 0)] = pick_cell(edges[(4, 0)], composite(4, 1, 0))
        tris[(4, 3, 2)] = pick_cell(edges[(4, 2)], composite(4, 3, 2))
        tris[(4, 2, 0)] = solve_tetrahedron(handle, edges, tris, (4, 2, 1, 0), 1)
        tris[(4, 3, 1)] = solve_tetrahedron(handle, edges, tris, (4, 3, 2, 1), 2)
        tris[(4, 3, 0)] = solve_tetrahedron(handle, edges, tris, (4, 3, 1, 0), 1)
    return make_simplex(vertices, edges, tris)


def _on_spine(handle, vertices, spine: list, perturb, pick_cell) -> SimplexLabel:
    """The simplex with edge (j, i) the composite of spine[i], ..., spine[j - 1],
    or perturb(composite) when it spans more than one step: every triangle
    then admits 2-cells, and pick_cell makes the free choices."""
    edges = {}
    for j in range(1, len(spine) + 1):
        for i in range(j):
            c = spine[i]
            for t in range(i + 1, j):
                c = handle.compose(spine[t], c)
            edges[(j, i)] = perturb(c) if j > i + 1 else c
    return complete_to_simplex(handle, tuple(vertices), edges, pick_cell)


def sample_gl_simplex(
    rng: random.Random, n: int, max_h: int = 1, max_extra: int = 1
) -> SimplexLabel:
    """A random valid simplex in the 2-groupoid of 2-term complexes: edges
    are perturbed composites along a spine of random quasi-isomorphisms."""
    objs = rand_gl_objects(rng, n + 1, max_h=max_h, max_extra=max_extra)
    spine = [rand_gl_arrow(rng, objs[i], objs[i + 1]) for i in range(n)]
    perturb = lambda c: rand_cell_on(rng, c).target
    return _on_spine(GLHandle(), objs, spine, perturb, lambda f, g: rand_cell_between(rng, f, g))


def sample_table_simplex(
    handle: TableHandle, rng: random.Random, n: int, start=None
) -> SimplexLabel:
    """A random valid simplex of a finite 2-groupoid given by tables: a
    composite is perturbed to the source of a random 2-cell into it."""
    x = start if start is not None else rng.choice(sorted(handle.objects()))
    verts = [x]
    spine = []
    for _ in range(n):
        f = rng.choice(sorted(handle.arrows_from(verts[-1])))
        spine.append(f)
        verts.append(handle.arrow_tgt(f))
    perturb = lambda c: handle.cell_src(rng.choice(sorted(handle.cells_into(c))))

    def pick(f, g):
        cells = sorted(handle.cells_between(f, g))
        if not cells:
            raise ValueError("no 2-cell between parallel arrows")
        return rng.choice(cells)

    return _on_spine(handle, verts, spine, perturb, pick)


def rand_invertible(rng: random.Random, n: int, span: int = 3) -> RatMatrix:
    if n == 0:
        return RatMatrix.zeros(0, 0)
    while True:
        m = rand_matrix(rng, n, n, span)
        if rank(m) == n:
            return m


def rand_strict_ruth(rng: random.Random, g: FinGroupoid, base: Fiber2) -> Ruth2:
    """A strictly multiplicative representation: the transport of the
    constant one on a base fiber, so each arrow acts by the composite change
    of basis and corrections vanish."""
    one1, one0 = RatMatrix.identity(base.dim1), RatMatrix.identity(base.dim0)
    zero = RatMatrix.zeros(base.dim1, base.dim0)
    constant = Ruth2(
        g,
        {x: base for x in g.objects},
        {a: one1 for a in g.arrows},
        {a: one0 for a in g.arrows},
        {pair: zero for pair in g.composable_pairs()},
    )
    return rand_transport(rng, constant)[0]


def rand_double_ruth(rng: random.Random, g: FinGroupoid, dims: dict | None = None) -> Ruth2:
    """The doubling of a random pseudo-representation on vector spaces."""
    if dims is None:
        dims = {x: rng.randint(1, 2) for x in g.objects}
    units = {g.unit(x) for x in g.objects}
    rho = {}
    for f, (x, y) in g.arrows.items():
        if f in units:
            rho[f] = RatMatrix.identity(dims[x])
        else:
            rho[f] = rand_matrix(rng, dims[y], dims[x], 2)
    return double_rep(g, rho)


def rand_gauge(rng: random.Random, r: Ruth2) -> tuple[Ruth2, RuthMorphism]:
    """Shear a representation by a family of degree-shifting maps.

    Returns the sheared representation together with the connecting
    morphism (identity components, homotopies the shears) back to r."""
    g = r.groupoid
    units = {g.unit(x) for x in g.objects}
    lam = {}
    for f, (x, y) in g.arrows.items():
        if f in units:
            lam[f] = RatMatrix.zeros(r.fibers[y].dim1, r.fibers[x].dim0)
        else:
            lam[f] = rand_matrix(rng, r.fibers[y].dim1, r.fibers[x].dim0, 2)
    rho1 = {a: r.rho1[a] + lam[a] @ r.fibers[x].d for a, (x, y) in g.arrows.items()}
    rho0 = {a: r.rho0[a] + r.fibers[y].d @ lam[a] for a, (x, y) in g.arrows.items()}
    gamma = {}
    for h, a in g.composable_pairs():
        ha = g.comp[(h, a)]
        gamma[(h, a)] = (
            r.gamma[(h, a)] + lam[ha] - rho1[h] @ lam[a] - lam[h] @ r.rho0[a]
        )
    sheared = Ruth2(g, dict(r.fibers), rho1, rho0, gamma)
    return sheared, replace(identity_morphism(r), src=sheared, mu=lam)


def rand_transport(rng: random.Random, r: Ruth2) -> tuple[Ruth2, RuthMorphism]:
    """Conjugate a representation by invertible per-point changes of basis.

    Returns the conjugated representation and the morphism from r with
    vanishing homotopies."""
    g = r.groupoid
    b1 = {x: rand_invertible(rng, r.fibers[x].dim1, 2) for x in g.objects}
    b0 = {x: rand_invertible(rng, r.fibers[x].dim0, 2) for x in g.objects}
    c1 = {x: left_inverse(b) for x, b in b1.items()}
    c0 = {x: left_inverse(b) for x, b in b0.items()}
    fibers = {
        x: Fiber2(r.fibers[x].dim1, r.fibers[x].dim0, b0[x] @ r.fibers[x].d @ c1[x])
        for x in g.objects
    }
    rho1 = {a: b1[y] @ r.rho1[a] @ c1[x] for a, (x, y) in g.arrows.items()}
    rho0 = {a: b0[y] @ r.rho0[a] @ c0[x] for a, (x, y) in g.arrows.items()}
    gamma = {
        (h, a): b1[g.tgt(h)] @ r.gamma[(h, a)] @ c0[g.src(a)] for h, a in g.composable_pairs()
    }
    moved = Ruth2(g, fibers, rho1, rho0, gamma)
    return moved, replace(identity_morphism(r), dst=moved, theta1=b1, theta0=b0)


def rand_ruth(rng: random.Random, g: FinGroupoid, style: str | None = None) -> Ruth2:
    """A random valid representation up to homotopy in one of three styles:
    doubled pseudo-representation, strict conjugation, or a sheared strict
    one (nonzero corrections over nontrivial homology)."""
    style = style or rng.choice(["double", "strict", "sheared"])
    if style == "double":
        return rand_double_ruth(rng, g)
    base = rand_fiber_with_homology(rng, rng.randint(0, 1), rng.randint(0, 1), 1)
    r = rand_strict_ruth(rng, g, base)
    if style == "sheared":
        r, _ = rand_gauge(rng, r)
    return r


def rand_ruth_morphism(rng: random.Random, r: Ruth2) -> RuthMorphism:
    """A morphism with invertible components and nonzero homotopies."""
    sheared, back = rand_gauge(rng, r)
    moved, fwd = rand_transport(rng, r)
    return compose_morphisms(fwd, back)


def perturb_correction(rng: random.Random, r: Ruth2):
    """Add a homotopy-kernel element to one correction matrix.

    Chain and composition conditions survive; the cocycle identity breaks
    whenever perturbation is possible.  Returns (perturbed, pair) or None
    when every kernel is trivial."""
    g = r.groupoid
    units = {g.unit(x) for x in g.objects}
    pairs = [
        (h, a)
        for h, a in g.composable_pairs()
        if h not in units and a not in units
    ]
    rng.shuffle(pairs)
    for h, a in pairs:
        basis = homotopy_kernel_basis(r.fibers[g.src(a)], r.fibers[g.tgt(h)])
        if basis.cols == 0:
            continue
        coeffs = [Fraction(0)] * basis.cols
        coeffs[rng.randrange(basis.cols)] = Fraction(rng.randint(1, 3))
        col = basis @ RatMatrix.column(coeffs)
        old = r.gamma[(h, a)]
        delta = unvec(col, old.rows, old.cols)
        gamma = dict(r.gamma)
        gamma[(h, a)] = old + delta
        return Ruth2(g, dict(r.fibers), dict(r.rho1), dict(r.rho0), gamma), (h, a)
    return None
