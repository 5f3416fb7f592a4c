"""The sampler draw for draw against closed-form reference builders.

Each move of glv.sampling has one builder and the other generators are
derived from it: a strict representation is the transport of the constant
one, a 2-cell out of an arrow is its perturbation, both simplex samplers
share one spine, and the gauge and transport morphisms start from the
identity.  The references below build the same values by hand, so a change
that moves one draw, or changes a value, fails here."""

import random

import pytest

from helpers import cyclic_handle
from glv.chain2 import ChainMap2, Fiber2
from glv.gl2 import GL2Cell, GLArrow, compose_arrows
from glv.groupoid import pair_groupoid
from glv.linalg import RatMatrix, left_inverse
from glv.nerve import GLHandle, TableHandle
from glv.ruth import Ruth2, RuthMorphism
from glv.sampling import (
    complete_to_simplex,
    rand_cell_between,
    rand_cell_on,
    rand_fiber_with_homology,
    rand_gauge,
    rand_gl_arrow,
    rand_gl_objects,
    rand_invertible,
    rand_matrix,
    rand_strict_ruth,
    rand_transport,
    sample_gl_simplex,
    sample_table_simplex,
)
from glv.twocat import from_groupoid

SEEDS = range(50)
# (h1, h0, extra): homology dimensions and rank of the base differential
SHAPES = [(1, 1, 1), (1, 0, 1), (0, 1, 2), (2, 1, 1)]
GROUPOIDS = [pair_groupoid(["a", "b"]), pair_groupoid(["a", "b", "c"])]


def ref_strict_ruth(rng, g, base):
    a1 = {x: rand_invertible(rng, base.dim1, 2) for x in g.objects}
    a0 = {x: rand_invertible(rng, base.dim0, 2) for x in g.objects}
    fibers = {
        x: Fiber2(base.dim1, base.dim0, a0[x] @ base.d @ left_inverse(a1[x])) for x in g.objects
    }
    rho1 = {f: a1[y] @ left_inverse(a1[x]) for f, (x, y) in g.arrows.items()}
    rho0 = {f: a0[y] @ left_inverse(a0[x]) for f, (x, y) in g.arrows.items()}
    gamma = {pair: RatMatrix.zeros(base.dim1, base.dim0) for pair in g.composable_pairs()}
    return Ruth2(g, fibers, rho1, rho0, gamma)


def ref_gauge(rng, r):
    g = r.groupoid
    units = {g.unit(x) for x in g.objects}
    lam = {}
    for f, (x, y) in g.arrows.items():
        if f in units:
            lam[f] = RatMatrix.zeros(r.fibers[y].dim1, r.fibers[x].dim0)
        else:
            lam[f] = rand_matrix(rng, r.fibers[y].dim1, r.fibers[x].dim0, 2)
    rho1 = {f: r.rho1[f] + lam[f] @ r.fibers[x].d for f, (x, y) in g.arrows.items()}
    rho0 = {f: r.rho0[f] + r.fibers[y].d @ lam[f] for f, (x, y) in g.arrows.items()}
    gamma = {}
    for h, a in g.composable_pairs():
        ha = g.comp[(h, a)]
        gamma[(h, a)] = r.gamma[(h, a)] + lam[ha] - rho1[h] @ lam[a] - lam[h] @ r.rho0[a]
    sheared = Ruth2(g, dict(r.fibers), rho1, rho0, gamma)
    return sheared, RuthMorphism(
        sheared,
        r,
        {x: RatMatrix.identity(r.fibers[x].dim1) for x in g.objects},
        {x: RatMatrix.identity(r.fibers[x].dim0) for x in g.objects},
        lam,
    )


def ref_transport(rng, r):
    g = r.groupoid
    b1 = {x: rand_invertible(rng, r.fibers[x].dim1, 2) for x in g.objects}
    b0 = {x: rand_invertible(rng, r.fibers[x].dim0, 2) for x in g.objects}
    fibers = {
        x: Fiber2(r.fibers[x].dim1, r.fibers[x].dim0, b0[x] @ r.fibers[x].d @ left_inverse(b1[x]))
        for x in g.objects
    }
    rho1 = {f: b1[y] @ r.rho1[f] @ left_inverse(b1[x]) for f, (x, y) in g.arrows.items()}
    rho0 = {f: b0[y] @ r.rho0[f] @ left_inverse(b0[x]) for f, (x, y) in g.arrows.items()}
    gamma = {
        (h, a): b1[g.tgt(h)] @ r.gamma[(h, a)] @ left_inverse(b0[g.src(a)])
        for h, a in g.composable_pairs()
    }
    moved = Ruth2(g, fibers, rho1, rho0, gamma)
    mu = {a: RatMatrix.zeros(fibers[g.tgt(a)].dim1, r.fibers[g.src(a)].dim0) for a in g.arrows}
    return moved, RuthMorphism(r, moved, b1, b0, mu)


def ref_cell_on(rng, f, span=2):
    r = rand_matrix(rng, f.dst.fiber.dim1, f.src.fiber.dim0, span)
    m = ChainMap2(f.src.fiber, f.dst.fiber, f.a1 - r @ f.src.fiber.d, f.a0 - f.dst.fiber.d @ r)
    return GL2Cell(f, GLArrow(f.src, f.dst, m), r)


def ref_spine_edges(spine, compose, perturb):
    edges = {}
    for j in range(1, len(spine) + 1):
        for i in range(j):
            c = spine[i]
            for t in range(i + 1, j):
                c = compose(spine[t], c)
            if j > i + 1:
                c = perturb(c)
            edges[(j, i)] = c
    return edges


def ref_gl_simplex(rng, n):
    objs = rand_gl_objects(rng, n + 1, max_h=1, max_extra=1)
    spine = [rand_gl_arrow(rng, objs[i], objs[i + 1]) for i in range(n)]
    edges = ref_spine_edges(spine, compose_arrows, lambda c: ref_cell_on(rng, c).target)
    return complete_to_simplex(
        GLHandle(), tuple(objs), edges, lambda f, g: rand_cell_between(rng, f, g)
    )


def ref_table_simplex(handle, rng, n):
    verts = [rng.choice(sorted(handle.objects()))]
    spine = []
    for _ in range(n):
        spine.append(rng.choice(sorted(handle.arrows_from(verts[-1]))))
        verts.append(handle.arrow_tgt(spine[-1]))
    edges = ref_spine_edges(
        spine,
        handle.compose,
        lambda c: handle.cell_src(rng.choice(sorted(handle.cells_into(c)))),
    )
    pick = lambda f, g: rng.choice(sorted(handle.cells_between(f, g)))
    return complete_to_simplex(handle, tuple(verts), edges, pick)


def base_fiber(rng, h1, h0, extra):
    """rand_fiber_with_homology, redrawn until the differential has rank extra."""
    while True:
        f = rand_fiber_with_homology(rng, h1, h0, extra)
        if f.dim1 == h1 + extra:
            return f


def both(seed, ours, reference):
    """(ours(rng), reference(rng), whether both left their rng in one state)
    for two generators seeded alike."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got, want = ours(rng), reference(ref_rng)
    return got, want, rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "".join(map(str, s)))
@pytest.mark.parametrize("g", GROUPOIDS, ids=["pair2", "pair3"])
def test_strict_gauge_and_transport_match_the_references(g, shape):
    for seed in SEEDS:
        base = base_fiber(random.Random(seed), *shape)
        strict, want, same = both(
            seed, lambda rng: rand_strict_ruth(rng, g, base), lambda rng: ref_strict_ruth(rng, g, base)
        )
        assert (strict, same) == (want, True), seed
        got, want, same = both(
            seed, lambda rng: rand_gauge(rng, strict), lambda rng: ref_gauge(rng, strict)
        )
        assert (got, same) == (want, True), seed
        sheared = got[0]
        got, want, same = both(
            seed, lambda rng: rand_transport(rng, sheared), lambda rng: ref_transport(rng, sheared)
        )
        assert (got, same) == (want, True), seed


def an_arrow(rng):
    x, y = rand_gl_objects(rng, 2, max_h=2)
    return rand_gl_arrow(rng, x, y)


def test_cells_on_match_the_reference():
    for seed in SEEDS:
        got, want, same = both(
            seed,
            lambda rng: rand_cell_on(rng, an_arrow(rng)),
            lambda rng: ref_cell_on(rng, an_arrow(rng)),
        )
        assert (got, same) == (want, True), seed


@pytest.mark.parametrize("n", [2, 3])
def test_gl_simplices_match_the_reference(n):
    for seed in SEEDS:
        got, want, same = both(
            seed, lambda rng: sample_gl_simplex(rng, n), lambda rng: ref_gl_simplex(rng, n)
        )
        assert (got, same) == (want, True), seed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_table_simplices_match_the_reference(n):
    handles = [cyclic_handle(5), TableHandle(from_groupoid(GROUPOIDS[1]))]
    for seed in SEEDS:
        for h in handles:
            got, want, same = both(
                seed,
                lambda rng: sample_table_simplex(h, rng, n),
                lambda rng: ref_table_simplex(h, rng, n),
            )
            assert (got, same) == (want, True), seed
