"""2-term representations up to homotopy of finite groupoids.

A representation up to homotopy on a bundle of 2-term complexes
(V1(x) --d--> V0(x)) assigns to each arrow g: x -> y a chain map
(rho1[g], rho0[g]) and to each composable pair (h, g) a correction
gamma[(h, g)]: V0(x) -> V1(z) witnessing rho(hg) ~ rho(h) rho(g), subject
to a cocycle identity on triples.  Such data is the same thing as a normal
pseudo-functor from the groupoid into the 2-groupoid of complexes, with
gamma[(h, g)] the comparison 2-cell rho(hg) => rho(h) . rho(g); the
translation both ways is implemented here and is exact on matrices.

Morphisms of representations carry per-point chain maps theta and per-arrow
homotopies mu, and translate to transformations of the pseudo-functors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

from .chain2 import ChainMap2, Fiber2, HomologyDims, _trusted, homology, is_quasi_iso
from .gl2 import GL2Cell, GLArrow, GLObject, compose_arrows, identity_cell
from .groupoid import FinGroupoid, _stray_pairs, pair_groupoid
from .laxmaps import LaxFunctor, LaxTransformation
from .linalg import RatMatrix
from .reports import LawError, Violation, gate, missing
from .twocat import from_groupoid


@dataclass
class Ruth2:
    """A 2-term representation up to homotopy of a finite groupoid."""

    groupoid: FinGroupoid
    fibers: dict  # object -> Fiber2
    rho1: dict  # arrow -> RatMatrix, degree-1 component
    rho0: dict  # arrow -> RatMatrix, degree-0 component
    gamma: dict  # (h, g) -> RatMatrix V0(src g) -> V1(tgt h)


def _in_the(side: str, violations: Iterable[Violation]) -> Iterator[Violation]:
    """Violations of a morphism's source or target, marked as such."""
    return (replace(v, detail=f"{v.detail} in the {side}".lstrip()) for v in violations)


def verify_ruth(r: Ruth2) -> list[Violation]:
    return gate(
        _tables(r, "pair has no correction"),
        _matrices(r),
        _units(r, "unit arrow must act as the identity", "correction at a unit must vanish"),
        chain(_composition(r), (Violation("cocycle", t) for t in _cocycle_sites(r))),
    )


def _tables(r: Ruth2, pair_detail: str) -> Iterator[Violation]:
    """Totality of r's tables, then a correction keyed by anything other
    than a composable pair."""
    g = r.groupoid
    return chain(
        missing(
            (g.objects, r.fibers, "object has no fiber"),
            (g.arrows, r.rho1.keys() & r.rho0.keys(), "arrow has no action"),
            (g.composable_pairs(), r.gamma, pair_detail),
        ),
        _stray_pairs(g.arrows, r.gamma),
    )


def _matrices(r: Ruth2) -> Iterator[Violation]:
    """The shape and chain condition of each action, then the shape of each
    correction."""
    g = r.groupoid
    return chain(
        _chain_maps(
            ((a, r.fibers[x], r.fibers[y]) for a, (x, y) in g.arrows.items()),
            r.rho1,
            r.rho0,
            "action matrices",
        ),
        (
            Violation("shape", (h, a), "correction matrix")
            for (h, a), c in r.gamma.items()
            if (c.rows, c.cols) != (r.fibers[g.tgt(h)].dim1, r.fibers[g.src(a)].dim0)
        ),
    )


def _chain_maps(sites, a1: dict, a0: dict, detail: str) -> Iterator[Violation]:
    """The shape, then the chain condition, of (a1[k], a0[k]) from the fiber
    f to the fiber fp, for each site (k, f, fp)."""
    for k, f, fp in sites:
        t1, t0 = a1[k], a0[k]
        if (t1.rows, t1.cols, t0.rows, t0.cols) != (fp.dim1, f.dim1, fp.dim0, f.dim0):
            yield Violation("shape", (k,), detail)
        elif fp.d @ t1 != t0 @ f.d:
            yield Violation("chain condition", (k,))


def _composition(r: Ruth2) -> Iterator[Violation]:
    """The homotopy equation of each correction, skipping units as _cocycle_sites does."""
    g = r.groupoid
    for h, a in g.composable_pairs(skip_units=True):
        ha = g.comp[(h, a)]
        c = r.gamma[(h, a)]
        if c @ r.fibers[g.src(a)].d != r.rho1[ha] - r.rho1[h] @ r.rho1[a]:
            yield Violation("composition homotopy", (h, a), "degree 1")
        if r.fibers[g.tgt(h)].d @ c != r.rho0[ha] - r.rho0[h] @ r.rho0[a]:
            yield Violation("composition homotopy", (h, a), "degree 0")


def _units(r: Ruth2, arrow_detail: str, pair_detail: str) -> Iterator[Violation]:
    """Unit arrows that do not act as the identity, then the pairs through a
    unit whose correction does not vanish."""
    g = r.groupoid
    for x in g.objects:
        u = g.unit(x)
        f = r.fibers[x]
        if r.rho1[u] != RatMatrix.identity(f.dim1) or r.rho0[u] != RatMatrix.identity(f.dim0):
            yield Violation("unit", (u,), arrow_detail)
    units = g.unit_arrows
    for (h, a), c in r.gamma.items():
        if (h in units or a in units) and not c.is_zero:
            yield Violation("unit", (h, a), pair_detail)


def _cocycle_sites(r: Ruth2) -> Iterator[tuple]:
    """Composable triples (k, h, a) at which

        rho1(k) gamma(h, a) + gamma(k, ha) = gamma(k, h) rho0(a) + gamma(kh, a)

    fails.  Read on the pseudo-functor, this is the coherence of the
    comparison cells.

    Triples through a unit are skipped: both callers reach this stage only
    after _units has passed, and on a unital groupoid rho(1) = id and
    gamma vanishing at units make the identity hold there on the nose (the
    cochains are normalised)."""
    g = r.groupoid
    for k, h, a in g.composable_triples(skip_units=True):
        lhs = r.rho1[k] @ r.gamma[(h, a)] + r.gamma[(k, g.comp[(h, a)])]
        rhs = r.gamma[(k, h)] @ r.rho0[a] + r.gamma[(g.comp[(k, h)], a)]
        if lhs != rhs:
            yield k, h, a


@dataclass
class PseudoFunctorGL:
    """A normal pseudo-functor from a finite groupoid into the 2-groupoid
    of 2-term complexes.

    Built by ruth_to_pseudofunctor, which gives every object and arrow an
    image and builds each comparison cell from F(h.a) to F(h) . F(a), so
    every endpoint holds by construction; verify_pseudofunctor checks the
    rest."""

    groupoid: FinGroupoid
    at_obj: dict  # object -> GLObject
    at_arrow: dict  # arrow -> GLArrow
    comp_cell: dict  # (h, g) -> GL2Cell rho(hg) => rho(h) . rho(g)


def verify_pseudofunctor(p: PseudoFunctorGL) -> list[Violation]:
    """The laws ruth_to_pseudofunctor leaves open: a comparison cell at each
    composable pair, then the unit and cocycle laws of the matrices, the
    latter read as coherence."""
    r = pseudofunctor_to_ruth(p)
    return gate(
        chain(
            missing((p.groupoid.composable_pairs(), p.comp_cell, "no comparison cell")),
            _stray_pairs(p.groupoid.arrows, p.comp_cell),
        ),
        _units(r, "unit arrow image", "comparison cell at a unit"),
        (Violation("coherence", t) for t in _cocycle_sites(r)),
    )


def _as_functor(r: Ruth2) -> list[Violation]:
    """The laws of r read as a pseudo-functor: its tables and matrices, as
    verify_ruth checks them, then those its cells are built under, then
    those of verify_pseudofunctor."""
    bad = gate(_tables(r, "no comparison cell"), _matrices(r))
    if bad:
        return bad
    try:
        # chain maps: the matrix stage has checked them
        return verify_pseudofunctor(_pseudofunctor(r, partial(_trusted, ChainMap2)))
    except LawError as e:
        return e.violations


def ruth_to_pseudofunctor(r: Ruth2) -> PseudoFunctorGL:
    """Repackage the matrices as objects, arrows and 2-cells.

    Chain, homotopy and quasi-isomorphism conditions are enforced by the
    constructors and raise LawError at the offending arrow or pair; the
    cocycle condition is deliberately not consumed here, so that verifying
    the result mirrors verifying the input.  Only the corrections present
    are carried over, so that verification reports a missing one as
    totality."""
    return _pseudofunctor(r, ChainMap2)


def _pseudofunctor(r: Ruth2, chain_map) -> PseudoFunctorGL:
    g = r.groupoid
    at_obj = {x: GLObject(x, r.fibers[x]) for x in g.objects}
    at_arrow = {}
    for a, (x, y) in g.arrows.items():
        try:
            m = chain_map(r.fibers[x], r.fibers[y], r.rho1[a], r.rho0[a])
            at_arrow[a] = GLArrow(at_obj[x], at_obj[y], m)
        except LawError as e:
            raise e.at((a,)) from None
    comp_cell = {}
    for (h, a), c in r.gamma.items():
        try:
            comp_cell[(h, a)] = GL2Cell(
                at_arrow[g.compose(h, a)], compose_arrows(at_arrow[h], at_arrow[a]), c
            )
        except LawError as e:
            raise e.at((h, a)) from None
    return PseudoFunctorGL(g, at_obj, at_arrow, comp_cell)


def pseudofunctor_to_ruth(p: PseudoFunctorGL) -> Ruth2:
    g = p.groupoid
    fibers = {x: p.at_obj[x].fiber for x in g.objects}
    rho1 = {a: p.at_arrow[a].a1 for a in g.arrows}
    rho0 = {a: p.at_arrow[a].a0 for a in g.arrows}
    gamma = {pair: cell.r for pair, cell in p.comp_cell.items()}
    return Ruth2(g, fibers, rho1, rho0, gamma)


def as_lax_functor(p: PseudoFunctorGL) -> LaxFunctor:
    """The same data as a lax functor out of the one-cell 2-category."""
    c = from_groupoid(p.groupoid)
    cell_map = {
        c.unit_cell[a]: identity_cell(p.at_arrow[a]) for a in p.groupoid.arrows
    }
    return LaxFunctor(c, dict(p.at_obj), dict(p.at_arrow), cell_map, dict(p.comp_cell))


@dataclass
class RuthMorphism:
    """A morphism of representations up to homotopy over one groupoid.

    theta1/theta0 are per-point chain maps; mu[g], for g: x -> y, is a
    homotopy from theta(y) rho(g) to rho'(g) theta(x)."""

    src: Ruth2
    dst: Ruth2
    theta1: dict
    theta0: dict
    mu: dict


def verify_morphism(m: RuthMorphism, style: str = "ruth") -> list[Violation]:
    """The laws of a morphism, checked on its matrices in either style.

    In style "ruth" the source and target must be representations up to
    homotopy.  In style "lax" the morphism is read as the transformation of
    pseudo-functors it carries: source and target must be pseudo-functors,
    every component a quasi-isomorphism, and the unit and pair laws take the
    names "transformation unit" (at an object) and "transformation prism"."""
    g = m.src.groupoid
    if m.dst.groupoid is not g and m.dst.groupoid != g:
        return [Violation("totality", (), "source and target over different groupoids")]
    lax = style == "lax"
    ends = _as_functor if lax else verify_ruth
    pair_law = "transformation prism" if lax else "morphism pair"
    return gate(
        chain(
            _in_the("source", ends(m.src)),
            _in_the("target", ends(m.dst)),
            missing(
                (g.objects, m.theta1.keys() & m.theta0.keys(), "object has no component"),
                (g.arrows, m.mu, "arrow has no homotopy"),
            ),
        ),
        _chain_maps(
            ((x, m.src.fibers[x], m.dst.fibers[x]) for x in g.objects),
            m.theta1,
            m.theta0,
            "component matrices",
        ),
        _quasi_isos(m) if lax else (),
        _naturality(m, lax),
        (Violation(pair_law, pair) for pair in _pair_sites(m)),
    )


def _quasi_isos(m: RuthMorphism) -> Iterator[Violation]:
    for x in m.src.groupoid.objects:
        # chain maps: the stage before has checked them
        t = _trusted(ChainMap2, m.src.fibers[x], m.dst.fibers[x], m.theta1[x], m.theta0[x])
        if not is_quasi_iso(t):
            yield Violation("quasi-isomorphism", (x,))


def _naturality(m: RuthMorphism, lax: bool) -> Iterator[Violation]:
    """The homotopy equations of each mu[a], then mu vanishing at units."""
    g = m.src.groupoid
    for a, (x, y) in g.arrows.items():
        mu = m.mu[a]
        if (mu.rows, mu.cols) != (m.dst.fibers[y].dim1, m.src.fibers[x].dim0):
            yield Violation("shape", (a,), "homotopy matrix")
            continue
        if m.theta1[y] @ m.src.rho1[a] - m.dst.rho1[a] @ m.theta1[x] != mu @ m.src.fibers[x].d:
            yield Violation("morphism homotopy", (a,), "degree 1")
        if m.theta0[y] @ m.src.rho0[a] - m.dst.rho0[a] @ m.theta0[x] != m.dst.fibers[y].d @ mu:
            yield Violation("morphism homotopy", (a,), "degree 0")
    for x in g.objects:
        u = g.unit(x)
        if not m.mu[u].is_zero:
            if lax:
                yield Violation("transformation unit", (x,))
            else:
                yield Violation("unit", (u,), "homotopy at a unit must vanish")


def _pair_sites(m: RuthMorphism) -> Iterator[tuple]:
    """Composable pairs (h, a) at which

        theta1(z) gamma(h, a) + mu(h) rho0(a) + rho1'(h) mu(a) = mu(ha) + gamma'(h, a) theta0(x)

    fails: the morphism pair law, and read on the transformation of
    pseudo-functors, its prism.

    Pairs through a unit are skipped: verify_morphism reaches this stage
    only after both ends have passed their unit laws and _naturality has
    found mu vanishing at units, and on a unital groupoid the law then
    holds there on the nose."""
    g = m.src.groupoid
    for h, a in g.composable_pairs(skip_units=True):
        lhs = (
            m.theta1[g.tgt(h)] @ m.src.gamma[(h, a)]
            + m.mu[h] @ m.src.rho0[a]
            + m.dst.rho1[h] @ m.mu[a]
        )
        rhs = m.mu[g.comp[(h, a)]] + m.dst.gamma[(h, a)] @ m.theta0[g.src(a)]
        if lhs != rhs:
            yield h, a


def is_quasi_iso_morphism(m: RuthMorphism) -> bool:
    return not any(_quasi_isos(m))


def identity_morphism(r: Ruth2) -> RuthMorphism:
    g = r.groupoid
    return RuthMorphism(
        r,
        r,
        {x: RatMatrix.identity(r.fibers[x].dim1) for x in g.objects},
        {x: RatMatrix.identity(r.fibers[x].dim0) for x in g.objects},
        {a: RatMatrix.zeros(r.fibers[g.tgt(a)].dim1, r.fibers[g.src(a)].dim0) for a in g.arrows},
    )


def compose_morphisms(m2: RuthMorphism, m1: RuthMorphism) -> RuthMorphism:
    """m1 first, then m2."""
    if m2.src is not m1.dst and m2.src != m1.dst:
        raise ValueError("morphisms are not composable")
    g = m1.src.groupoid
    theta1 = {x: m2.theta1[x] @ m1.theta1[x] for x in g.objects}
    theta0 = {x: m2.theta0[x] @ m1.theta0[x] for x in g.objects}
    mu = {a: m2.theta1[y] @ m1.mu[a] + m2.mu[a] @ m1.theta0[x] for a, (x, y) in g.arrows.items()}
    return RuthMorphism(m1.src, m2.dst, theta1, theta0, mu)


def morphism_to_transformation(m: RuthMorphism) -> LaxTransformation:
    """The transformation of pseudo-functors carried by a morphism.

    The per-point components must be quasi-isomorphisms to live in the
    2-groupoid of complexes; see components_to_transformation."""
    return components_to_transformation(
        ruth_to_pseudofunctor(m.src), ruth_to_pseudofunctor(m.dst), m.theta1, m.theta0, m.mu
    )


def components_to_transformation(
    src: PseudoFunctorGL, dst: PseudoFunctorGL, theta1: dict, theta0: dict, mu: dict
) -> LaxTransformation:
    """The transformation src => dst with components (theta1[x], theta0[x])
    and, for each arrow a present in mu, the cell of homotopy matrix mu[a].

    A component that is not a quasi-isomorphism of complexes, or a cell
    matrix that fails the homotopy equations, raises LawError at the point
    or arrow."""
    g = src.groupoid
    at_obj = {}
    for x in g.objects:
        sx, dx = src.at_obj[x], dst.at_obj[x]
        try:
            at_obj[x] = GLArrow(sx, dx, ChainMap2(sx.fiber, dx.fiber, theta1[x], theta0[x]))
        except LawError as e:
            raise e.at((x,)) from None
    at_arrow = {}
    for a, r in mu.items():
        x, y = g.arrows[a]
        try:
            at_arrow[a] = GL2Cell(
                compose_arrows(at_obj[y], src.at_arrow[a]),
                compose_arrows(dst.at_arrow[a], at_obj[x]),
                r,
            )
        except LawError as e:
            raise e.at((a,)) from None
    return LaxTransformation(at_obj, at_arrow)


def transformation_to_morphism(
    h: LaxTransformation, src: Ruth2, dst: Ruth2
) -> RuthMorphism:
    g = src.groupoid
    theta1 = {x: h.at_obj[x].a1 for x in g.objects}
    theta0 = {x: h.at_obj[x].a0 for x in g.objects}
    mu = {a: h.at_arrow[a].r for a in g.arrows}
    return RuthMorphism(src, dst, theta1, theta0, mu)


def fiber_homology(r: Ruth2) -> dict:
    return {x: homology(f) for x, f in r.fibers.items()}


def is_acyclic(r: Ruth2) -> bool:
    return all(h == HomologyDims(0, 0) for h in fiber_homology(r).values())


def double_rep(g: FinGroupoid, rho: dict) -> Ruth2:
    """The doubling of a pseudo-representation on vector spaces.

    rho assigns an arbitrary matrix to each arrow, acting as the identity
    on units; putting the same matrix in both degrees over an identity
    differential absorbs every composition defect into the correction,
    and the cocycle identity holds automatically."""
    dims = {x: rho[g.unit(x)].rows for x in g.objects}
    fibers = {x: Fiber2(n, n, RatMatrix.identity(n)) for x, n in dims.items()}
    gamma = {(h, a): rho[g.comp[(h, a)]] - rho[h] @ rho[a] for h, a in g.composable_pairs()}
    return Ruth2(g, fibers, dict(rho), dict(rho), gamma)


def lines_projection_rep(lines: list[tuple[Fraction, Fraction]]) -> Ruth2:
    """Orthogonal projections between lines in the plane, as an attempted
    representation of the pair groupoid on one-dimensional fibers.

    Projecting around a cycle of distinct lines scales by a factor
    strictly between 0 and 1, so composition fails on the nose and there
    is no room in degree 1 to correct it: verification reports the
    composition defect.  Doubling the same scalars repairs it."""
    names = [f"l{i}" for i in range(len(lines))]
    by_name = dict(zip(names, lines))
    for name, (a, b) in by_name.items():
        if a == 0 and b == 0:
            raise ValueError(f"{name} is not a line")
    g = pair_groupoid(names)
    fibers = {x: Fiber2(0, 1, RatMatrix.zeros(1, 0)) for x in names}
    rho1 = {a: RatMatrix.zeros(0, 0) for a in g.arrows}
    rho0 = {}
    for arrow, (x, y) in g.arrows.items():
        v, w = by_name[x], by_name[y]
        dot = v[0] * w[0] + v[1] * w[1]
        if dot == 0:
            raise ValueError(f"lines {x} and {y} are orthogonal: projection vanishes")
        norm = w[0] * w[0] + w[1] * w[1]
        rho0[arrow] = RatMatrix.from_rows([[Fraction(dot) / norm]])
    gamma = {pair: RatMatrix.zeros(0, 1) for pair in g.composable_pairs()}
    return Ruth2(g, fibers, rho1, rho0, gamma)
