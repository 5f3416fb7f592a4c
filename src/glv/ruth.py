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

from .chain2 import ChainMap2, Fiber2, HomologyDims, _trusted, homology, is_quasi_iso
from .gl2 import GL2Cell, GLArrow, GLObject, compose_arrows, identity_cell
from .groupoid import FinGroupoid
from .laxmaps import LaxFunctor, LaxTransformation, verify_lax_transformation
from .linalg import RatMatrix
from .nerve import GLHandle
from .reports import Violation
from .twocat import from_groupoid


class NotQuasiIsoError(ValueError):
    """A morphism whose point maps are not quasi-isomorphisms."""


@dataclass
class Ruth2:
    """A 2-term representation up to homotopy of a finite groupoid."""

    groupoid: FinGroupoid
    fibers: dict  # object -> Fiber2
    rho1: dict  # arrow -> RatMatrix, degree-1 component
    rho0: dict  # arrow -> RatMatrix, degree-0 component
    gamma: dict  # (h, g) -> RatMatrix V0(src g) -> V1(tgt h)


def _totality(r: Ruth2) -> list[Violation]:
    out: list[Violation] = []
    g = r.groupoid
    for x in g.objects:
        if x not in r.fibers:
            out.append(Violation("totality", (x,), "object has no fiber"))
    for a in g.arrows:
        if a not in r.rho1 or a not in r.rho0:
            out.append(Violation("totality", (a,), "arrow has no action"))
    for pair in g.composable_pairs():
        if pair not in r.gamma:
            out.append(Violation("totality", pair, "pair has no correction"))
    return out


def _in_the(side: str, violations: list[Violation]) -> list[Violation]:
    """Violations of a morphism's source or target, marked as such."""
    return [replace(v, detail=f"{v.detail} in the {side}".lstrip()) for v in violations]


def verify_ruth(r: Ruth2) -> list[Violation]:
    out = _totality(r)
    if out:
        return out

    g = r.groupoid
    for a, (x, y) in g.arrows.items():
        fx, fy = r.fibers[x], r.fibers[y]
        r1, r0 = r.rho1[a], r.rho0[a]
        if (r1.rows, r1.cols) != (fy.dim1, fx.dim1) or (r0.rows, r0.cols) != (
            fy.dim0,
            fx.dim0,
        ):
            out.append(Violation("shape", (a,), "action matrices"))
        elif fy.d @ r1 != r0 @ fx.d:
            out.append(Violation("chain condition", (a,)))
    for (h, a), c in r.gamma.items():
        x = g.src(a)
        z = g.tgt(h)
        if (c.rows, c.cols) != (r.fibers[z].dim1, r.fibers[x].dim0):
            out.append(Violation("shape", (h, a), "correction matrix"))
    if out:
        return out

    arrows, pairs = _unit_sites(r)
    out = [Violation("unit", (u,), "unit arrow must act as the identity") for u in arrows]
    out += [Violation("unit", pair, "correction at a unit must vanish") for pair in pairs]
    if out:
        return out

    for h, a in g.composable_pairs():
        ha = g.compose(h, a)
        x = g.src(a)
        z = g.tgt(h)
        c = r.gamma[(h, a)]
        if c @ r.fibers[x].d != r.rho1[ha] - r.rho1[h] @ r.rho1[a]:
            out.append(Violation("composition homotopy", (h, a), "degree 1"))
        if r.fibers[z].d @ c != r.rho0[ha] - r.rho0[h] @ r.rho0[a]:
            out.append(Violation("composition homotopy", (h, a), "degree 0"))

    out += [Violation("cocycle", t) for t in _cocycle_sites(r)]
    return out


def _unit_sites(r: Ruth2) -> tuple[list, list]:
    """Unit arrows that do not act as the identity, and the pairs through a
    unit whose correction does not vanish."""
    g = r.groupoid
    arrows = []
    for x in g.objects:
        u = g.unit(x)
        f = r.fibers[x]
        if r.rho1[u] != RatMatrix.identity(f.dim1) or r.rho0[u] != RatMatrix.identity(
            f.dim0
        ):
            arrows.append(u)
    units = {g.unit(x) for x in g.objects}
    pairs = [
        (h, a)
        for (h, a), c in r.gamma.items()
        if (h in units or a in units) and not c.is_zero
    ]
    return arrows, pairs


def _cocycle_sites(r: Ruth2) -> list:
    """Composable triples (k, h, a) at which

        rho1(k) gamma(h, a) + gamma(k, ha) = gamma(k, h) rho0(a) + gamma(kh, a)

    fails.  Read on the pseudo-functor, this is the coherence of the
    comparison cells."""
    g = r.groupoid
    out = []
    for k, h, a in g.composable_triples():
        kh = g.compose(k, h)
        ha = g.compose(h, a)
        lhs = r.rho1[k] @ r.gamma[(h, a)] + r.gamma[(k, ha)]
        rhs = r.gamma[(k, h)] @ r.rho0[a] + r.gamma[(kh, a)]
        if lhs != rhs:
            out.append((k, h, a))
    return out


@dataclass
class PseudoFunctorGL:
    """A normal pseudo-functor from a finite groupoid into the 2-groupoid
    of 2-term complexes."""

    groupoid: FinGroupoid
    at_obj: dict  # object -> GLObject
    at_arrow: dict  # arrow -> GLArrow
    comp_cell: dict  # (h, g) -> GL2Cell rho(hg) => rho(h) . rho(g)


def verify_pseudofunctor(p: PseudoFunctorGL) -> list[Violation]:
    out: list[Violation] = []
    g = p.groupoid
    for x in g.objects:
        if x not in p.at_obj:
            out.append(Violation("totality", (x,), "object has no image"))
    for a in g.arrows:
        if a not in p.at_arrow:
            out.append(Violation("totality", (a,), "arrow has no image"))
    for pair in g.composable_pairs():
        if pair not in p.comp_cell:
            out.append(Violation("totality", pair, "no comparison cell"))
    if out:
        return out
    for a, (x, y) in g.arrows.items():
        f = p.at_arrow[a]
        if f.src != p.at_obj[x] or f.dst != p.at_obj[y]:
            out.append(Violation("endpoint", (a,), "arrow image endpoints"))
    if out:
        return out
    for (h, a), cell in p.comp_cell.items():
        want_src = p.at_arrow[g.compose(h, a)]
        want_tgt = compose_arrows(p.at_arrow[h], p.at_arrow[a])
        if cell.source != want_src or cell.target != want_tgt:
            out.append(Violation("endpoint", (h, a), "comparison cell endpoints"))
    if out:
        return out

    # The chain and homotopy equations hold by construction of the cells;
    # unit and coherence are the unit and cocycle laws of the matrices.
    r = pseudofunctor_to_ruth(p)
    arrows, pairs = _unit_sites(r)
    out = [Violation("unit", (u,), "unit arrow image") for u in arrows]
    out += [Violation("unit", pair, "comparison cell at a unit") for pair in pairs]
    if out:
        return out
    return [Violation("coherence", t) for t in _cocycle_sites(r)]


def verify_transformation(
    src: PseudoFunctorGL, dst: PseudoFunctorGL, h: LaxTransformation
) -> list[Violation]:
    """The laws of a transformation src => dst: those of its source and
    target first, then the transformation laws on the generic lax path."""
    out = _in_the("source", verify_pseudofunctor(src))
    out += _in_the("target", verify_pseudofunctor(dst))
    if out:
        return out
    return verify_lax_transformation(h, as_lax_functor(src), as_lax_functor(dst), GLHandle())


def ruth_to_pseudofunctor(r: Ruth2) -> PseudoFunctorGL:
    """Repackage the matrices as objects, arrows and 2-cells.

    Chain and homotopy conditions are enforced by the constructors and
    reported as ValueError naming the offending arrow or pair; the cocycle
    condition is deliberately not consumed here, so that verifying the
    result mirrors verifying the input.  Only the corrections present are
    carried over, so that verification reports a missing one as totality."""
    g = r.groupoid
    at_obj = {x: GLObject(x, r.fibers[x]) for x in g.objects}
    at_arrow = {}
    for a, (x, y) in g.arrows.items():
        try:
            m = ChainMap2(r.fibers[x], r.fibers[y], r.rho1[a], r.rho0[a])
            at_arrow[a] = GLArrow(at_obj[x], at_obj[y], m)
        except ValueError as e:
            raise ValueError(f"arrow {a} does not give a valid map: {e}") from e
    comp_cell = {}
    for (h, a), c in r.gamma.items():
        try:
            comp_cell[(h, a)] = GL2Cell(
                at_arrow[g.compose(h, a)], compose_arrows(at_arrow[h], at_arrow[a]), c
            )
        except ValueError as e:
            raise ValueError(
                f"pair ({h}, {a}) does not give a valid correction: {e}"
            ) from e
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


def verify_morphism(m: RuthMorphism) -> list[Violation]:
    g = m.src.groupoid
    if m.dst.groupoid is not g and m.dst.groupoid != g:
        return [Violation("totality", (), "source and target over different groupoids")]
    out = _in_the("source", _totality(m.src)) + _in_the("target", _totality(m.dst))
    for x in g.objects:
        if x not in m.theta1 or x not in m.theta0:
            out.append(Violation("totality", (x,), "object has no component"))
    for a in g.arrows:
        if a not in m.mu:
            out.append(Violation("totality", (a,), "arrow has no homotopy"))
    if out:
        return out

    for x in g.objects:
        f, fp = m.src.fibers[x], m.dst.fibers[x]
        t1, t0 = m.theta1[x], m.theta0[x]
        if (t1.rows, t1.cols) != (fp.dim1, f.dim1) or (t0.rows, t0.cols) != (
            fp.dim0,
            f.dim0,
        ):
            out.append(Violation("shape", (x,), "component matrices"))
        elif fp.d @ t1 != t0 @ f.d:
            out.append(Violation("chain condition", (x,)))
    if out:
        return out

    for a, (x, y) in g.arrows.items():
        mu = m.mu[a]
        if (mu.rows, mu.cols) != (m.dst.fibers[y].dim1, m.src.fibers[x].dim0):
            out.append(Violation("shape", (a,), "homotopy matrix"))
            continue
        if m.theta1[y] @ m.src.rho1[a] - m.dst.rho1[a] @ m.theta1[x] != mu @ m.src.fibers[x].d:
            out.append(Violation("morphism homotopy", (a,), "degree 1"))
        if m.theta0[y] @ m.src.rho0[a] - m.dst.rho0[a] @ m.theta0[x] != m.dst.fibers[y].d @ mu:
            out.append(Violation("morphism homotopy", (a,), "degree 0"))
    for x in g.objects:
        if not m.mu[g.unit(x)].is_zero:
            out.append(Violation("unit", (g.unit(x),), "homotopy at a unit must vanish"))
    if out:
        return out

    for h, a in g.composable_pairs():
        x = g.src(a)
        z = g.tgt(h)
        ha = g.compose(h, a)
        lhs = (
            m.theta1[z] @ m.src.gamma[(h, a)]
            + m.mu[h] @ m.src.rho0[a]
            + m.dst.rho1[h] @ m.mu[a]
        )
        rhs = m.mu[ha] + m.dst.gamma[(h, a)] @ m.theta0[x]
        if lhs != rhs:
            out.append(Violation("morphism pair", (h, a)))
    return out


def is_quasi_iso_morphism(m: RuthMorphism) -> bool:
    for x in m.src.groupoid.objects:
        t = ChainMap2(m.src.fibers[x], m.dst.fibers[x], m.theta1[x], m.theta0[x])
        if not is_quasi_iso(t):
            return False
    return True


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
    mu = {}
    for a, (x, y) in g.arrows.items():
        mu[a] = m2.theta1[y] @ m1.mu[a] + m2.mu[a] @ m1.theta0[x]
    return RuthMorphism(m1.src, m2.dst, theta1, theta0, mu)


def morphism_to_transformation(m: RuthMorphism) -> LaxTransformation:
    """The transformation of pseudo-functors carried by a morphism.

    The per-point components must be quasi-isomorphisms to live in the
    2-groupoid of complexes; otherwise NotQuasiIsoError is raised."""
    return components_to_transformation(
        ruth_to_pseudofunctor(m.src), ruth_to_pseudofunctor(m.dst), m.theta1, m.theta0, m.mu
    )


def components_to_transformation(
    src: PseudoFunctorGL, dst: PseudoFunctorGL, theta1: dict, theta0: dict, mu: dict
) -> LaxTransformation:
    """The transformation src => dst with components (theta1[x], theta0[x])
    and, for each arrow a present in mu, the cell of homotopy matrix mu[a].

    A component that is not a chain map, or a cell matrix that fails the
    homotopy equations, raises ValueError naming the point or arrow; a
    component that is not a quasi-isomorphism raises NotQuasiIsoError."""
    g = src.groupoid
    at_obj = {}
    for x in g.objects:
        sx, dx = src.at_obj[x], dst.at_obj[x]
        try:
            t = ChainMap2(sx.fiber, dx.fiber, theta1[x], theta0[x])
        except ValueError as e:
            raise ValueError(f"component at {x} does not give a valid map: {e}") from e
        if not is_quasi_iso(t):
            raise NotQuasiIsoError(f"component at {x} is not a quasi-isomorphism")
        at_obj[x] = _trusted(GLArrow, sx, dx, t)  # checked just above
    at_arrow = {}
    for a, r in mu.items():
        x, y = g.arrows[a]
        try:
            at_arrow[a] = GL2Cell(
                compose_arrows(at_obj[y], src.at_arrow[a]),
                compose_arrows(dst.at_arrow[a], at_obj[x]),
                r,
            )
        except ValueError as e:
            raise ValueError(f"cell at {a} does not give a valid homotopy: {e}") from e
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
    fibers = {}
    for x in g.objects:
        n = rho[g.unit(x)].rows
        fibers[x] = Fiber2(n, n, RatMatrix.identity(n))
    rho1 = dict(rho)
    rho0 = dict(rho)
    gamma = {}
    for h, a in g.composable_pairs():
        gamma[(h, a)] = rho[g.compose(h, a)] - rho[h] @ rho[a]
    return Ruth2(g, fibers, rho1, rho0, gamma)


def lines_projection_rep(lines: list[tuple[Fraction, Fraction]]) -> Ruth2:
    """Orthogonal projections between lines in the plane, as an attempted
    representation of the pair groupoid on one-dimensional fibers.

    Projecting around a cycle of distinct lines scales by a factor
    strictly between 0 and 1, so composition fails on the nose and there
    is no room in degree 1 to correct it: verification reports the
    composition defect.  Doubling the same scalars repairs it."""
    from .groupoid import pair_groupoid

    names = [f"l{i}" for i in range(len(lines))]
    by_name = dict(zip(names, lines))
    for name, (a, b) in by_name.items():
        if a == 0 and b == 0:
            raise ValueError(f"{name} is not a line")
    g = pair_groupoid(names)
    fibers = {x: Fiber2(0, 1, RatMatrix.zeros(1, 0)) for x in names}
    rho1 = {}
    rho0 = {}
    for arrow, (x, y) in g.arrows.items():
        v, w = by_name[x], by_name[y]
        dot = v[0] * w[0] + v[1] * w[1]
        if dot == 0:
            raise ValueError(f"lines {x} and {y} are orthogonal: projection vanishes")
        norm = w[0] * w[0] + w[1] * w[1]
        rho1[arrow] = RatMatrix.zeros(0, 0)
        rho0[arrow] = RatMatrix.from_rows([[Fraction(dot) / norm]])
    gamma = {
        pair: RatMatrix.zeros(0, 1) for pair in g.composable_pairs()
    }
    return Ruth2(g, fibers, rho1, rho0, gamma)


def lines_projection_scalars(lines: list[tuple[Fraction, Fraction]]) -> dict:
    """The same projection scalars keyed by pair-groupoid arrows, sized for
    doubling."""
    r = lines_projection_rep(lines)
    return {a: RatMatrix.from_rows([[r.rho0[a].entry(0, 0)]]) for a in r.rho0}
