"""Representations up to homotopy and the pseudo-functor dictionary."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest

import glv.gl2
import glv.ruth
from glv.chain2 import ChainMap2, Fiber2, _trusted, homotopy_kernel_basis
from glv.documents import (
    decode_lax_morphism,
    decode_ruth_morphism,
    dump_document,
    encode_lax_morphism,
    encode_ruth_morphism,
    load_document,
)
from glv.groupoid import action_groupoid, cyclic_group, pair_groupoid
from glv.gl2 import GL2Cell, GLArrow, GLObject, compose_arrows
from glv.laxmaps import verify_lax_transformation
from glv.linalg import RatMatrix
from glv.nerve import GLHandle
from glv.reports import LawError, Violation, gate
from glv.ruth import (
    PseudoFunctorGL,
    Ruth2,
    RuthMorphism,
    as_lax_functor,
    components_to_transformation,
    compose_morphisms,
    double_rep,
    fiber_homology,
    identity_morphism,
    is_acyclic,
    is_quasi_iso_morphism,
    lines_projection_rep,
    morphism_to_transformation,
    pseudofunctor_to_ruth,
    ruth_to_pseudofunctor,
    transformation_to_morphism,
    verify_morphism,
    verify_pseudofunctor,
    verify_ruth,
)
from glv.sampling import (
    perturb_correction,
    rand_double_ruth,
    rand_fiber_with_homology,
    rand_gauge,
    rand_matrix,
    rand_ruth,
    rand_ruth_morphism,
    rand_strict_ruth,
    rand_transport,
)

GL = GLHandle()


def regular_action():
    els, mul, unit = cyclic_group(3)
    action = {(g, x): mul[(g, x)] for g in els for x in els}
    return action_groupoid(els, mul, unit, els, action)


GROUPOIDS = [pair_groupoid(["a", "b", "c"]), regular_action()]


@pytest.mark.parametrize("g", GROUPOIDS)
def test_doubling_verifies(g):
    for seed in range(3):
        r = rand_double_ruth(random.Random(seed), g)
        assert verify_ruth(r) == []
        assert is_acyclic(r)


@pytest.mark.parametrize("style", ["strict", "sheared"])
def test_conjugation_styles_verify(style):
    for seed in range(3):
        rng = random.Random(seed)
        r = rand_ruth(rng, GROUPOIDS[seed % 2], style=style)
        assert verify_ruth(r) == []


def test_sheared_has_nonzero_corrections():
    rng = random.Random(5)
    base = rand_fiber_with_homology(rng, 1, 1, 1)
    r = rand_strict_ruth(rng, pair_groupoid(["a", "b"]), base)
    sheared, back = rand_gauge(rng, r)
    assert verify_ruth(sheared) == []
    assert any(not c.is_zero for c in sheared.gamma.values())
    assert verify_morphism(back) == []


def test_lines_projection_is_not_a_representation():
    lines = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
    r = lines_projection_rep(lines)
    bad = verify_ruth(r)
    assert bad and all(v.law == "composition homotopy" for v in bad)


def test_two_lines_cycle_defect():
    lines = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    r = lines_projection_rep(lines)
    back_and_forth = r.rho0["l0|l1"] @ r.rho0["l1|l0"]
    assert back_and_forth.entry(0, 0) == Fraction(1, 2)
    assert any(v.law == "composition homotopy" for v in verify_ruth(r))


def test_doubling_repairs_lines():
    lines = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
    r = lines_projection_rep(lines)
    doubled = double_rep(r.groupoid, r.rho0)
    assert verify_ruth(doubled) == []
    assert is_acyclic(doubled)


def test_orthogonal_lines_rejected():
    with pytest.raises(ValueError, match="orthogonal"):
        lines_projection_rep([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])


@pytest.mark.parametrize("g", GROUPOIDS)
def test_round_trip_through_pseudofunctor(g):
    for seed in range(4):
        r = rand_ruth(random.Random(seed), g)
        p = ruth_to_pseudofunctor(r)
        assert verify_pseudofunctor(p) == []
        assert pseudofunctor_to_ruth(p) == r
        again = ruth_to_pseudofunctor(pseudofunctor_to_ruth(p))
        assert again == p


@pytest.mark.parametrize("g", GROUPOIDS)
def test_built_pseudofunctor_has_every_endpoint(g):
    # verify_pseudofunctor checks no endpoint: ruth_to_pseudofunctor fixes them
    for seed in range(4):
        rng = random.Random(seed)
        r = rand_ruth(rng, g)
        pair = rng.choice(sorted(r.gamma))
        ruths = [r, replace(r, gamma={k: c for k, c in r.gamma.items() if k != pair})]
        got = perturb_correction(rng, r)
        if got is not None:
            ruths.append(got[0])
        for r in ruths:
            p = ruth_to_pseudofunctor(r)
            assert p.at_obj.keys() == set(g.objects) and p.at_arrow.keys() == set(g.arrows)
            for a, (x, y) in g.arrows.items():
                assert (p.at_arrow[a].src, p.at_arrow[a].dst) == (p.at_obj[x], p.at_obj[y])
            assert p.comp_cell.keys() == r.gamma.keys()
            for (h, a), cell in p.comp_cell.items():
                assert cell.source == p.at_arrow[g.compose(h, a)]
                assert cell.target == glv.gl2.compose_arrows(p.at_arrow[h], p.at_arrow[a])


def test_cocycle_and_coherence_break_together():
    g = pair_groupoid(["a", "b", "c"])
    found = 0
    for seed in range(6):
        rng = random.Random(seed)
        base = rand_fiber_with_homology(rng, 1, 1, 1)
        r = rand_strict_ruth(rng, g, base)
        r, _ = rand_gauge(rng, r)
        got = perturb_correction(rng, r)
        assert got is not None
        bad, pair = got
        ruth_laws = verify_ruth(bad)
        assert ruth_laws and all(v.law == "cocycle" for v in ruth_laws)
        p = ruth_to_pseudofunctor(bad)
        ph_laws = verify_pseudofunctor(p)
        assert ph_laws and all(v.law == "coherence" for v in ph_laws)
        assert {v.where for v in ruth_laws} == {v.where for v in ph_laws}
        found += 1
    assert found == 6


def test_chain_condition_reported_and_conversion_refuses():
    rng = random.Random(2)
    g = pair_groupoid(["a", "b"])
    r = rand_strict_ruth(rng, g, rand_fiber_with_homology(rng, 1, 0, 1))
    bumped = dict(r.rho1)
    a = "b|a"
    bumped[a] = bumped[a] + RatMatrix.from_rows(
        [[Fraction(1)] + [Fraction(0)] * (bumped[a].cols - 1)]
        + [[Fraction(0)] * bumped[a].cols for _ in range(bumped[a].rows - 1)]
    )
    bad = Ruth2(g, r.fibers, bumped, r.rho0, r.gamma)
    laws = {v.law for v in verify_ruth(bad)}
    assert "chain condition" in laws or "composition homotopy" in laws
    if "chain condition" in laws:
        with pytest.raises(LawError, match=r"chain condition fails at \('b\|a',\)"):
            ruth_to_pseudofunctor(bad)


def test_unit_normalization_enforced():
    rng = random.Random(3)
    g = pair_groupoid(["a", "b"])
    r = rand_strict_ruth(rng, g, Fiber2(1, 1, RatMatrix.zeros(1, 1)))
    u = g.unit("a")
    rho1 = dict(r.rho1)
    rho1[u] = RatMatrix.from_rows([[Fraction(2)]])
    bad = Ruth2(g, r.fibers, rho1, r.rho0, r.gamma)
    assert any(v.law == "unit" for v in verify_ruth(bad))
    # with d = 0 any correction is a homotopy, so the functor can carry a
    # nonzero one at a unit; both presentations report the same site
    pairs = [(g.unit(g.tgt("b|a")), "b|a"), ("b|a", g.unit(g.src("b|a")))]
    gamma = dict(r.gamma)
    for pair in pairs:
        gamma[pair] = RatMatrix.from_rows([[Fraction(1)]])
    bad = Ruth2(g, r.fibers, r.rho1, r.rho0, gamma)
    want = sorted(("unit", pair) for pair in pairs)
    assert sorted((v.law, v.where) for v in verify_ruth(bad)) == want
    p = ruth_to_pseudofunctor(bad)
    assert sorted((v.law, v.where) for v in verify_pseudofunctor(p)) == want


@pytest.mark.parametrize("g", GROUPOIDS)
def test_morphisms_verify_compose_and_translate(g):
    for seed in range(3):
        rng = random.Random(seed)
        r = rand_ruth(rng, g, style="sheared")
        m = rand_ruth_morphism(rng, r)
        assert verify_morphism(m) == []
        assert is_quasi_iso_morphism(m)
        assert compose_morphisms(m, identity_morphism(m.src)) == m
        assert compose_morphisms(identity_morphism(m.dst), m) == m

        h = morphism_to_transformation(m)
        fun = as_lax_functor(ruth_to_pseudofunctor(m.src))
        gun = as_lax_functor(ruth_to_pseudofunctor(m.dst))
        assert verify_lax_transformation(h, fun, gun, GL) == []
        assert transformation_to_morphism(h, m.src, m.dst) == m


def test_transport_and_gauge_are_morphisms():
    rng = random.Random(7)
    r = rand_ruth(rng, GROUPOIDS[0], style="strict")
    moved, fwd = rand_transport(rng, r)
    assert verify_ruth(moved) == []
    assert verify_morphism(fwd) == []
    sheared, back = rand_gauge(rng, r)
    assert verify_morphism(back) == []
    both = compose_morphisms(fwd, back)
    assert verify_morphism(both) == []


def test_zero_morphism_is_valid_but_not_quasi_iso():
    rng = random.Random(11)
    g = pair_groupoid(["a", "b"])
    r = rand_strict_ruth(rng, g, rand_fiber_with_homology(rng, 1, 1, 0))
    zero = RuthMorphism(
        r,
        r,
        {x: RatMatrix.zeros(r.fibers[x].dim1, r.fibers[x].dim1) for x in g.objects},
        {x: RatMatrix.zeros(r.fibers[x].dim0, r.fibers[x].dim0) for x in g.objects},
        {a: RatMatrix.zeros(r.fibers[g.tgt(a)].dim1, r.fibers[g.src(a)].dim0) for a in g.arrows},
    )
    assert verify_morphism(zero) == []
    assert not is_quasi_iso_morphism(zero)
    with pytest.raises(LawError, match=r"quasi-isomorphism fails at \('a',\)"):
        morphism_to_transformation(zero)


def test_broken_morphism_detected():
    rng = random.Random(13)
    r = rand_ruth(rng, GROUPOIDS[1], style="sheared")
    m = rand_ruth_morphism(rng, r)
    a = next(a for a in r.groupoid.arrows if m.mu[a].rows and m.mu[a].cols)
    mu = dict(m.mu)
    bump = RatMatrix.zeros(mu[a].rows, mu[a].cols)
    bump = RatMatrix(
        bump.rows,
        bump.cols,
        tuple(
            Fraction(1) if i == 0 else e
            for i, e in enumerate(bump.entries)
        ),
    )
    mu[a] = mu[a] + bump
    bad = RuthMorphism(m.src, m.dst, m.theta1, m.theta0, mu)
    laws = {v.law for v in verify_morphism(bad)}
    assert laws & {"morphism homotopy", "morphism pair", "unit"}


def test_fiber_homology_reporting():
    rng = random.Random(1)
    g = pair_groupoid(["a", "b"])
    base = rand_fiber_with_homology(rng, 2, 1, 1)
    r = rand_strict_ruth(rng, g, base)
    hom = fiber_homology(r)
    assert all((h.h1, h.h0) == (2, 1) for h in hom.values())
    assert not is_acyclic(r)


def test_components_to_transformation_checks_each_component_once(monkeypatch):
    path = Path(__file__).parent / "fixtures" / "morphism_ruth.json"
    m = decode_ruth_morphism(load_document(path.read_text())[1])
    src, dst = ruth_to_pseudofunctor(m.src), ruth_to_pseudofunctor(m.dst)
    calls = []

    def counted(test):
        def wrapper(t):
            calls.append(t)
            return test(t)

        return wrapper

    monkeypatch.setattr(glv.ruth, "is_quasi_iso", counted(glv.ruth.is_quasi_iso))
    monkeypatch.setattr(glv.gl2, "is_quasi_iso", counted(glv.gl2.is_quasi_iso))
    h = components_to_transformation(src, dst, m.theta1, m.theta0, m.mu)
    assert len(h.at_obj) == 2 and len(h.at_arrow) == 4
    assert len(calls) == 2


def test_lax_verification_checks_each_chain_condition_once(monkeypatch):
    path = Path(__file__).parent / "fixtures" / "morphism_lax.json"
    m = decode_lax_morphism(load_document(path.read_text())[1])
    products = []
    matmul = RatMatrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(RatMatrix, "__matmul__", counted)
    assert verify_morphism(m, "lax") == []
    # Each end has four actions, each with a chain condition of two
    # products; checking them again while the arrows are built made 140.
    assert len(products) == 124



def _corner(rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix whose only nonzero entry is a 1 at (0, 0)."""
    return RatMatrix(rows, cols, tuple(Fraction(int(i == 0)) for i in range(rows * cols)))


def _bumped(m, table: str, key, bump: RatMatrix):
    """m, a representation or a morphism, with bump added to table[key]."""
    moved = dict(getattr(m, table))
    moved[key] = moved[key] + bump
    return replace(m, **{table: moved})


def _as_documents(m: RuthMorphism) -> tuple[list, list]:
    """The violations of m written as a ruth document and as its lax
    conversion, each verified in its own style."""
    text = dump_document("morphism", encode_ruth_morphism(m))
    lax_text = dump_document("morphism", encode_lax_morphism(m))
    ruth = verify_morphism(decode_ruth_morphism(load_document(text)[1]))
    lax = verify_morphism(decode_lax_morphism(load_document(lax_text)[1]), "lax")
    return ruth, lax


def _ruth_reading(g, violations) -> list:
    """(law, site) in ruth names: a transformation unit at x is the unit
    law at the unit arrow of x, a transformation prism a morphism pair."""
    out = []
    for v in violations:
        if v.law == "transformation unit":
            out.append(("unit", (g.unit(v.where[0]),)))
        else:
            out.append(({"transformation prism": "morphism pair"}.get(v.law, v.law), v.where))
    return out


def test_one_defect_gives_the_same_sites_in_both_morphism_styles():
    g = pair_groupoid(["a", "b"])
    a, u = "b|a", g.unit("a")
    x, y = g.arrows[a]
    for seed in range(100):
        rng = random.Random(seed)
        m = rand_ruth_morphism(rng, rand_ruth(rng, g, style="sheared"))
        f, mu = m.src.fibers[x], m.mu[a]
        kernel = homotopy_kernel_basis(f, m.dst.fibers[y])
        if not kernel.cols or not mu.rows or not m.mu[u].rows * m.mu[u].cols:
            continue
        defects = {
            # a component that is no chain map
            ("chain condition", "chain condition"): _bumped(
                m, "theta0", x, _corner(m.dst.fibers[x].dim0, f.dim0)
            ),
            # a naturality cell off its homotopy class
            ("morphism homotopy", "morphism homotopy"): _bumped(
                m, "mu", a, _corner(mu.rows, mu.cols)
            ),
            # a naturality cell moved inside its homotopy class
            ("morphism pair", "transformation prism"): _bumped(
                m, "mu", a, RatMatrix(mu.rows, mu.cols, (kernel @ _corner(kernel.cols, 1)).entries)
            ),
            # a nonzero cell at a unit
            ("unit", "transformation unit"): _bumped(
                m, "mu", u, _corner(m.mu[u].rows, m.mu[u].cols)
            ),
        }
        if all(
            law in {v.law for v in verify_morphism(bad)} for (law, _), bad in defects.items()
        ):
            break
    else:
        pytest.fail("no seed breaks every law")
    assert _as_documents(m) == ([], [])
    for (ruth_law, lax_law), bad in defects.items():
        ruth, lax = _as_documents(bad)
        assert ruth_law in {v.law for v in ruth} and lax_law in {v.law for v in lax}
        assert _ruth_reading(g, lax) == [(v.law, v.where) for v in ruth]


def _strict_pair():
    rng = random.Random(0)
    g = pair_groupoid(["a", "b"])
    return rng, rand_strict_ruth(rng, g, rand_fiber_with_homology(rng, 1, 1, 1))


@pytest.mark.parametrize("pair", [("a|b", "a|b"), ("q", "a|b")], ids=["not-composable", "no-arrow"])
def test_a_correction_off_the_composable_pairs_is_reported(pair):
    _, r = _strict_pair()
    r.gamma[pair] = RatMatrix.zeros(r.fibers["a"].dim1, r.fibers["b"].dim0)
    assert verify_ruth(r) == [Violation("composability", pair)]
    lax = verify_morphism(identity_morphism(r), "lax")
    assert {(v.law, v.where) for v in lax} == {("composability", pair)}
    p = ruth_to_pseudofunctor(_strict_pair()[1])
    p.comp_cell[pair] = next(iter(p.comp_cell.values()))
    assert verify_pseudofunctor(p) == [Violation("composability", pair)]


def test_a_misshapen_action_is_a_shape_violation_in_both_morphism_styles():
    rng, r = _strict_pair()
    m = rand_ruth_morphism(rng, r)
    a1 = m.src.rho1["b|a"]
    m.src.rho1["b|a"] = RatMatrix.zeros(a1.rows + 1, a1.cols)
    for style in ("ruth", "lax"):
        assert [(v.law, v.where) for v in verify_morphism(m, style)] == [("shape", ("b|a",))]


# ---- reference: every law at every composable pair and triple ---------------
# The verifiers skip the chains through a unit in the stages after the unit
# laws.  The reference below checks the same laws at every site, with the
# plain loops the verifiers once ran, and reuses the stages before.


def _every(g, n):
    """Every chain of n composable arrows, units included, in the order of a
    scan of the n-th power of the arrows."""
    return [
        c
        for c in product(g.arrows, repeat=n)
        if all(g.src(c[i]) == g.tgt(c[i + 1]) for i in range(n - 1))
    ]


def _reference_composition(r):
    g = r.groupoid
    for h, a in _every(g, 2):
        ha, c = g.comp[(h, a)], r.gamma[(h, a)]
        if c @ r.fibers[g.src(a)].d != r.rho1[ha] - r.rho1[h] @ r.rho1[a]:
            yield Violation("composition homotopy", (h, a), "degree 1")
        if r.fibers[g.tgt(h)].d @ c != r.rho0[ha] - r.rho0[h] @ r.rho0[a]:
            yield Violation("composition homotopy", (h, a), "degree 0")


def _reference_cocycle(r, law):
    g = r.groupoid
    for k, h, a in _every(g, 3):
        lhs = r.rho1[k] @ r.gamma[(h, a)] + r.gamma[(k, g.comp[(h, a)])]
        rhs = r.gamma[(k, h)] @ r.rho0[a] + r.gamma[(g.comp[(k, h)], a)]
        if lhs != rhs:
            yield Violation(law, (k, h, a))


def _reference_ruth(r):
    return gate(
        glv.ruth._tables(r, "pair has no correction"),
        glv.ruth._matrices(r),
        glv.ruth._units(r, "unit arrow must act as the identity", "correction at a unit must vanish"),
        chain(_reference_composition(r), _reference_cocycle(r, "cocycle")),
    )


def _reference_pseudofunctor(p):
    """For functors with a comparison cell at each composable pair only."""
    r = pseudofunctor_to_ruth(p)
    return gate(
        glv.ruth._units(r, "unit arrow image", "comparison cell at a unit"),
        _reference_cocycle(r, "coherence"),
    )


def _reference_functor_laws(r):
    bad = gate(glv.ruth._tables(r, "no comparison cell"), glv.ruth._matrices(r))
    if bad:
        return bad
    try:
        return _reference_pseudofunctor(ruth_to_pseudofunctor(r))
    except LawError as e:
        return e.violations


def _reference_morphism(m, style):
    """For total morphisms whose components are chain maps only."""
    g, lax = m.src.groupoid, style == "lax"
    ends = _reference_functor_laws if lax else _reference_ruth

    def pair_law():
        for h, a in _every(g, 2):
            x, z, ha = g.src(a), g.tgt(h), g.comp[(h, a)]
            lhs = (
                m.theta1[z] @ m.src.gamma[(h, a)]
                + m.mu[h] @ m.src.rho0[a]
                + m.dst.rho1[h] @ m.mu[a]
            )
            if lhs != m.mu[ha] + m.dst.gamma[(h, a)] @ m.theta0[x]:
                yield Violation("transformation prism" if lax else "morphism pair", (h, a))

    return gate(
        chain(glv.ruth._in_the("source", ends(m.src)), glv.ruth._in_the("target", ends(m.dst))),
        glv.ruth._quasi_isos(m) if lax else (),
        glv.ruth._naturality(m, lax),
        pair_law(),
    )


def _unchecked_functor(r):
    """r as a pseudo-functor, its arrows and cells built unchecked, so that it
    may break any law verify_pseudofunctor checks."""
    g = r.groupoid
    obj = {x: GLObject(x, f) for x, f in r.fibers.items()}
    arrow = {}
    for a, (x, y) in g.arrows.items():
        chain_map = _trusted(ChainMap2, r.fibers[x], r.fibers[y], r.rho1[a], r.rho0[a])
        arrow[a] = _trusted(GLArrow, obj[x], obj[y], chain_map)
    cells = {
        (h, a): _trusted(GL2Cell, arrow[g.comp[(h, a)]], compose_arrows(arrow[h], arrow[a]), c)
        for (h, a), c in r.gamma.items()
    }
    return PseudoFunctorGL(g, obj, arrow, cells)


def _broken_ruths(rng, r):
    """r, and r broken at its cocycle, its composition or its units."""
    g = r.groupoid
    units = g.unit_arrows
    inner = [p for p in _every(g, 2) if not units & set(p)]
    out = [r]
    perturbed = perturb_correction(rng, r)
    if perturbed is not None:
        out.append(perturbed[0])
    corrected = r
    for pair in rng.sample(inner, 2):
        c = r.gamma[pair]
        corrected = _bumped(corrected, "gamma", pair, rand_matrix(rng, c.rows, c.cols, 2))
    out.append(corrected)
    for x, f in r.fibers.items():
        # rho(1) = 2 id: still a chain map, no longer the identity
        u = g.unit(x)
        if f.dim1 or f.dim0:
            doubled = _bumped(r, "rho1", u, RatMatrix.identity(f.dim1))
            out.append(_bumped(doubled, "rho0", u, RatMatrix.identity(f.dim0)))
    for p in rng.sample([p for p in _every(g, 2) if units & set(p)], 3):
        c = r.gamma[p]
        if c.rows * c.cols:
            out.append(_bumped(r, "gamma", p, _corner(c.rows, c.cols)))
    return out


def _broken_morphisms(rng, g):
    """A random morphism over g, and the same broken at a naturality cell
    inside its homotopy class, at a unit, or at its source."""
    base = rand_fiber_with_homology(rng, 1, 1, 1)
    m = rand_ruth_morphism(rng, rand_gauge(rng, rand_strict_ruth(rng, g, base))[0])
    out = [m]
    for a in rng.sample(sorted(g.arrows.keys() - g.unit_arrows), 2):
        x, y = g.arrows[a]
        kernel = homotopy_kernel_basis(m.src.fibers[x], m.dst.fibers[y])
        bump = kernel @ RatMatrix.column([Fraction(rng.randint(1, 3)) for _ in range(kernel.cols)])
        out.append(_bumped(m, "mu", a, RatMatrix(m.mu[a].rows, m.mu[a].cols, bump.entries)))
    u = g.unit(g.objects[0])
    mu = m.mu[u]
    if mu.rows * mu.cols:
        out.append(_bumped(m, "mu", u, _corner(mu.rows, mu.cols)))
    perturbed = perturb_correction(rng, m.src)
    if perturbed is not None:
        out.append(replace(m, src=perturbed[0]))
    return out


REFERENCE_GROUPOIDS = [pair_groupoid("ab"), pair_groupoid("abc"), pair_groupoid("abcd"), regular_action()]


@pytest.mark.parametrize("g", REFERENCE_GROUPOIDS, ids=["pair2", "pair3", "pair4", "z3"])
def test_verifiers_skipping_unit_chains_agree_with_the_reference(g):
    reports = []  # (verifier's report, reference report)
    for seed in range(6):
        rng = random.Random(seed)
        for r in _broken_ruths(rng, rand_ruth(rng, g, style=("double", "strict", "sheared")[seed % 3])):
            f = _unchecked_functor(r)
            reports.append((verify_ruth(r), _reference_ruth(r)))
            reports.append((verify_pseudofunctor(f), _reference_pseudofunctor(f)))
        for m in _broken_morphisms(rng, g):
            reports += [(verify_morphism(m, s), _reference_morphism(m, s)) for s in ("ruth", "lax")]
    for got, want in reports:
        assert got == want
    # the inputs reach every law past the unit stage, and the unit stage fails
    assert {v.law for _, want in reports for v in want} >= {
        "composition homotopy",
        "cocycle",
        "coherence",
        "unit",
        "morphism pair",
        "transformation prism",
        "transformation unit",
    }
