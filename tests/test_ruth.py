"""Representations up to homotopy and the pseudo-functor dictionary."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import glv.gl2
import glv.ruth
from glv.chain2 import Fiber2, homotopy_kernel_basis
from glv.documents import (
    decode_lax_morphism,
    decode_ruth_morphism,
    dump_document,
    encode_lax_morphism,
    encode_ruth_morphism,
    load_document,
)
from glv.groupoid import action_groupoid, cyclic_group, pair_groupoid
from glv.laxmaps import verify_lax_transformation
from glv.linalg import RatMatrix
from glv.nerve import GLHandle
from glv.reports import LawError, Violation
from glv.ruth import (
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



def _corner(rows: int, cols: int) -> RatMatrix:
    """The rows x cols matrix whose only nonzero entry is a 1 at (0, 0)."""
    return RatMatrix(rows, cols, tuple(Fraction(int(i == 0)) for i in range(rows * cols)))


def _bumped(m: RuthMorphism, table: str, key: str, bump: RatMatrix) -> RuthMorphism:
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
