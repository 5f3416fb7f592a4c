"""Acceptance gate: nine criteria, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion states its sample counts inline.
"""

import random
import time
from fractions import Fraction

from click.testing import CliRunner

from glv.chain2 import (
    cone_is_exact,
    homology,
    homotopy_kernel_basis,
    induced_homology_maps,
    is_quasi_iso,
)
from glv.cli import main as cli_main
from glv.gl2 import (
    GL2Cell,
    compose_arrows,
    hcompose,
    identity_arrow,
    quasi_inverse,
    vcompose,
)
from glv.groupoid import action_groupoid, cyclic_group, pair_groupoid
from glv.laxmaps import (
    HomotopyData,
    homotopy_to_lax_transformation,
    lax_to_simplicial,
    lax_transformation_to_homotopy,
    simplicial_to_lax,
    verify_lax_transformation,
    verify_simplicial_map,
)
from glv.linalg import RatMatrix, rank
from glv.nerve import (
    GLHandle,
    NoFillerError,
    TableHandle,
    coskeletal_extend,
    enumerate_nerve,
    facets,
    fill_horn,
    horn_of,
    make_simplex,
    reconstruct_stage,
    stage_to_simplex,
    strip_to_stage,
    tetrahedron_holds,
    validate_simplex,
)
from glv.ruth import (
    as_lax_functor,
    double_rep,
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
    rand_cell_on,
    rand_chain_map,
    rand_double_ruth,
    rand_fiber,
    rand_gl_arrow,
    rand_gl_objects,
    rand_interchange_square,
    rand_quasi_iso,
    rand_ruth,
    rand_ruth_morphism,
    sample_gl_simplex,
    sample_table_simplex,
)
from glv.twocat import delooping

from helpers import fill_outer_2horn
from test_cli import BROKEN, FIXTURES, MALFORMED, VALID

GL = GLHandle()


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def _groupoids():
    els, mul, unit = cyclic_group(3)
    return (
        pair_groupoid(["a", "b", "c"]),
        action_groupoid(els, mul, unit, els, mul),
    )


def test_criterion_1_quasi_iso_oracles_agree():
    start = time.time()
    rng = random.Random(1001)
    positive = negative = 0
    for i in range(1000):
        src = rand_fiber(rng, 4)
        dst = rand_fiber(rng, 4)
        if i % 2 == 0 or homology(src) != homology(dst):
            m = rand_chain_map(rng, src, dst)
        else:
            m = rand_quasi_iso(rng, src, dst)
        by_rank = is_quasi_iso(m)
        by_cone = cone_is_exact(m)
        h1, h0 = induced_homology_maps(m)
        by_homology = (
            h1.rows == h1.cols
            and h0.rows == h0.cols
            and rank(h1) == h1.rows
            and rank(h0) == h0.rows
        )
        assert by_rank == by_cone == by_homology, (i, by_rank, by_cone, by_homology)
        positive += by_rank
        negative += not by_rank
    elapsed = time.time() - start
    assert elapsed < 30.0
    assert positive >= 100 and negative >= 100
    _report(
        1,
        f"rank, cone and homology quasi-iso tests agree on 1000 random chain maps "
        f"(dims <= 4, {positive} positive / {negative} negative, {elapsed:.1f}s)",
    )


def test_criterion_2_interchange_exact():
    rng = random.Random(1002)
    for _ in range(1000):
        (r2, r1), (s2, s1) = rand_interchange_square(rng)
        left = hcompose(vcompose(s2, s1), vcompose(r2, r1))
        right = vcompose(hcompose(s2, r2), hcompose(s1, r1))
        assert left == right
    _report(2, "interchange holds exactly on 1000 random squares of 2-cells")


def test_criterion_3_quasi_inverses_and_outer_horns():
    rng = random.Random(1003)
    for _ in range(500):
        x, y = rand_gl_objects(rng, 2, max_h=1, max_extra=2)
        f = rand_gl_arrow(rng, x, y)
        qi = quasi_inverse(f)
        assert qi.unit.source == identity_arrow(f.src)
        assert qi.unit.target == compose_arrows(qi.inverse, f)
        assert qi.counit.source == identity_arrow(f.dst)
        assert qi.counit.target == compose_arrows(f, qi.inverse)
    for i in range(500):
        x, y, z = rand_gl_objects(rng, 3, max_h=1, max_extra=2)
        if i % 2 == 0:
            alpha = rand_gl_arrow(rng, x, y)
            gamma = rand_gl_arrow(rng, x, z)
            beta, cell = fill_outer_2horn(0, (x, y, z), {(1, 0): alpha, (2, 0): gamma})
            assert cell.source == gamma
            assert cell.target == compose_arrows(beta, alpha)
        else:
            gamma = rand_gl_arrow(rng, x, z)
            beta = rand_gl_arrow(rng, y, z)
            alpha, cell = fill_outer_2horn(2, (x, y, z), {(2, 0): gamma, (2, 1): beta})
            assert cell.source == gamma
            assert cell.target == compose_arrows(beta, alpha)
    _report(
        3,
        "500 quasi-inverses and 500 outer 2-horn fillers over fibers of dim <= 3, "
        "all homotopy equations exact by construction",
    )


def test_criterion_4_nerves_fillers_and_cubes():
    # deloopings of Z/n for n <= 6: every simplex validates, extension from
    # the boundary recovers it, so the nerve is determined by levels <= 3
    for n in range(1, 7):
        handle = TableHandle(delooping(*cyclic_group(n)))
        for level in range(4):
            simplices = enumerate_nerve(handle, level)
            assert len(simplices) == n ** (level * (level - 1) // 2)
            for s in simplices:
                assert validate_simplex(handle, s) == []
        for s in enumerate_nerve(handle, 3)[:: max(1, n)]:
            assert coskeletal_extend(handle, facets(handle, s)) == s

    # horn fillers at n = 3 and n = 4 validate and recover the simplex
    rng = random.Random(1004)
    for _ in range(10):
        s = sample_gl_simplex(rng, 3)
        for k in range(4):
            assert fill_horn(GL, horn_of(s, k)) == s
    dl5 = TableHandle(delooping(*cyclic_group(5)))
    for seed in range(6):
        s = sample_table_simplex(dl5, random.Random(seed), 3)
        for k in range(4):
            assert fill_horn(dl5, horn_of(s, k)) == s

    # n = 4: the filler is unique; perturbing any horn triangle inside its
    # homotopy class either breaks fillability or changes the filler
    perturbed_checked = 0
    for trial in range(4):
        s = sample_gl_simplex(random.Random(200 + trial), 4)
        for k in range(5):
            horn = horn_of(s, k)
            assert fill_horn(GL, horn) == s
        tris = dict(s.triangles)
        for key, cell in tris.items():
            basis = homotopy_kernel_basis(
                cell.source.src.fiber, cell.source.dst.fiber
            )
            if basis.cols == 0:
                continue
            column = basis @ RatMatrix.column(
                [Fraction(1)] + [Fraction(0)] * (basis.cols - 1)
            )
            bump = RatMatrix(cell.r.rows, cell.r.cols, column.entries)
            moved = dict(tris)
            moved[key] = GL2Cell(cell.source, cell.target, cell.r + bump)
            candidate = make_simplex(s.vertices, dict(s.edges), moved)
            horn = horn_of(candidate, 2)
            try:
                other = fill_horn(GL, horn)
            except NoFillerError:
                perturbed_checked += 1
                continue
            assert other != s
            perturbed_checked += 1
    assert perturbed_checked >= 8

    # five faces imply the sixth: the unconstrained tetrahedron equation of
    # a sampled 4-simplex holds automatically
    cubes = 0
    rng = random.Random(1044)
    for _ in range(150):
        s = sample_gl_simplex(rng, 4)
        assert tetrahedron_holds(GL, s, (4, 3, 2, 0))
        assert validate_simplex(GL, s) == []
        cubes += 1
    dl3 = TableHandle(delooping(*cyclic_group(3)))
    for seed in range(50):
        s = sample_table_simplex(dl3, random.Random(seed), 4)
        assert tetrahedron_holds(dl3, s, (4, 3, 2, 0))
        assert validate_simplex(dl3, s) == []
        cubes += 1
    assert cubes >= 200
    _report(
        4,
        "nerves of deloopings Z/1..Z/6 validate and are boundary-determined, "
        "(3,k) and (4,k) fillers reproduce their simplex, perturbed 4-horns "
        f"never refill to it ({perturbed_checked} cases), and the sixth "
        f"tetrahedron equation follows from the other five on {cubes} cubes",
    )


def test_criterion_5_filtration_round_trips():
    count = 0
    rng = random.Random(1005)
    for n in (2, 3, 4):
        for _ in range((60, 40, 20)[n - 2]):
            s = sample_gl_simplex(rng, n)
            tris = s.triangle_map()
            for start in range(1, n):
                stage = strip_to_stage(s, start)
                for k1 in range(start, 0, -1):
                    stage = reconstruct_stage(GL, stage, tris[(n, k1, k1 - 1)])
                assert stage_to_simplex(stage) == s
            count += 1
    handles = [
        TableHandle(delooping(*cyclic_group(4))),
        TableHandle(delooping(*cyclic_group(6))),
    ]
    for n in (2, 3, 4):
        for i in range((30, 30, 20)[n - 2]):
            handle = handles[i % 2]
            s = sample_table_simplex(handle, random.Random(1000 * n + i), n)
            tris = s.triangle_map()
            for start in range(1, n):
                stage = strip_to_stage(s, start)
                for k1 in range(start, 0, -1):
                    stage = reconstruct_stage(handle, stage, tris[(n, k1, k1 - 1)])
                assert stage_to_simplex(stage) == s
            count += 1
    assert count >= 200
    _report(
        5,
        f"filtration stages strip and rebuild {count} simplices bit-exactly "
        "for every n <= 4 and every starting stage",
    )


def test_criterion_6_representation_equivalence():
    grps = _groupoids()
    rng = random.Random(1006)
    for i in range(200):
        g = grps[i % 2]
        r = rand_ruth(rng, g)
        p = ruth_to_pseudofunctor(r)
        assert verify_pseudofunctor(p) == []
        assert pseudofunctor_to_ruth(p) == r
        assert ruth_to_pseudofunctor(pseudofunctor_to_ruth(p)) == p

        m = rand_ruth_morphism(rng, r)
        assert verify_morphism(m) == []
        assert is_quasi_iso_morphism(m)
        h = morphism_to_transformation(m)
        assert (
            verify_lax_transformation(
                h, as_lax_functor(ruth_to_pseudofunctor(m.src)),
                as_lax_functor(ruth_to_pseudofunctor(m.dst)), GL
            )
            == []
        )
        back = transformation_to_morphism(h, m.src, m.dst)
        assert back == m
        assert morphism_to_transformation(back) == h

    mirrored = 0
    rng = random.Random(1066)
    while mirrored < 200:
        g = grps[mirrored % 2]
        got = perturb_correction(rng, rand_ruth(rng, g))
        if got is None:
            continue
        bad, _ = got
        ruth_sites = sorted(v.where for v in verify_ruth(bad))
        assert ruth_sites and {v.law for v in verify_ruth(bad)} == {"cocycle"}
        functor_report = verify_pseudofunctor(ruth_to_pseudofunctor(bad))
        assert {v.law for v in functor_report} == {"coherence"}
        assert sorted(v.where for v in functor_report) == ruth_sites
        mirrored += 1
    _report(
        6,
        "representations and pseudo-functors convert back and forth bit-exactly "
        "(200 instances, with morphisms and transformations), and cocycle and "
        f"coherence reports name identical sites on {mirrored} perturbed inputs",
    )


def test_criterion_7_doubling_is_valid_and_acyclic():
    rng = random.Random(1007)
    lines_families = [
        [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
    ]
    while len(lines_families) < 25:
        count = rng.randint(3, 5)
        fam = [
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
            for _ in range(count)
        ]
        if any(a == 0 and b == 0 for a, b in fam):
            continue
        if any(
            v[0] * w[0] + v[1] * w[1] == 0 for v in fam for w in fam
        ):
            continue
        lines_families.append(fam)
    for fam in lines_families:
        r = lines_projection_rep(fam)
        assert verify_ruth(r) != []
        doubled = double_rep(r.groupoid, r.rho0)
        assert verify_ruth(doubled) == []
        assert is_acyclic(doubled)

    grps = _groupoids()
    for i in range(100):
        r = rand_double_ruth(rng, grps[i % 2])
        assert verify_ruth(r) == []
        assert is_acyclic(r)
    _report(
        7,
        f"doubling repairs {len(lines_families)} non-orthogonal line families "
        "and 100 random pseudo-representations into valid acyclic representations",
    )


def test_criterion_8_simplicial_dictionary():
    import test_laxmaps as lm

    fixtures = []
    h3, carry = lm.carry_functor(3)
    fixtures.append((carry, h3, h3))
    gl_src, strict = lm.strict_gl_rep()
    fixtures.append((strict, TableHandle(gl_src), GL))
    for fun, source_handle, target in fixtures:
        data = lax_to_simplicial(fun, source_handle, target)
        assert verify_simplicial_map(data, source_handle, target) == []
        back = simplicial_to_lax(data, source_handle, target)
        assert back == fun
        assert lax_to_simplicial(back, source_handle, target) == data

    rng = random.Random(1008)
    grps = _groupoids()
    recovered = 0
    for i in range(100):
        r = rand_ruth(rng, grps[i % 2])
        m = rand_ruth_morphism(rng, r)
        h = morphism_to_transformation(m)
        src = as_lax_functor(ruth_to_pseudofunctor(m.src))
        dst = as_lax_functor(ruth_to_pseudofunctor(m.dst))
        data = lax_transformation_to_homotopy(h, src, GL)
        assert homotopy_to_lax_transformation(data, src, dst, GL) == h

        # shift every diagonal inside its homotopy class; the collapsed
        # transformation is still recovered bit for bit
        moved = {}
        cell0 = {}
        cell1 = {}
        for f in src.source.arrows:
            shift = rand_cell_on(rng, data.diagonal[f])
            moved[f] = shift.target
            back_cell = GL.invert_cell(shift)
            cell0[f] = back_cell
            cell1[f] = GL.vcompose(h.at_arrow[f], back_cell)
        shifted = HomotopyData(dict(data.at_obj), moved, cell0, cell1)
        assert homotopy_to_lax_transformation(shifted, src, dst, GL) == h
        recovered += 1
    assert recovered == 100
    _report(
        8,
        "lax functors and their nerve maps determine each other exactly on the "
        "fixture functors, and prism data collapses back to its transformation "
        f"on {recovered} equivalences, including shifted diagonals",
    )


def test_criterion_9_cli_corpus():
    start = time.time()
    runner = CliRunner()
    for name in VALID:
        result = runner.invoke(cli_main, ["verify", str(FIXTURES / name)])
        assert result.exit_code == 0, (name, result.output)
    for name, law in BROKEN.items():
        result = runner.invoke(cli_main, ["verify", str(FIXTURES / name)])
        assert result.exit_code == 1, (name, result.output)
        assert law in result.output, (name, result.output)
    for name in MALFORMED:
        result = runner.invoke(cli_main, ["verify", str(FIXTURES / name)])
        assert result.exit_code == 2, (name, result.output)
    result = runner.invoke(
        cli_main, ["fill", str(FIXTURES / "bad_horn_tetrahedron.json")]
    )
    assert result.exit_code == 1 and "tetrahedron" in result.output
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(
        9,
        f"{len(VALID)} valid documents verify, {len(BROKEN)} documented "
        f"perturbations fail naming their law, {len(MALFORMED)} malformed "
        f"documents are rejected ({elapsed:.1f}s)",
    )
