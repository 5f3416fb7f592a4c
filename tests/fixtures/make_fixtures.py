"""Regenerate the document corpus under tests/fixtures.

Run from the repository root:

    python3 tests/fixtures/make_fixtures.py

Every file is written canonically through dump_document, with fixed seeds,
so reruns are byte-stable.  For each bad_* fixture the script asserts that
exactly the documented law is violated; see README.md next to the files.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

from glv import documents as docs
from glv.chain2 import homotopy_kernel_basis
from glv.gl2 import GL2Cell
from glv.groupoid import FinGroupoid, action_groupoid, cyclic_group, pair_groupoid, verify_groupoid
from glv.linalg import RatMatrix
from glv.nerve import (
    GLHandle,
    TableHandle,
    horn_of,
    make_simplex,
    validate_horn,
    validate_simplex,
)
from glv.ruth import (
    Ruth2,
    lines_projection_rep,
    ruth_to_pseudofunctor,
    verify_morphism,
    verify_pseudofunctor,
    verify_ruth,
)
from glv.sampling import (
    perturb_correction,
    rand_ruth,
    rand_ruth_morphism,
    sample_gl_simplex,
    sample_table_simplex,
)
from glv.twocat import Fin2Cat, delooping, from_groupoid, verify_2category


def write(out: Path, name: str, kind: str, payload: dict) -> None:
    (out / name).write_text(docs.dump_document(kind, payload))
    print(f"wrote {name}")


def laws(violations) -> set:
    return {v.law for v in violations}


def kernel_bump(src_fiber, dst_fiber, shape_like: RatMatrix) -> RatMatrix:
    """A nonzero matrix that perturbs a homotopy without ceasing to be one."""
    basis = homotopy_kernel_basis(src_fiber, dst_fiber)
    assert basis.cols > 0, "fixture needs a nontrivial homotopy kernel"
    coeffs = [Fraction(0)] * basis.cols
    coeffs[0] = Fraction(1)
    col = basis @ RatMatrix.column(coeffs)
    return RatMatrix(shape_like.rows, shape_like.cols, col.entries)


def one_object_group(n: int) -> FinGroupoid:
    els, mul, unit = cyclic_group(n)
    arrows = {e: ("*", "*") for e in els}
    inv = {str(i): str((-i) % n) for i in range(n)}
    return FinGroupoid(("*",), arrows, dict(mul), {"*": unit}, inv)


def cells_z2() -> Fin2Cat:
    """One object, one (identity) arrow, two parallel cells adding mod 2."""
    add = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return Fin2Cat(
        objects=("*",),
        arrows={"1": ("*", "*")},
        cells={"e": ("1", "1"), "t": ("1", "1")},
        comp1={("1", "1"): "1"},
        hcomp=dict(add),
        vcomp=dict(add),
        unit_arrow={"*": "1"},
        unit_cell={"1": "e"},
    )


def main(out: Path = HERE) -> None:
    """Write the corpus into the directory out."""
    # ---- valid documents -------------------------------------------------
    g3 = pair_groupoid(["a", "b", "c"])
    write(out, "groupoid_pair.json", "groupoid", docs.encode_groupoid(g3))

    els, mul, unit = cyclic_group(3)
    act = action_groupoid(els, mul, unit, els, mul)
    write(out, "groupoid_action_z3.json", "groupoid", docs.encode_groupoid(act))

    dl4 = delooping(*cyclic_group(4))
    write(out, "two_category_delooping_z4.json", "two-category", docs.encode_two_category(dl4))
    write(
        out,
        "two_category_pair.json",
        "two-category",
        docs.encode_two_category(from_groupoid(pair_groupoid(["a", "b"]))),
    )

    rng = random.Random(101)
    sheared = rand_ruth(rng, g3, style="sheared")
    assert verify_ruth(sheared) == []
    write(out, "ruth_sheared.json", "ruth", docs.encode_ruth(sheared))
    write(out, "bundle.json", "bundle", docs.encode_bundle(sheared.fibers))

    lines = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]
    raw_lines = lines_projection_rep(lines)
    assert laws(verify_ruth(raw_lines)) == {"composition homotopy"}
    write(out, "bad_ruth_composition_lines.json", "ruth", docs.encode_ruth(raw_lines))

    functor = ruth_to_pseudofunctor(sheared)
    assert verify_pseudofunctor(functor) == []
    write(out, "functor.json", "functor", docs.encode_functor(functor))

    rng = random.Random(7)
    s3 = sample_gl_simplex(rng, 3)
    assert validate_simplex(GLHandle(), s3) == []
    write(out, "simplex_gl.json", "simplex", docs.encode_simplex(s3))
    write(out, "horn_gl_31.json", "horn", docs.encode_horn(horn_of(s3, 1)))

    s2 = sample_gl_simplex(random.Random(8), 2)
    write(out, "horn_gl_20.json", "horn", docs.encode_horn(horn_of(s2, 0)))

    table_handle = TableHandle(dl4)
    st = sample_table_simplex(table_handle, random.Random(9), 3)
    assert validate_simplex(table_handle, st) == []
    write(out, "simplex_table.json", "simplex", docs.encode_simplex(st, dl4))
    write(out, "horn_table_32.json", "horn", docs.encode_horn(horn_of(st, 2), dl4))

    rng = random.Random(12)
    base = rand_ruth(rng, pair_groupoid(["a", "b"]))
    morphism = rand_ruth_morphism(rng, base)
    assert verify_morphism(morphism) == []
    write(out, "morphism_ruth.json", "morphism", docs.encode_ruth_morphism(morphism))

    assert verify_morphism(morphism, "lax") == []
    write(out, "morphism_lax.json", "morphism", docs.encode_lax_morphism(morphism))

    # ---- semantically broken documents (verify exits 1) ------------------
    broken_group = one_object_group(4)
    broken_group.comp[("1", "1")] = "0"
    assert laws(verify_groupoid(broken_group)) == {"associativity"}
    write(out, "bad_groupoid_associativity.json", "groupoid", docs.encode_groupoid(broken_group))

    c2 = cells_z2()
    assert verify_2category(c2) == []
    c2.hcomp[("t", "t")] = "t"
    assert laws(verify_2category(c2)) == {"interchange"}
    write(out, "bad_two_category_interchange.json", "two-category", docs.encode_two_category(c2))

    rng = random.Random(31)
    while True:
        candidate = rand_ruth(rng, g3, style="sheared")
        got = perturb_correction(rng, candidate)
        if got is not None:
            bad_cocycle, _ = got
            break
    assert laws(verify_ruth(bad_cocycle)) == {"cocycle"}
    write(out, "bad_ruth_cocycle.json", "ruth", docs.encode_ruth(bad_cocycle))

    bad_functor = ruth_to_pseudofunctor(bad_cocycle)
    assert laws(verify_pseudofunctor(bad_functor)) == {"coherence"}
    write(out, "bad_functor_coherence.json", "functor", docs.encode_functor(bad_functor))

    seed = 40
    while True:
        seed += 1
        bad_chain = rand_ruth(random.Random(seed), pair_groupoid(["a", "b"]), style="strict")
        arrow = "b|a"
        old = bad_chain.rho1[arrow]
        ones = RatMatrix(old.rows, old.cols, tuple(Fraction(1) for _ in old.entries))
        bad_chain.rho1 = dict(bad_chain.rho1)
        bad_chain.rho1[arrow] = old + ones
        if laws(verify_ruth(bad_chain)) == {"chain condition"}:
            break
    write(out, "bad_ruth_chain.json", "ruth", docs.encode_ruth(bad_chain))

    # a 3-simplex with one triangle moved inside its homotopy class
    seed = 0
    while True:
        seed += 1
        s = sample_gl_simplex(random.Random(seed), 3)
        tri = dict(s.triangles)
        cell = tri[(2, 1, 0)]
        v0, v2 = s.vertices[0], s.vertices[2]
        if homotopy_kernel_basis(v0.fiber, v2.fiber).cols == 0:
            continue
        bump = kernel_bump(v0.fiber, v2.fiber, cell.r)
        tri[(2, 1, 0)] = GL2Cell(cell.source, cell.target, cell.r + bump)
        broken_simplex = make_simplex(s.vertices, dict(s.edges), tri)
        if laws(validate_simplex(GLHandle(), broken_simplex)) == {"tetrahedron"}:
            break
    write(out, "bad_simplex_tetrahedron.json", "simplex", docs.encode_simplex(broken_simplex))

    # a (4, 2) horn whose present faces already fail a tetrahedron equation
    seed = 0
    while True:
        seed += 1
        s4 = sample_gl_simplex(random.Random(seed), 4)
        tri = dict(s4.triangles)
        cell = tri[(3, 1, 0)]
        v0, v3 = s4.vertices[0], s4.vertices[3]
        if homotopy_kernel_basis(v0.fiber, v3.fiber).cols == 0:
            continue
        bump = kernel_bump(v0.fiber, v3.fiber, cell.r)
        tri[(3, 1, 0)] = GL2Cell(cell.source, cell.target, cell.r + bump)
        broken4 = make_simplex(s4.vertices, dict(s4.edges), tri)
        horn42 = horn_of(broken4, 2)
        if laws(validate_horn(GLHandle(), horn42)) == {"tetrahedron"}:
            break
    write(out, "bad_horn_tetrahedron.json", "horn", docs.encode_horn(horn42))

    seed = 0
    while True:
        seed += 1
        rng = random.Random(seed)
        r = rand_ruth(rng, pair_groupoid(["a", "b"]))
        m = rand_ruth_morphism(rng, r)
        a = "b|a"
        x, y = m.src.groupoid.arrows[a]
        if homotopy_kernel_basis(m.src.fibers[x], m.dst.fibers[y]).cols == 0:
            continue
        bump = kernel_bump(m.src.fibers[x], m.dst.fibers[y], m.mu[a])
        m.mu = dict(m.mu)
        m.mu[a] = m.mu[a] + bump
        if laws(verify_morphism(m)) == {"morphism pair"}:
            break
    write(out, "bad_morphism_pair.json", "morphism", docs.encode_ruth_morphism(m))

    seed = 100
    while True:
        seed += 1
        rng = random.Random(seed)
        r = rand_ruth(rng, pair_groupoid(["a", "b"]))
        m = rand_ruth_morphism(rng, r)
        if verify_morphism(m) != []:
            continue
        a = "b|a"
        x, y = m.src.groupoid.arrows[a]
        if homotopy_kernel_basis(m.src.fibers[x], m.dst.fibers[y]).cols == 0:
            continue
        bump = kernel_bump(m.src.fibers[x], m.dst.fibers[y], m.mu[a])
        m.mu = dict(m.mu)
        m.mu[a] = m.mu[a] + bump
        payload = docs.encode_lax_morphism(m)
        if laws(verify_morphism(docs.decode_lax_morphism(payload), "lax")) == {
            "transformation prism"
        }:
            break
    write(out, "bad_morphism_prism.json", "morphism", payload)

    # ---- structurally malformed documents (exit 2) -----------------------
    text = docs.dump_document("groupoid", docs.encode_groupoid(pair_groupoid(["a", "b"])))
    (out / "malformed_version.json").write_text(text.replace('"version": "1"', '"version": "2"'))
    print("wrote malformed_version.json")
    (out / "malformed_extra_field.json").write_text(
        text.replace('"version": "1"', '"version": "1",\n  "zzz_extra": true')
    )
    print("wrote malformed_extra_field.json")
    payload = docs.encode_groupoid(pair_groupoid(["a", "b"]))
    payload["notes"] = "unexpected"
    (out / "malformed_payload_field.json").write_text(docs.dump_document("groupoid", payload))
    print("wrote malformed_payload_field.json")


if __name__ == "__main__":
    main()
