"""End-to-end runs of the command line tool over the fixture corpus."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from glv.cli import main
from glv.documents import decode_ruth, dump_document, encode_ruth_morphism, load_document
from glv.ruth import identity_morphism

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

VALID = [
    "groupoid_pair.json",
    "groupoid_action_z3.json",
    "two_category_delooping_z4.json",
    "two_category_pair.json",
    "bundle.json",
    "ruth_sheared.json",
    "functor.json",
    "simplex_gl.json",
    "simplex_table.json",
    "horn_gl_20.json",
    "horn_gl_31.json",
    "horn_table_32.json",
    "morphism_ruth.json",
    "morphism_lax.json",
]

BROKEN = {
    "bad_groupoid_associativity.json": "associativity",
    "bad_two_category_interchange.json": "interchange",
    "bad_ruth_chain.json": "chain condition",
    "bad_ruth_composition_lines.json": "composition homotopy",
    "bad_ruth_cocycle.json": "cocycle",
    "bad_functor_coherence.json": "coherence",
    "bad_simplex_tetrahedron.json": "tetrahedron",
    "bad_horn_tetrahedron.json": "tetrahedron",
    "bad_morphism_pair.json": "morphism pair",
    "bad_morphism_prism.json": "transformation prism",
}

MALFORMED = [
    "malformed_version.json",
    "malformed_extra_field.json",
    "malformed_payload_field.json",
]


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.mark.parametrize("name", VALID)
def test_verify_accepts_valid_fixtures(name):
    result = run("verify", FIXTURES / name)
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ok:")


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_verify_names_the_broken_law(name):
    result = run("verify", FIXTURES / name)
    assert result.exit_code == 1, result.output
    assert BROKEN[name] in result.output


@pytest.mark.parametrize("name", MALFORMED)
def test_verify_rejects_malformed_documents(name):
    result = run("verify", FIXTURES / name)
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_verify_kind_flag_must_match():
    result = run("verify", FIXTURES / "groupoid_pair.json", "--kind", "ruth")
    assert result.exit_code == 2
    assert "expected ruth" in result.output
    result = run("verify", FIXTURES / "groupoid_pair.json", "--kind", "groupoid")
    assert result.exit_code == 0


def test_verify_missing_file():
    result = run("verify", FIXTURES / "does_not_exist.json")
    assert result.exit_code == 2


def _convert(tmp_path, src, direction, name):
    out = tmp_path / name
    result = run("convert", src, "--direction", direction, "--out", out)
    assert result.exit_code == 0, result.output
    return out


def test_convert_ruth_functor_roundtrip_is_byte_identical(tmp_path):
    start = FIXTURES / "ruth_sheared.json"
    mid = _convert(tmp_path, start, "ruth-to-functor", "mid.json")
    assert run("verify", mid).exit_code == 0
    back = _convert(tmp_path, mid, "functor-to-ruth", "back.json")
    assert back.read_bytes() == start.read_bytes()

    fstart = FIXTURES / "functor.json"
    assert mid.read_bytes() == fstart.read_bytes()
    r = _convert(tmp_path, fstart, "functor-to-ruth", "r.json")
    f2 = _convert(tmp_path, r, "ruth-to-functor", "f2.json")
    assert f2.read_bytes() == fstart.read_bytes()


def test_convert_morphism_roundtrip_is_byte_identical(tmp_path):
    start = FIXTURES / "morphism_ruth.json"
    lax = _convert(tmp_path, start, "morphism-to-lax", "lax.json")
    assert lax.read_bytes() == (FIXTURES / "morphism_lax.json").read_bytes()
    assert run("verify", lax).exit_code == 0
    back = _convert(tmp_path, lax, "lax-to-morphism", "back.json")
    assert back.read_bytes() == start.read_bytes()


def test_convert_refuses_broken_input():
    result = run(
        "convert", FIXTURES / "bad_ruth_cocycle.json", "--direction", "ruth-to-functor"
    )
    assert result.exit_code == 1
    assert "cocycle" in result.output


def test_convert_kind_and_style_mismatches():
    result = run(
        "convert", FIXTURES / "groupoid_pair.json", "--direction", "ruth-to-functor"
    )
    assert result.exit_code == 2
    result = run(
        "convert", FIXTURES / "morphism_lax.json", "--direction", "morphism-to-lax"
    )
    assert result.exit_code == 2
    assert "style" in result.output


@pytest.mark.parametrize("style", ["lux", None])
def test_convert_reports_a_bad_morphism_style(tmp_path, style):
    def set_style(p):
        if style is None:
            del p["style"]
        else:
            p["style"] = style

    path = _mutated(tmp_path, "morphism_lax.json", set_style)
    result = run("convert", path, "--direction", "lax-to-morphism")
    assert result.exit_code == 2, result.output
    assert result.output == "error: payload.style: expected 'ruth' or 'lax'\n"
    assert run("verify", path).output == result.output


@pytest.mark.parametrize(
    "name", ["horn_gl_20.json", "horn_gl_31.json", "horn_table_32.json"]
)
def test_fill_produces_a_valid_simplex(tmp_path, name):
    out = tmp_path / "filled.json"
    result = run("fill", FIXTURES / name, "--out", out)
    assert result.exit_code == 0, result.output
    kind, _ = load_document(out.read_text())
    assert kind == "simplex"
    assert run("verify", out).exit_code == 0


def test_fill_reports_unfillable_horn():
    result = run("fill", FIXTURES / "bad_horn_tetrahedron.json")
    assert result.exit_code == 1
    assert "no filler" in result.output and "tetrahedron" in result.output


@pytest.mark.parametrize("vertices", [["*", "*"], ["*"]], ids=["dim1", "dim0"])
def test_fill_refuses_a_horn_below_dimension_two(tmp_path, vertices):
    def shrink(p):
        p.update(vertices=vertices, missing=0, edges={}, triangles={})

    path = _mutated(tmp_path, "horn_table_32.json", shrink)
    assert run("verify", path).output == "ok: horn\n"
    result = run("fill", path)
    assert result.exit_code == 2, result.output
    assert result.output == "error: horn filling starts at dimension 2\n"


def test_fill_handle_flag_must_match():
    result = run("fill", FIXTURES / "horn_gl_31.json", "--handle", "table")
    assert result.exit_code == 2
    result = run("fill", FIXTURES / "simplex_gl.json")
    assert result.exit_code == 2


GOOD_EXAMPLES = [
    ("pair", ["--points", "x,y"]),
    ("action", ["--n", "4"]),
    ("delooping", ["--n", "5"]),
    ("doubling", []),
    ("doubling", ["--seed", "3"]),
]


@pytest.mark.parametrize("example,args", GOOD_EXAMPLES)
def test_generate_then_verify(tmp_path, example, args):
    out = tmp_path / "doc.json"
    result = run("generate", example, "--out", out, *args)
    assert result.exit_code == 0, result.output
    assert run("verify", out).exit_code == 0


def test_generate_lines_projection_fails_composition(tmp_path):
    out = tmp_path / "lines.json"
    assert run("generate", "lines-projection", "--out", out).exit_code == 0
    result = run("verify", out)
    assert result.exit_code == 1
    assert "composition homotopy" in result.output


def test_generate_rejects_bad_parameters():
    assert run("generate", "pair", "--points", " , ").exit_code == 2
    assert run("generate", "action", "--n", "0").exit_code == 2
    assert run("generate", "delooping", "--n", "-1").exit_code == 2
    result = run("generate", "lines-projection", "--lines", "1,0;0,1")
    assert result.exit_code == 2 and "orthogonal" in result.output
    assert run("generate", "doubling", "--lines", "0,0").exit_code == 2


@pytest.mark.parametrize(
    "example, args",
    [
        ("pair", ["--points", ","]),
        ("pair", ["--points", "a,a"]),
        ("action", ["--n", "0"]),
        ("delooping", ["--n", "0"]),
        ("lines-projection", ["--lines", "0,0;1,1"]),
        ("lines-projection", ["--lines", "1,0;0,1"]),
        ("lines-projection", ["--lines", "a,b"]),
        ("lines-projection", ["--lines", "1/0,1"]),
        ("doubling", ["--lines", "1,0;0,1"]),
    ],
)
def test_generate_bad_parameters_are_usage_errors(example, args):
    result = run("generate", example, *args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


def test_generate_writes_stdout_by_default():
    result = run("generate", "pair")
    assert result.exit_code == 0
    kind, _ = load_document(result.output)
    assert kind == "groupoid"


def test_nerve_counts_delooping_levels():
    result = run("nerve", FIXTURES / "two_category_delooping_z4.json", "--level", "3")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines == [
        "level 0: 1 simplices",
        "level 1: 1 simplices",
        "level 2: 4 simplices",
        "level 3: 64 simplices",
    ]


def test_nerve_rejects_wrong_kind_and_broken_tables():
    assert run("nerve", FIXTURES / "groupoid_pair.json").exit_code == 2
    result = run("nerve", FIXTURES / "bad_two_category_interchange.json", "--level", "2")
    assert result.exit_code == 1
    assert "interchange" in result.output
    result = run("nerve", FIXTURES / "two_category_delooping_z4.json", "--level", "-1")
    assert result.exit_code == 2


def _idempotent_category():
    # one object, one arrow, cells i and an idempotent e under both compositions
    table = [["i", "i", "i"], ["i", "e", "e"], ["e", "i", "e"], ["e", "e", "e"]]
    return {
        "objects": ["*"],
        "arrows": {"1": ["*", "*"]},
        "cells": {"i": ["1", "1"], "e": ["1", "1"]},
        "compose": [["1", "1", "1"]],
        "hcompose": table,
        "vcompose": table,
        "unit_arrows": {"*": "1"},
        "unit_cells": {"1": "i"},
    }


def test_nerve_reports_a_non_invertible_cell(tmp_path):
    path = tmp_path / "idempotent.json"
    path.write_text(dump_document("two-category", _idempotent_category()))
    assert run("verify", path).exit_code == 0
    assert run("nerve", path, "--level", "2").exit_code == 0
    result = run("nerve", path, "--level", "3")
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "level 0: 1 simplices",
        "level 1: 1 simplices",
        "level 2: 2 simplices",
        "error: 2-cell e is not invertible",
    ]


def test_fill_names_the_cell_without_an_inverse(tmp_path):
    # filling this (3,1)-horn inverts the whiskered triangle (2,1,0), which is e
    horn = {
        "handle": "table",
        "missing": 1,
        "vertices": ["*", "*", "*", "*"],
        "edges": {f"{j},{i}": "1" for j in range(4) for i in range(j)},
        "triangles": {"2,1,0": "e", "3,2,1": "e", "3,1,0": "e"},
        "category": _idempotent_category(),
    }
    path = tmp_path / "horn_31.json"
    path.write_text(dump_document("horn", horn))
    assert run("verify", path).output == "ok: horn\n"
    result = run("fill", path)
    assert result.exit_code == 1
    assert result.output == "no filler: inverse law fails at ('e',)\n"


def _mutated(tmp_path, name, mutate):
    """A copy of a fixture written to tmp_path after mutate(payload)."""
    doc = json.loads((FIXTURES / name).read_text())
    mutate(doc["payload"])
    path = tmp_path / f"mutated_{name}"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _laws(result, prefix=""):
    """The law named by each output line, all of which read
    '<prefix><law> fails ...'; fails on a traceback or a stray line."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert lines and all(line.startswith(prefix) and " fails" in line for line in lines)
    return {line[len(prefix) :].partition(" fails")[0] for line in lines}


def test_verify_checks_the_embedded_category(tmp_path):
    def move_hcompose(p):
        hc = p["category"]["hcompose"]
        hc[hc.index(["1", "1", "2"])] = ["1", "1", "3"]

    path = _mutated(tmp_path, "simplex_table.json", move_hcompose)
    assert "associativity" in _laws(run("verify", path), "payload.category: ")

    def empty_vcompose(p):
        p["category"]["vcompose"] = []

    path = _mutated(tmp_path, "simplex_table.json", empty_vcompose)
    assert _laws(run("verify", path), "payload.category: ") == {"composability"}
    path = _mutated(tmp_path, "horn_table_32.json", empty_vcompose)
    assert _laws(run("verify", path), "payload.category: ") == {"composability"}
    assert _laws(run("fill", path), "payload.category: ") == {"composability"}


@pytest.mark.parametrize("name", ["ruth_sheared.json", "functor.json"])
def test_verify_checks_the_embedded_groupoid(tmp_path, name):
    def drop_compose(p):
        comp = p["groupoid"]["compose"]
        comp.remove(next(e for e in comp if e[0] != e[1]))

    result = run("verify", _mutated(tmp_path, name, drop_compose))
    assert _laws(result, "payload.groupoid: ") == {"composability"}
    assert result.output.startswith("payload.groupoid: composability fails at ('a|a', 'a|b')")


@pytest.mark.parametrize(
    "name, table, detail",
    [
        ("morphism_ruth.json", "gamma", "pair has no correction in the source"),
        ("morphism_lax.json", "compare", "no comparison cell in the source"),
    ],
    ids=["ruth", "lax"],
)
def test_verify_checks_morphism_source_totality(tmp_path, name, table, detail):
    def drop_entry(p):
        del p["source"][table][1]

    result = run("verify", _mutated(tmp_path, name, drop_entry))
    assert _laws(result) == {"totality"}
    assert result.output == f"totality fails at ('a|a', 'a|b'): {detail}\n"


@pytest.mark.parametrize("verb", [("verify",), ("nerve", "--level", "2")], ids=["verify", "nerve"])
def test_an_empty_compose_table_is_a_law_failure(tmp_path, verb):
    def empty_compose(p):
        p["compose"] = []

    path = _mutated(tmp_path, "two_category_pair.json", empty_compose)
    result = run(verb[0], path, *verb[1:])
    assert _laws(result) == {"composability"}
    assert "composability fails at ('a|a', 'a|a')" in result.output


@pytest.mark.parametrize(
    "name, table, verb",
    [
        ("two_category_delooping_z4.json", "objects", ("verify",)),
        ("two_category_delooping_z4.json", "objects", ("nerve", "--level", "2")),
        ("groupoid_pair.json", "objects", ("verify",)),
        ("bundle.json", "base", ("verify",)),
    ],
    ids=["two-category", "nerve", "groupoid", "bundle"],
)
def test_a_repeated_name_is_structural(tmp_path, name, table, verb):
    names = json.loads((FIXTURES / name).read_text())["payload"][table]

    def repeat_first(p):
        p[table].append(p[table][0])

    result = run(verb[0], _mutated(tmp_path, name, repeat_first), *verb[1:])
    assert result.exit_code == 2
    assert result.output == f"error: payload.{table}[{len(names)}]: repeated name {names[0]!r}\n"


@pytest.mark.parametrize("verb", [("verify",), ("nerve", "--level", "2")], ids=["verify", "nerve"])
def test_a_repeated_key_is_structural(tmp_path, verb):
    # a parser that kept the last of two "1" entries would read the valid
    # Z/4 delooping, as if the first entry were not there
    text = (FIXTURES / "two_category_delooping_z4.json").read_text()
    path = tmp_path / "repeated_key.json"
    path.write_text(text.replace('"cells": {', '"cells": {"1": ["id", "nowhere"], ', 1))
    result = run(verb[0], path, *verb[1:])
    assert result.exit_code == 2
    assert result.output == "error: payload.cells: repeated key '1'\n"


def test_a_deeply_nested_document_is_a_structural_error(tmp_path):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text(
        '{"kind": "groupoid", "version": "1", "payload": {"objects": '
        + "[" * depth + '"x"' + "]" * depth + "}}"
    )
    result = run("verify", path)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output == "error: document is nested too deeply to read\n"


@pytest.mark.parametrize("verb", [("verify",), ("nerve", "--level", "2")], ids=["verify", "nerve"])
@pytest.mark.parametrize(
    "table, entry, line",
    [
        ("compose", ["a|b", "a|b", "a|a"], "composability fails at ('a|b', 'a|b')"),
        (
            "vcompose",
            ["id[a|b]", "id[a|a]", "id[a|a]"],
            "composability fails at ('id[a|b]', 'id[a|a]'): vertical",
        ),
        (
            "hcompose",
            ["id[a|b]", "id[a|b]", "id[a|a]"],
            "composability fails at ('id[a|b]', 'id[a|b]'): horizontal",
        ),
    ],
    ids=["compose", "vcompose", "hcompose"],
)
def test_a_table_entry_off_the_composable_pairs_is_a_violation(tmp_path, verb, table, entry, line):
    # the tables are defined exactly on the composable pairs: an extra entry
    # on a pair that does not compose is not ignored
    path = _mutated(tmp_path, "two_category_pair.json", lambda p: p[table].append(entry))
    result = run(verb[0], path, *verb[1:])
    assert result.exit_code == 1
    assert result.output == line + "\n"


def test_a_morphism_between_broken_representations_is_refused(tmp_path):
    _, payload = load_document((FIXTURES / "bad_ruth_cocycle.json").read_text())
    m = identity_morphism(decode_ruth(payload))
    path = tmp_path / "identity_on_broken.json"
    path.write_text(dump_document("morphism", encode_ruth_morphism(m)))
    result = run("verify", path)
    assert _laws(result) == {"cocycle"}
    lines = result.output.splitlines()
    assert any(line.endswith(": in the source") for line in lines)
    assert any(line.endswith(": in the target") for line in lines)
    converted = run("convert", path, "--direction", "morphism-to-lax")
    assert converted.output == result.output
    assert converted.exit_code == 1


def test_converting_a_morphism_needs_quasi_isomorphisms(tmp_path):
    def zero(p):
        for table in ("theta1", "theta0", "mu"):
            for m in p[table].values():
                for row in m:
                    row[:] = ["0"] * len(row)

    path = _mutated(tmp_path, "morphism_ruth.json", zero)
    assert run("verify", path).output == "ok: morphism\n"
    result = run("convert", path, "--direction", "morphism-to-lax")
    assert _laws(result) == {"quasi-isomorphism"}
    assert result.output.splitlines()[0] == "quasi-isomorphism fails at ('a',)"


def test_fill_names_the_arrow_without_a_quasi_inverse(tmp_path):
    # objects x, y; one non-identity arrow f: x -> y; identity 2-cells only
    arrows = {"1x": ["x", "x"], "1y": ["y", "y"], "f": ["x", "y"]}
    pairs = [["1x", "1x", "1x"], ["1y", "1y", "1y"], ["f", "1x", "f"], ["1y", "f", "f"]]
    cell = {a: f"i{a}" for a in arrows}
    cells = [[cell[g], cell[f], cell[gf]] for g, f, gf in pairs]
    category = {
        "objects": ["x", "y"],
        "arrows": arrows,
        "cells": {cell[a]: [a, a] for a in arrows},
        "compose": pairs,
        "hcompose": cells,
        "vcompose": [[c, c, c] for c in cell.values()],
        "unit_arrows": {"x": "1x", "y": "1y"},
        "unit_cells": cell,
    }
    horn = {
        "handle": "table",
        "missing": 0,
        "vertices": ["x", "y", "y"],
        "edges": {"1,0": "f", "2,0": "f"},
        "triangles": {},
        "category": category,
    }
    path = tmp_path / "horn_20.json"
    path.write_text(dump_document("horn", horn))
    assert run("verify", path).output == "ok: horn\n"
    result = run("fill", path)
    assert result.exit_code == 1
    assert result.output == "no filler: quasi-inverse fails at ('f',)\n"


def _child_env():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_importing_the_cli_loads_click_only_when_a_verb_runs():
    script = "import sys, glv.cli; print('click' in sys.modules); glv.cli.main; print('click' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60)
    assert got.stdout.split() == ["False", "True"]


def _address_space_of_100_mb():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))


def test_running_out_of_memory_exits_2_with_one_error_line(tmp_path):
    # glv nerve keeps the level below the top: at --level 5 on the delooping
    # of Z/8 that is level 4, 262,144 simplices, far beyond 100 MB
    path = tmp_path / "z8.json"
    assert run("generate", "delooping", "--n", "8", "--out", path).exit_code == 0
    got = subprocess.run(
        [sys.executable, "-m", "glv.cli", "nerve", str(path), "--level", "5"],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_address_space_of_100_mb,
        timeout=60,
    )
    assert got.returncode == 2
    assert got.stderr == ""
    lines = got.stdout.splitlines()
    assert lines[:4] == [f"level {lv}: {8 ** (lv * (lv - 1) // 2)} simplices" for lv in range(4)]
    assert lines[4:] == ["error: out of memory"]
