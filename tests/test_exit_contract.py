"""The exit contract of every verb under random edits of the fixtures.

Whatever the document, verify, fill, convert and nerve exit 0, 1 or 2 and
raise nothing but SystemExit: a hostile document is a structural error or a
named law failure, never a traceback, and every exit-1 line names a law and
the site where it fails.  A simplex that fill prints is valid and restricts
to the horn it was given.
"""

import copy
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glv.cli import main
from glv.documents import decode_horn, decode_simplex, load_document
from glv.nerve import GLHandle, TableHandle, horn_of, validate_simplex
from helpers import reference_gl_violations

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = {p.name: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
EDITS = ("drop", "duplicate", "retype", "rename", "scalar", "empty")
FOREIGN = (None, True, 0, 7, "", "x", "1/0", [], {}, [[]])
SCALARS = ("0", "1", "-1", "2", "1/2", "a", "a|b")
# An exit-1 line: context prefixes, then "<law> fails", its site and detail.
LAW_LINE = re.compile(
    r"^((payload\S*|no filler|horn data is not valid|no filler exists): )*"
    r"[a-z][a-z0-9 -]* fails( at .+?)?(: .*)?$"
)

# One edit: a walk down from the payload (each number picks a nonempty child
# table; a shorter walk edits a larger table), the entry to edit, the edit,
# and a number that picks the new value or a sibling.
edits = st.tuples(
    st.lists(st.integers(0, 99), max_size=3),
    st.integers(0, 99),
    st.sampled_from(EDITS),
    st.integers(0, 99),
)


def _children(node):
    values = node.values() if isinstance(node, dict) else node
    return [v for v in values if isinstance(v, (dict, list)) and v]


def _apply(doc, walk, entry, edit, pick) -> None:
    node = doc["payload"]
    for i in walk:
        inner = _children(node)
        if not inner:
            break
        node = inner[i % len(inner)]
    if not node:
        return
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    key = keys[entry % len(keys)]
    other = keys[pick % len(keys)]
    value = node[key]
    if edit == "drop":
        del node[key]
    elif edit == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(value))
    elif edit == "duplicate":
        node[other] = copy.deepcopy(value)
    elif edit == "retype":
        node[key] = copy.deepcopy(FOREIGN[pick % len(FOREIGN)])
    elif edit == "rename" and isinstance(node, dict):
        node[key + "_x0"[pick % 3]] = node.pop(key)
    elif edit == "rename":
        node[key], node[other] = node[other], value
    elif edit == "scalar" and isinstance(value, str):
        node[key] = SCALARS[pick % len(SCALARS)]
    elif edit == "scalar" and type(value) is int:
        node[key] = value + (1 if pick % 2 else -1)
    elif edit == "empty" and isinstance(value, (dict, list)):
        node[key] = type(value)()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_contract")


def _run(scratch, name, plan, args):
    doc = copy.deepcopy(DOCUMENTS[name])
    for edit in plan:
        _apply(doc, *edit)
    path = scratch / "mutated.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}"
    )
    if result.exit_code == 1:
        lines = result.output.splitlines()
        assert lines and all(LAW_LINE.match(line) for line in lines), result.output
    if result.exit_code == 0 and args[0] == "fill":
        _, horn, _ = decode_horn(doc["payload"])
        got, filled, cat = decode_simplex(load_document(result.output)[1])
        handle = GLHandle() if got == "gl" else TableHandle(cat)
        assert validate_simplex(handle, filled) == []
        # over GL also by a check that shares no code with the validator
        assert got != "gl" or reference_gl_violations(filled) == []
        assert horn_of(filled, horn.k) == horn


@given(st.sampled_from(sorted(DOCUMENTS)), st.lists(edits, min_size=1, max_size=3))
@example("two_category_pair.json", [([], 3, "empty", 0)])  # "compose": []
# one entry bumped: a functor arrow, a functor compare entry, two gl edges, a
# gl triangle, and a lax component and cell (the fixture with nonzero d)
@example("functor.json", [([0, 1, 1, 0], 0, "scalar", 3)])
@example("functor.json", [([1, 3, 0, 0], 0, "scalar", 3)])
@example("simplex_gl.json", [([0, 0, 0, 0], 0, "scalar", 0)])
@example("simplex_gl.json", [([0, 5, 0, 0], 0, "scalar", 0)])
@example("simplex_gl.json", [([1, 0, 0], 0, "scalar", 3)])
@example("bad_morphism_prism.json", [([1, 0, 1, 0], 0, "scalar", 1)])
@example("bad_morphism_prism.json", [([0, 1, 0], 0, "scalar", 3)])
@settings(max_examples=300, deadline=None)
def test_verify_keeps_the_exit_contract(scratch, name, plan):
    _run(scratch, name, plan, ["verify"])


# (fixture, verb and options): every input the other verbs accept as is
OTHER_VERBS = (
    ("horn_gl_20.json", ["fill"]),
    ("horn_gl_31.json", ["fill"]),
    ("horn_table_32.json", ["fill"]),
    ("bad_horn_tetrahedron.json", ["fill"]),
    ("ruth_sheared.json", ["convert", "--direction", "ruth-to-functor"]),
    ("functor.json", ["convert", "--direction", "functor-to-ruth"]),
    ("morphism_ruth.json", ["convert", "--direction", "morphism-to-lax"]),
    ("morphism_lax.json", ["convert", "--direction", "lax-to-morphism"]),
    ("two_category_delooping_z4.json", ["nerve", "--level", "2"]),
    ("two_category_pair.json", ["nerve", "--level", "2"]),
)


@given(st.sampled_from(OTHER_VERBS), st.lists(edits, min_size=1, max_size=3))
# "style" dropped from a lax morphism
@example(OTHER_VERBS[7], [([], 3, "drop", 0)])
# a vertex and then every edge dropped: a valid horn of dimension 1
@example(OTHER_VERBS[0], [([1], 0, "drop", 0), ([], 0, "empty", 0)])
@settings(max_examples=300, deadline=None)
def test_every_verb_keeps_the_exit_contract(scratch, run, plan):
    name, args = run
    _run(scratch, name, plan, args)
