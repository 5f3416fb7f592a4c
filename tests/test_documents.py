"""Round trips and strictness of the JSON document layer."""

import json
import random

import pytest

from glv.documents import (
    DocumentError,
    decode_bundle,
    decode_functor,
    decode_groupoid,
    decode_horn,
    decode_lax_morphism,
    decode_ruth,
    decode_ruth_morphism,
    decode_simplex,
    decode_two_category,
    dump_document,
    encode_bundle,
    encode_functor,
    encode_groupoid,
    encode_horn,
    encode_lax_morphism,
    encode_ruth,
    encode_ruth_morphism,
    encode_simplex,
    encode_two_category,
    load_document,
    matrix_from_lists,
    matrix_to_lists,
    morphism_style,
)
from glv.groupoid import pair_groupoid
from glv.linalg import RatMatrix
from glv.nerve import TableHandle, horn_of, validate_simplex
from glv.reports import LawError
from glv.ruth import (
    pseudofunctor_to_ruth,
    ruth_to_pseudofunctor,
    verify_morphism,
    verify_pseudofunctor,
    verify_ruth,
)
from glv.sampling import (
    rand_ruth,
    rand_ruth_morphism,
    sample_gl_simplex,
    sample_table_simplex,
)
from glv.twocat import delooping, from_groupoid

from helpers import cyclic_handle


def roundtrip(kind, payload):
    """Dump, reload, and check the reload is byte-stable."""
    text = dump_document(kind, payload)
    got_kind, got_payload = load_document(text)
    assert got_kind == kind
    assert dump_document(got_kind, got_payload) == text
    return got_payload


def test_matrix_codec_handles_zero_sizes():
    for rows, cols in [(0, 0), (0, 3), (2, 0), (2, 3)]:
        m = RatMatrix.zeros(rows, cols)
        assert matrix_from_lists(matrix_to_lists(m), rows, cols, "m") == m


def test_matrix_codec_normalizes_scalars():
    m = matrix_from_lists([["2/4", "-3"]], 1, 2, "m")
    assert matrix_to_lists(m) == [["1/2", "-3"]]


def test_matrix_codec_rejects_bad_shapes_and_scalars():
    with pytest.raises(DocumentError, match="rows"):
        matrix_from_lists([["1"]], 2, 1, "m")
    with pytest.raises(DocumentError, match="entries"):
        matrix_from_lists([["1", "2"]], 1, 1, "m")
    with pytest.raises(DocumentError, match="scalar"):
        matrix_from_lists([["1/0"]], 1, 1, "m")
    with pytest.raises(DocumentError, match="scalar"):
        matrix_from_lists([["x"]], 1, 1, "m")
    with pytest.raises(DocumentError, match="string"):
        matrix_from_lists([[1]], 1, 1, "m")
    # only -?p and -?p/q in ASCII digits, whatever else Fraction() accepts
    for text in ("1.5", "1e2", " 1_0 ", "1.0", "+1", "²", "1/-2", "1 / 2"):
        with pytest.raises(DocumentError, match="scalar"):
            matrix_from_lists([[text]], 1, 1, "m")


def test_groupoid_roundtrip():
    g = pair_groupoid(["a", "b", "c"])
    payload = roundtrip("groupoid", encode_groupoid(g))
    assert decode_groupoid(payload) == g


def test_two_category_roundtrip_keeps_groupoid_flavor():
    c = from_groupoid(pair_groupoid(["a", "b"]))
    payload = roundtrip("two-category", encode_two_category(c))
    back = decode_two_category(payload)
    assert back == c
    assert back.inv2 == c.inv2


def test_bundle_roundtrip():
    rng = random.Random(5)
    r = rand_ruth(rng, pair_groupoid(["a", "b"]))
    payload = roundtrip("bundle", encode_bundle(r.fibers))
    assert decode_bundle(payload) == r.fibers


@pytest.mark.parametrize("seed", range(4))
def test_ruth_roundtrip(seed):
    rng = random.Random(seed)
    r = rand_ruth(rng, pair_groupoid(["a", "b", "c"]))
    payload = roundtrip("ruth", encode_ruth(r))
    back = decode_ruth(payload)
    assert back == r
    assert verify_ruth(back) == []


def test_functor_roundtrip():
    rng = random.Random(11)
    p = ruth_to_pseudofunctor(rand_ruth(rng, pair_groupoid(["a", "b"])))
    payload = roundtrip("functor", encode_functor(p))
    back = decode_functor(payload)
    assert back == p
    assert pseudofunctor_to_ruth(back) == pseudofunctor_to_ruth(p)


def test_functor_with_bad_arrow_is_semantic_not_structural():
    rng = random.Random(3)
    p = ruth_to_pseudofunctor(rand_ruth(rng, pair_groupoid(["a", "b"])))
    payload = encode_functor(p)
    arrow = sorted(payload["arrows"])[0]
    shape = payload["arrows"][arrow]["a0"]
    payload["arrows"][arrow]["a0"] = [["9" for _ in row] for row in shape]
    with pytest.raises(LawError, match=rf"^chain condition fails at \('{arrow}',\)$"):
        decode_functor(payload)


def test_functor_missing_compare_entry_is_totality():
    rng = random.Random(5)
    p = ruth_to_pseudofunctor(rand_ruth(rng, pair_groupoid(["a", "b"])))
    payload = encode_functor(p)
    h, a, _ = payload["compare"].pop(1)
    got = verify_pseudofunctor(decode_functor(payload))
    assert [(v.law, v.where) for v in got] == [("totality", (h, a))]


def test_gl_simplex_roundtrip():
    rng = random.Random(7)
    s = sample_gl_simplex(rng, 3)
    payload = roundtrip("simplex", encode_simplex(s))
    kind, back, cat = decode_simplex(payload)
    assert kind == "gl" and cat is None
    assert back == s


def test_table_simplex_roundtrip_carries_its_category():
    handle = cyclic_handle(4)
    rng = random.Random(9)
    s = sample_table_simplex(handle, rng, 3)
    payload = roundtrip("simplex", encode_simplex(s, handle.cat))
    kind, back, cat = decode_simplex(payload)
    assert kind == "table"
    assert back == s
    assert cat == handle.cat
    assert validate_simplex(TableHandle(cat), back) == []


def test_table_simplex_without_category_is_rejected():
    handle = cyclic_handle(3)
    s = sample_table_simplex(handle, random.Random(1), 2)
    with pytest.raises(ValueError, match="two-category"):
        encode_simplex(s)
    payload = encode_simplex(s, handle.cat)
    del payload["category"]
    with pytest.raises(DocumentError, match="category"):
        decode_simplex(payload)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_horn_roundtrip(k):
    rng = random.Random(20 + k)
    s = sample_gl_simplex(rng, 3)
    h = horn_of(s, k)
    payload = roundtrip("horn", encode_horn(h))
    kind, back, cat = decode_horn(payload)
    assert kind == "gl" and cat is None
    assert back == h


def test_ruth_morphism_roundtrip():
    rng = random.Random(13)
    r = rand_ruth(rng, pair_groupoid(["a", "b"]))
    m = rand_ruth_morphism(rng, r)
    payload = roundtrip("morphism", encode_ruth_morphism(m))
    assert morphism_style(payload) == "ruth"
    back = decode_ruth_morphism(payload)
    assert back == m
    assert verify_morphism(back) == []


def test_lax_morphism_roundtrip():
    rng = random.Random(17)
    r = rand_ruth(rng, pair_groupoid(["a", "b"]))
    m = rand_ruth_morphism(rng, r)
    payload = roundtrip("morphism", encode_lax_morphism(m))
    assert morphism_style(payload) == "lax"
    back = decode_lax_morphism(payload)
    assert back == m
    assert verify_morphism(back, "lax") == []


def test_document_envelope_is_strict():
    g = pair_groupoid(["a", "b"])
    text = dump_document("groupoid", encode_groupoid(g))
    doc = json.loads(text)

    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown field"):
        load_document(json.dumps(doc))
    del doc["extra"]

    doc["version"] = "2"
    with pytest.raises(DocumentError, match="version"):
        load_document(json.dumps(doc))
    doc["version"] = "1"

    doc["kind"] = "mystery"
    with pytest.raises(DocumentError, match="kind"):
        load_document(json.dumps(doc))

    with pytest.raises(DocumentError, match="JSON"):
        load_document("{nope")
    with pytest.raises(DocumentError, match="missing field"):
        load_document(json.dumps({"kind": "groupoid", "version": "1"}))


def test_payload_fields_are_strict():
    g = pair_groupoid(["a", "b"])
    payload = encode_groupoid(g)
    payload["notes"] = "hello"
    with pytest.raises(DocumentError, match="unknown field"):
        decode_groupoid(payload)
    del payload["notes"]
    del payload["units"]
    with pytest.raises(DocumentError, match="missing field"):
        decode_groupoid(payload)


def test_names_must_resolve():
    g = pair_groupoid(["a", "b"])
    payload = encode_groupoid(g)
    payload["arrows"]["ghost"] = ["a", "nowhere"]
    with pytest.raises(DocumentError, match="unknown object"):
        decode_groupoid(payload)

    rng = random.Random(2)
    r = rand_ruth(rng, g)
    rp = encode_ruth(r)
    rp["rho1"]["ghost"] = [["1"]]
    with pytest.raises(DocumentError, match="unknown arrow"):
        decode_ruth(rp)

    rp = encode_ruth(r)
    rp["gamma"].append(["a|a", "a|a", [["0"]]])
    with pytest.raises(DocumentError, match="duplicate"):
        decode_ruth(rp)


def _set(table, key, value):
    def edit(p):
        p[table][key] = value

    return edit


def _set_in(table, key, i):
    def edit(p):
        p[table][key][i] = "ghost"

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_in("arrows", "a|b", 1), "payload.arrows.a|b: unknown object 'ghost'"),
        (_set_in("cells", "id[a|b]", 0), "payload.cells.id[a|b]: unknown arrow 'ghost'"),
        (_set_in("compose", 1, 2), "payload.compose[1]: unknown arrow 'ghost'"),
        (_set_in("hcompose", 2, 0), "payload.hcompose[2]: unknown cell 'ghost'"),
        (_set_in("vcompose", 3, 1), "payload.vcompose[3]: unknown cell 'ghost'"),
        (_set("unit_arrows", "ghost", "a|a"), "payload.unit_arrows: unknown object 'ghost'"),
        (_set("unit_arrows", "b", "ghost"), "payload.unit_arrows.b: unknown arrow 'ghost'"),
        (_set("unit_cells", "ghost", "id[a|a]"), "payload.unit_cells: unknown arrow 'ghost'"),
        (_set("unit_cells", "a|b", "ghost"), "payload.unit_cells.a|b: unknown cell 'ghost'"),
        (_set("cell_inverses", "ghost", "id[a|a]"), "payload.cell_inverses: unknown cell 'ghost'"),
        (_set("cell_inverses", "id[b|a]", "ghost"), "payload.cell_inverses.id[b|a]: unknown cell 'ghost'"),
    ],
)
def test_two_category_names_must_resolve(edit, message):
    payload = encode_two_category(from_groupoid(pair_groupoid(["a", "b"])))
    edit(payload)
    with pytest.raises(DocumentError) as e:
        decode_two_category(payload)
    assert str(e.value) == message


def test_bad_index_keys_are_rejected():
    rng = random.Random(4)
    s = sample_gl_simplex(rng, 2)
    payload = encode_simplex(s)
    for old, new in (("1,0", "0,1"), ("2,0", "²,0"), ("1,0", "01,0"), ("1,0", "1,00")):
        bad = json.loads(json.dumps(payload))
        bad["edges"][new] = bad["edges"].pop(old)
        with pytest.raises(DocumentError, match="index key"):
            decode_simplex(bad)


def test_missing_edge_coverage_is_structural():
    rng = random.Random(4)
    s = sample_gl_simplex(rng, 2)
    payload = encode_simplex(s)
    del payload["edges"]["2,0"]
    with pytest.raises(DocumentError):
        decode_simplex(payload)


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"kind": "groupoid", "kind": "ruth"}', "document: repeated key 'kind'"),
        ('{"payload": {"fibers": [1, {"d": 1, "d": 2}]}}', "payload.fibers[1]: repeated key 'd'"),
        # the parser closes the inner object first, so its repeat is the one named
        ('{"payload": {"a": {"b": 1, "b": 2}, "a": 3}}', "payload.a: repeated key 'b'"),
        ('{"payload": {"a": 1, "a": 2}, ', "not valid JSON: "),
    ],
    ids=["document", "in an array", "innermost first", "then not JSON"],
)
def test_a_repeated_key_is_named_at_its_object(text, error):
    with pytest.raises(DocumentError) as e:
        load_document(text)
    assert str(e.value).startswith(error)
