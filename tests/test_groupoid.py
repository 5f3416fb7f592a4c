from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glv.groupoid import (
    FinGroupoid,
    action_groupoid,
    chain_vertices,
    chains,
    cyclic_group,
    nerve1,
    nerve1_degeneracy,
    nerve1_face,
    pair_groupoid,
    projection_to_pair,
    verify_groupoid,
)
from glv.reports import Violation


def test_pair_groupoid_counts():
    g = pair_groupoid(["a", "b", "c"])
    assert len(g.objects) == 3
    assert len(g.arrows) == 9
    assert not verify_groupoid(g)
    assert g.compose("c|b", "b|a") == "c|a"
    assert g.inverse("c|a") == "a|c"


def test_action_groupoid_translation():
    els, mul, unit = cyclic_group(3)
    action = {(a, x): mul[(a, x)] for a in els for x in els}
    g = action_groupoid(els, mul, unit, els, action)
    assert len(g.objects) == 3 and len(g.arrows) == 9
    assert not verify_groupoid(g)
    # 1*0 : 0 -> 1 followed by 2*1 : 1 -> 0
    assert g.compose("2*1", "1*0") == "0*0"


def test_action_groupoid_rejects_non_action():
    els, mul, unit = cyclic_group(2)
    bad = {(a, x): "0" for a in els for x in els}
    with pytest.raises(ValueError):
        action_groupoid(els, mul, unit, els, bad)


def test_projection_to_pair_is_functor():
    els, mul, unit = cyclic_group(3)
    action = {(a, x): mul[(a, x)] for a in els for x in els}
    g = action_groupoid(els, mul, unit, els, action)
    m = projection_to_pair(g)
    assert m["1*0"] == "1|0"


def test_nerve_counts_pair_groupoid_two_points():
    g = pair_groupoid(["0", "1"])
    assert len(nerve1(g, 0)) == 2
    assert len(nerve1(g, 1)) == 4
    assert len(nerve1(g, 2)) == 8


def test_simplicial_identities_exhaustive():
    g = pair_groupoid(["0", "1"])
    for n in (1, 2, 3, 4):
        for c in nerve1(g, n):
            # face-face: d_i d_j = d_{j-1} d_i for i < j (needs n >= 2)
            if n >= 2:
                for i, j in product(range(n + 1), repeat=2):
                    if i < j:
                        assert nerve1_face(g, nerve1_face(g, c, j), i) == nerve1_face(
                            g, nerve1_face(g, c, i), j - 1
                        )
            # degeneracy-degeneracy: s_i s_j = s_{j+1} s_i for i <= j
            for i, j in product(range(n + 1), repeat=2):
                if i <= j:
                    assert nerve1_degeneracy(
                        g, nerve1_degeneracy(g, c, j), i
                    ) == nerve1_degeneracy(g, nerve1_degeneracy(g, c, i), j + 1)
            # mixed identities
            for i in range(n + 2):
                for j in range(n + 1):
                    s = nerve1_degeneracy(g, c, j)
                    f = nerve1_face(g, s, i)
                    if i == j or i == j + 1:
                        assert f == c
                    elif i < j:
                        assert f == nerve1_degeneracy(g, nerve1_face(g, c, i), j - 1)
                    else:
                        assert f == nerve1_degeneracy(g, nerve1_face(g, c, i - 1), j)


def test_chain_vertices():
    g = pair_groupoid(["0", "1", "2"])
    c = ("1|0", "2|1")
    assert chain_vertices(g, c) == ("0", "1", "2")
    assert nerve1_face(g, c, 1) == ("2|0",)


def reference_chains(ends, n):
    """The definition: the n-th product of the table, filtered to strings
    with src(x_i) = tgt(x_i+1)."""
    return [
        c
        for c in product(ends, repeat=n)
        if all(ends[c[i]][0] == ends[c[i + 1]][1] for i in range(n - 1))
    ]


ENDS = st.dictionaries(
    st.text("fgh", min_size=1, max_size=2),
    st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz")),
    max_size=6,
)


@given(ENDS)
def test_chains_are_the_filtered_product_in_its_order(ends):
    for n in range(1, 5):
        walk = chains(ends, n)
        assert iter(walk) is walk
        assert list(walk) == reference_chains(ends, n)


@given(ENDS)
def test_nerve1_keeps_the_source_first_order(ends):
    # endpoints outside the object list are walked all the same
    g = FinGroupoid(("x",), ends, {}, {}, {})
    for n in range(1, 5):
        assert nerve1(g, n) == [
            c
            for c in product(ends, repeat=n)
            if all(g.tgt(c[i]) == g.src(c[i + 1]) for i in range(n - 1))
        ]


@pytest.mark.parametrize(
    "key, value, law",
    [(("a|b", "b|a"), "zzz", "endpoint"), (("q", "b|a"), "a|a", "composability")],
    ids=["value", "key"],
)
def test_a_comp_entry_naming_no_arrow_is_reported(key, value, law):
    g = pair_groupoid("ab")
    g.comp[key] = value
    assert verify_groupoid(g) == [Violation(law, key)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chains_through_no_unit_count_and_keep_the_walk_order(n):
    g = pair_groupoid("abcde"[:n])
    units = g.unit_arrows
    assert units == {f"{x}|{x}" for x in g.objects}
    pairs = list(g.composable_pairs(skip_units=True))
    triples = list(g.composable_triples(skip_units=True))
    assert len(pairs) == n * (n - 1) ** 2
    assert len(triples) == n * (n - 1) ** 3
    assert pairs == [c for c in g.composable_pairs() if not units & set(c)]
    assert triples == [c for c in g.composable_triples() if not units & set(c)]
