import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glv.chain2 import ChainMap2, Fiber2, identity_chain_map
from glv.gl2 import (
    GL2Cell,
    GLArrow,
    GLObject,
    arrows_homotopic,
    compose_arrows,
    connecting_cell,
    hcompose,
    identity_arrow,
    identity_cell,
    invert_cell,
    quasi_inverse,
    vcompose,
    whisker_left,
    whisker_right,
)
from glv.linalg import RatMatrix, left_inverse, rank
from glv.sampling import (
    rand_cell_on,
    rand_gl_arrow,
    rand_gl_objects,
    rand_interchange_square,
    rand_quasi_iso,
)

from helpers import fill_outer_2horn


def obj(point, dim1, dim0, rows):
    return GLObject(point, Fiber2(dim1, dim0, RatMatrix.from_rows(rows)))


def test_arrow_rejects_non_quasi_iso():
    x = obj("x", 1, 1, [[0]])
    with pytest.raises(ValueError):
        GLArrow(x, x, ChainMap2(x.fiber, x.fiber, RatMatrix.zeros(1, 1), RatMatrix.zeros(1, 1)))


def test_cell_rejects_bad_matrix():
    rng = random.Random(5)
    x, y = rand_gl_objects(rng, 2)
    f = rand_gl_arrow(rng, x, y)
    good = rand_cell_on(rng, f)
    if not good.r.is_zero:
        with pytest.raises(ValueError):
            GL2Cell(good.source, good.target, good.r + good.r)


def test_vertical_composition_and_inverse():
    rng = random.Random(7)
    x, y = rand_gl_objects(rng, 2)
    f = rand_gl_arrow(rng, x, y)
    r = rand_cell_on(rng, f)
    s = rand_cell_on(rng, r.target)
    c = vcompose(s, r)
    assert c.source == f and c.target == s.target
    assert c.r == s.r + r.r
    inv = invert_cell(r)
    assert vcompose(inv, r) == identity_cell(f)
    assert vcompose(r, inv) == identity_cell(r.target)


def test_whisker_formulas():
    rng = random.Random(11)
    x, y, z = rand_gl_objects(rng, 3)
    f = rand_gl_arrow(rng, x, y)
    g = rand_gl_arrow(rng, y, z)
    r = rand_cell_on(rng, f)
    s = rand_cell_on(rng, g)
    wl = whisker_left(g, r)
    assert wl.r == g.a1 @ r.r
    assert wl.source == compose_arrows(g, f)
    wr = whisker_right(s, f)
    assert wr.r == s.r @ f.a0
    # the two bracketings of the horizontal composite agree
    h = hcompose(s, r)
    assert h.r == s.source.a1 @ r.r + s.r @ r.target.a0
    assert h.r == s.target.a1 @ r.r + s.r @ r.source.a0
    assert h == vcompose(whisker_right(s, r.target), whisker_left(s.source, r))
    assert h == vcompose(whisker_left(s.target, r), whisker_right(s, r.source))


def test_interchange_random():
    rng = random.Random(13)
    for _ in range(50):
        (r2, r1), (s2, s1) = rand_interchange_square(rng)
        lhs = hcompose(vcompose(s2, s1), vcompose(r2, r1))
        rhs = vcompose(hcompose(s2, r2), hcompose(s1, r1))
        assert lhs == rhs


def test_quasi_inverse_postconditions():
    rng = random.Random(17)
    for _ in range(30):
        x, y = rand_gl_objects(rng, 2, max_extra=2)
        f = rand_gl_arrow(rng, x, y)
        qi = quasi_inverse(f)
        g = qi.inverse
        assert g.src == y and g.dst == x
        assert qi.unit.source == identity_arrow(x)
        assert qi.unit.target == compose_arrows(g, f)
        assert qi.counit.source == identity_arrow(y)
        assert qi.counit.target == compose_arrows(f, g)
        # whiskering the unit and counit around the triangle stays 2-cellular
        tri1 = vcompose(invert_cell(whisker_left(f, qi.unit)), whisker_right(qi.counit, f))
        assert tri1.source == f and tri1.target == f
        tri2 = vcompose(invert_cell(whisker_right(qi.unit, g)), whisker_left(g, qi.counit))
        assert tri2.source == g and tri2.target == g


def test_quasi_inverse_identity():
    rng = random.Random(19)
    (x,) = rand_gl_objects(rng, 1)
    qi = quasi_inverse(identity_arrow(x))
    assert qi.inverse == identity_arrow(x)
    assert qi.unit.r.is_zero and qi.counit.r.is_zero


def test_fill_horn20():
    rng = random.Random(23)
    for _ in range(20):
        x, y, z = rand_gl_objects(rng, 3)
        alpha = rand_gl_arrow(rng, x, y)
        gamma = rand_gl_arrow(rng, x, z)
        beta, cell = fill_outer_2horn(0, (x, y, z), {(1, 0): alpha, (2, 0): gamma})
        assert beta.src == y and beta.dst == z
        assert cell.source == gamma
        assert cell.target == compose_arrows(beta, alpha)


def test_fill_horn22():
    rng = random.Random(29)
    for _ in range(20):
        x, y, z = rand_gl_objects(rng, 3)
        gamma = rand_gl_arrow(rng, x, z)
        beta = rand_gl_arrow(rng, y, z)
        alpha, cell = fill_outer_2horn(2, (x, y, z), {(2, 0): gamma, (2, 1): beta})
        assert alpha.src == x and alpha.dst == y
        assert cell.source == gamma
        assert cell.target == compose_arrows(beta, alpha)


def test_fill_horn_literal_solution_when_invertible():
    # alpha invertible in both degrees: beta is the literal matrix solution
    rng = random.Random(31)
    d = RatMatrix.from_rows([[2, 1], [0, 1]])
    x = GLObject("x", Fiber2(2, 2, d))
    y = GLObject("y", Fiber2(2, 2, d))
    z = GLObject("z", Fiber2(2, 2, d))
    a = RatMatrix.from_rows([[1, 1], [0, 1]])
    alpha = GLArrow(x, y, ChainMap2(x.fiber, y.fiber, a, d @ a @ left_inverse(d)))
    gamma = rand_gl_arrow(rng, x, z)
    beta, cell = fill_outer_2horn(0, (x, y, z), {(1, 0): alpha, (2, 0): gamma})
    assert beta.a1 == gamma.a1 @ left_inverse(alpha.a1)
    assert beta.a0 == gamma.a0 @ left_inverse(alpha.a0)
    bmap = GLArrow(y, z, ChainMap2(y.fiber, z.fiber, a, d @ a @ left_inverse(d)))
    alpha2, cell2 = fill_outer_2horn(2, (x, y, z), {(2, 0): gamma, (2, 1): bmap})
    assert alpha2.a1 == left_inverse(bmap.a1) @ gamma.a1
    assert alpha2.a0 == left_inverse(bmap.a0) @ gamma.a0


def test_connecting_cell_and_homotopy_predicate():
    rng = random.Random(37)
    x, y = rand_gl_objects(rng, 2)
    f = rand_gl_arrow(rng, x, y)
    r = rand_cell_on(rng, f)
    assert arrows_homotopic(f, r.target)
    got = connecting_cell(f, r.target)
    assert got is not None and got.source == f and got.target == r.target


def test_endpoint_mismatch_errors():
    rng = random.Random(41)
    x, y, z = rand_gl_objects(rng, 3)
    f = rand_gl_arrow(rng, x, y)
    h = rand_gl_arrow(rng, x, z)
    with pytest.raises(ValueError):
        compose_arrows(f, h)
    with pytest.raises(ValueError):
        vcompose(identity_cell(f), identity_cell(h))
    with pytest.raises(ValueError):
        hcompose(identity_cell(f), identity_cell(f))


def rechecked_arrow(f):
    """f rebuilt through the public constructors, which raise if it is invalid."""
    return GLArrow(f.src, f.dst, ChainMap2(f.src.fiber, f.dst.fiber, f.a1, f.a0))


def rechecked_cell(c):
    return GL2Cell(rechecked_arrow(c.source), rechecked_arrow(c.target), c.r)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_derived_values_pass_the_public_constructors(seed):
    # the derived operations build unchecked; rebuilding each result through
    # the checked constructors must succeed and give the same value
    rng = random.Random(seed)
    (r2, r1), (s2, s1) = rand_interchange_square(rng)
    f, g = r1.source, s1.source
    qi = quasi_inverse(f)
    arrows = {
        "compose_arrows": compose_arrows(g, f),
        "identity_arrow": identity_arrow(f.src),
        "quasi_inverse": qi.inverse,
    }
    cells = {
        "identity_cell": identity_cell(f),
        "vcompose": vcompose(r2, r1),
        "invert_cell": invert_cell(r1),
        "whisker_left": whisker_left(g, r1),
        "whisker_right": whisker_right(s1, f),
        "hcompose": hcompose(s2, r2),
        "unit": qi.unit,
        "counit": qi.counit,
    }
    for rebuild, values in ((rechecked_arrow, arrows), (rechecked_cell, cells)):
        for name, value in values.items():
            try:
                assert rebuild(value) == value, name
            except ValueError as e:
                pytest.fail(f"{name}: {e}")
