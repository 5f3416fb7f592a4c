"""The validator compares GL tetrahedra by their homotopy matrices once the
endpoint stages passed.  On seeded GL simplices and horns, some with a
triangle's homotopy bumped and some with two triangles swapped, it must
report what a plain-Fraction reference and the full-cell comparison report."""

import random
from dataclasses import replace

import pytest

from glv import gl2
from glv.chain2 import _trusted
from glv.linalg import RatMatrix
from glv.nerve import (
    GLHandle,
    NoFillerError,
    fill_horn,
    horn_of,
    validate_horn,
    validate_simplex,
)
from glv.sampling import sample_gl_simplex
from helpers import reference_gl_violations

GL = GLHandle()


class FullCells(GLHandle):
    """GL with tetrahedra compared as full 2-cells: its own cell view, as a
    TableHandle is."""

    def cell_view(self, tris):
        return self, tris


FULL = FullCells()


def _bumped(cell):
    """The cell with 1 added to its first homotopy entry, built unchecked: it
    stays parallel to the cell and is no longer a homotopy."""
    r = cell.r
    entries = [x + (t == 0) for t, x in enumerate(r.entries)]
    return _trusted(gl2.GL2Cell, cell.source, cell.target, RatMatrix(r.rows, r.cols, entries))


def _cases():
    """Per seed and n = 3, 4: a valid simplex, one with a triangle's homotopy
    bumped, unless every homotopy matrix is empty, and one with two triangles'
    cells swapped (an endpoint failure)."""
    for seed in range(4):
        for n in (3, 4):
            rng = random.Random(seed)
            s = sample_gl_simplex(rng, n)
            yield s
            tris = list(s.triangles)
            nonempty = [t for t, (_, c) in enumerate(tris) if c.r.rows * c.r.cols]
            if nonempty:
                at = rng.choice(nonempty)
                bumped = tris.copy()
                bumped[at] = (tris[at][0], _bumped(tris[at][1]))
                yield replace(s, triangles=tuple(bumped))
            a, b = rng.sample(range(len(tris)), 2)
            swapped = tris.copy()
            swapped[a], swapped[b] = (tris[a][0], tris[b][1]), (tris[b][0], tris[a][1])
            yield replace(s, triangles=tuple(swapped))


CASES = list(_cases())


def _filled(handle, horn):
    try:
        return fill_horn(handle, horn)
    except NoFillerError as e:
        return str(e)


def test_validator_matches_the_reference_and_the_full_cells():
    laws = set()
    for s in CASES:
        want = reference_gl_violations(s)
        assert validate_simplex(GL, s) == want == validate_simplex(FULL, s)
        laws.add(want[0].law if want else None)
        for k in range(s.n + 1):
            h = horn_of(s, k)
            want = reference_gl_violations(h)
            assert validate_horn(GL, h) == want == validate_horn(FULL, h)
            laws.add(want[0].law if want else None)
    # the cases reach every stage's verdict
    assert laws == {None, "endpoint", "tetrahedron"}


def test_fill_horn_matches_the_full_cells():
    outcomes = set()
    for s in CASES:
        for k in range(s.n + 1):
            h = horn_of(s, k)
            got = _filled(GL, h)
            assert got == _filled(FULL, h)
            outcomes.add(got.split(":")[0] if isinstance(got, str) else "filled")
    assert outcomes == {"filled", "horn data is not valid", "no filler exists"}


@pytest.mark.parametrize("n, triangles", [(3, 4), (4, 10)])
def test_tetrahedra_compose_no_arrows(n, triangles, monkeypatch):
    # one composite per triangle target, and none for the tetrahedra
    s = sample_gl_simplex(random.Random(7), n)
    calls = []
    compose = gl2.compose_arrows
    monkeypatch.setattr(gl2, "compose_arrows", lambda g, f: calls.append(1) or compose(g, f))
    assert validate_simplex(GL, s) == []
    assert len(calls) == triangles
