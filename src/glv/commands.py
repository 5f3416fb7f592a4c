"""The click commands behind glv.cli, loaded on the first use of glv.cli.main."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click

from . import documents as docs
from .documents import DocumentError
from .groupoid import action_groupoid, cyclic_group, pair_groupoid, verify_groupoid
from .nerve import (
    GLHandle,
    NoFillerError,
    TableHandle,
    fill_horn,
    nerve_levels,
    simplices_over,
    validate_horn,
    validate_simplex,
)
from .reports import LawError, require
from .ruth import (
    double_rep,
    lines_projection_rep,
    pseudofunctor_to_ruth,
    ruth_to_pseudofunctor,
    verify_morphism,
    verify_pseudofunctor,
    verify_ruth,
)
from .sampling import rand_double_ruth
from .twocat import delooping, verify_fin2cat


def _structural(message: str):
    click.echo(f"error: {message}")
    sys.exit(2)


def _semantic(text: str) -> None:
    click.echo(text)
    sys.exit(1)


@contextmanager
def _reported():
    """Exit 2 on a structural error, and 1 with one line per violation when
    a law fails."""
    try:
        yield
    except DocumentError as e:
        _structural(str(e))
    except LawError as e:
        _semantic(str(e))


def _read(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        _structural(f"cannot read {path}: {e}")
    with _reported():
        return docs.load_document(text)


def _write(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        _structural(f"cannot write {out}: {e}")


def _handle(kind: str, cat):
    return GLHandle() if kind == "gl" else TableHandle(cat)


class _Verbs(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MemoryError:
            pass  # report once the except block has released the traceback's frames
        _structural("out of memory")


@click.group(cls=_Verbs)
def main():
    """Exact arithmetic for 2-term complexes, their 2-groupoid, nerves and
    representations up to homotopy of finite groupoids."""


# ---------------------------------------------------------------------------
# verify


def _verify_payload(kind: str, payload: dict):
    if kind == "groupoid":
        return verify_groupoid(docs.decode_groupoid(payload))
    if kind == "bundle":
        docs.decode_bundle(payload)
        return []
    if kind == "two-category":
        return verify_fin2cat(docs.decode_two_category(payload))
    if kind == "ruth":
        return verify_ruth(docs.decode_ruth(payload))
    if kind == "functor":
        return verify_pseudofunctor(docs.decode_functor(payload))
    if kind == "simplex":
        handle_kind, s, cat = docs.decode_simplex(payload)
        return validate_simplex(_handle(handle_kind, cat), s)
    if kind == "horn":
        handle_kind, h, cat = docs.decode_horn(payload)
        return validate_horn(_handle(handle_kind, cat), h)
    style = docs.morphism_style(payload)
    decode = docs.decode_ruth_morphism if style == "ruth" else docs.decode_lax_morphism
    return verify_morphism(decode(payload), style)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--kind", type=click.Choice(docs.KINDS), help="require this document kind")
def verify(path, kind):
    """Check a document against the laws of the structure it describes."""
    got, payload = _read(path)
    if kind is not None and got != kind:
        _structural(f"document is a {got}, expected {kind}")
    with _reported():
        require(_verify_payload(got, payload))
    click.echo(f"ok: {got}")


# ---------------------------------------------------------------------------
# convert

DIRECTIONS = ("ruth-to-functor", "functor-to-ruth", "morphism-to-lax", "lax-to-morphism")


def _convert(direction: str, payload: dict) -> tuple[str, dict]:
    if direction == "ruth-to-functor":
        r = docs.decode_ruth(payload)
        require(verify_ruth(r))
        return "functor", docs.encode_functor(ruth_to_pseudofunctor(r))
    if direction == "functor-to-ruth":
        p = docs.decode_functor(payload)
        require(verify_pseudofunctor(p))
        return "ruth", docs.encode_ruth(pseudofunctor_to_ruth(p))
    if direction == "morphism-to-lax":
        m = docs.decode_ruth_morphism(payload)
        # the output must hold the laws of its own style as well
        require(verify_morphism(m) or verify_morphism(m, "lax"))
        return "morphism", docs.encode_lax_morphism(m)
    m = docs.decode_lax_morphism(payload)
    require(verify_morphism(m, "lax"))
    return "morphism", docs.encode_ruth_morphism(m)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--direction", required=True, type=click.Choice(DIRECTIONS))
@click.option("--out", type=click.Path(), help="write here instead of stdout")
def convert(path, direction, out):
    """Convert between the matrix and functor presentations.

    The input is verified first; converting a converted document back
    reproduces it byte for byte."""
    kind, payload = _read(path)
    want = "morphism" if direction.startswith(("morphism", "lax")) else direction.split("-")[0]
    if kind != want:
        _structural(f"document is a {kind}, but {direction} needs a {want}")
    with _reported():
        if kind == "morphism":
            style = docs.morphism_style(payload)
            need = "ruth" if direction == "morphism-to-lax" else "lax"
            if style != need:
                _structural(f"morphism has style {style}, but {direction} needs style {need}")
        out_kind, out_payload = _convert(direction, payload)
    _write(docs.dump_document(out_kind, out_payload), out)


# ---------------------------------------------------------------------------
# fill


@main.command()
@click.argument("path", type=click.Path())
@click.option("--out", type=click.Path(), help="write here instead of stdout")
@click.option(
    "--handle",
    "handle_kind",
    type=click.Choice(["gl", "table"]),
    help="require the horn to live over this handle",
)
def fill(path, out, handle_kind):
    """Fill a horn, writing the completed simplex."""
    kind, payload = _read(path)
    if kind != "horn":
        _structural(f"document is a {kind}, expected horn")
    with _reported():
        got, horn, cat = docs.decode_horn(payload)
    if handle_kind is not None and got != handle_kind:
        _structural(f"horn lives over the {got} handle, expected {handle_kind}")
    try:
        s = fill_horn(_handle(got, cat), horn)
    except NoFillerError as e:
        _semantic(f"no filler: {e}")
    except ValueError as e:
        # a valid horn below dimension 2: the verb does not apply
        _structural(str(e))
    _write(docs.dump_document("simplex", docs.encode_simplex(s, cat)), out)


# ---------------------------------------------------------------------------
# generate

EXAMPLES = ("pair", "action", "delooping", "lines-projection", "doubling")


def _parse_lines(text: str):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        try:
            x, y = (Fraction(p.strip()) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad line {chunk!r}: expected two rational coordinates") from None
        out.append((x, y))
    if not out:
        raise ValueError("no lines given")
    return out


def _generate(example, seed, points, n, lines) -> tuple[str, dict]:
    if example == "pair":
        names = [p.strip() for p in points.split(",") if p.strip()]
        if not names or len(set(names)) != len(names):
            raise ValueError("pair needs distinct, nonempty point names")
        return "groupoid", docs.encode_groupoid(pair_groupoid(names))
    if example == "action":
        if n < 1:
            raise ValueError("action needs a group order of at least 1")
        els, mul, unit = cyclic_group(n)
        return "groupoid", docs.encode_groupoid(action_groupoid(els, mul, unit, els, mul))
    if example == "delooping":
        if n < 1:
            raise ValueError("delooping needs a group order of at least 1")
        els, mul, unit = cyclic_group(n)
        return "two-category", docs.encode_two_category(delooping(els, mul, unit))
    if example == "lines-projection":
        r = lines_projection_rep(_parse_lines(lines))
        return "ruth", docs.encode_ruth(r)
    if seed != 0:
        rng = random.Random(seed)
        r = rand_double_ruth(rng, pair_groupoid(["p0", "p1", "p2"]))
        return "ruth", docs.encode_ruth(r)
    r = lines_projection_rep(_parse_lines(lines))
    return "ruth", docs.encode_ruth(double_rep(r.groupoid, r.rho0))


@main.command()
@click.argument("example", type=click.Choice(EXAMPLES))
@click.option("--out", type=click.Path(), help="write here instead of stdout")
@click.option("--seed", type=int, default=0, help="doubling: nonzero seeds a random input")
@click.option("--points", default="a,b,c", help="pair: comma separated point names")
@click.option("--n", type=int, default=3, help="action, delooping: order of the cyclic group")
@click.option(
    "--lines",
    default="1,0;1,1;2,1",
    help="lines-projection, doubling: semicolon separated plane vectors",
)
def generate(example, out, seed, points, n, lines):
    """Write a worked example document.

    lines-projection deliberately emits a pseudo-representation whose
    composition defect cannot be corrected on one-dimensional fibers, so
    verify rejects it; doubling emits the repaired representation."""
    try:
        kind, payload = _generate(example, seed, points, n, lines)
    except ValueError as e:
        # parameters that describe no example: a usage error
        _structural(str(e))
    _write(docs.dump_document(kind, payload), out)


# ---------------------------------------------------------------------------
# nerve


@main.command()
@click.argument("path", type=click.Path())
@click.option(
    "--level", type=click.IntRange(min=0), default=3, help="enumerate levels up to here"
)
def nerve(path, level):
    """Enumerate the nerve of a two-category document, level by level.

    The category is verified once, where the document enters; over a
    verified category every enumerated simplex is valid, so none is checked
    again.  Each level is built once from the one before, and its count is
    printed as it completes; the top level is counted as it is built, never
    stored."""
    kind, payload = _read(path)
    if kind != "two-category":
        _structural(f"document is a {kind}, expected two-category")
    with _reported():
        c = docs.decode_two_category(payload)
        require(verify_fin2cat(c))
    handle = TableHandle(c)
    try:
        for lv, simplices in enumerate(nerve_levels(handle, max(level - 1, 0))):
            click.echo(f"level {lv}: {len(simplices)} simplices")
        if level:
            count = sum(1 for _ in simplices_over(handle, simplices))
            click.echo(f"level {level}: {count} simplices")
    except NoFillerError as e:
        # from level 3 on, enumeration inverts the triangles' 2-cells; the
        # error carries the inverse law failing at the cell
        (cell,) = e.args[0].where
        _structural(f"2-cell {cell} is not invertible")

