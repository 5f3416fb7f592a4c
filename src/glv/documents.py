"""Reading and writing the JSON documents used by the command line tool.

One file holds one document: a JSON object with exactly the fields "kind",
"version" and "payload".  The version is the string "1".  Scalars are
strings "p/q" (or just "p" for integers); matrices are nested arrays of
such strings, row by row, with their shapes coming from the dimension data
next to them, so zero-sized matrices survive a round trip.  dump_document
writes keys in sorted order and list-valued tables in a fixed order, which
makes the output canonical: converting a document twice reproduces the
first conversion byte for byte.

Structural problems, such as missing or unknown fields, malformed scalars,
wrong matrix shapes and names that do not resolve or repeat, raise
DocumentError.  Each table shape has one reader, which checks every name as
it reads it against the names already read: "unknown arrow 'f'" at the entry.
Payloads that are well formed but violate an equation of the objects they
describe either surface through the verifiers or, for the checked GL
constructors, as LawError naming the law and the piece being built.  An
embedded groupoid or two-category is verified before anything is built from
it; its violations raise LawError, one line each under the structure's path.
Functor payloads are parsed into matrices and handed to the translation in
ruth.py, which builds their GL cells; lax morphism payloads are parsed into
the same matrices as ruth morphisms.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Mapping, NoReturn, Sequence

from .chain2 import ChainMap2, Fiber2
from .gl2 import GL2Cell, GLArrow, GLObject, compose_arrows
from .groupoid import FinGroupoid, verify_groupoid
from .linalg import RatMatrix
from .nerve import Horn, SimplexLabel, make_horn, make_simplex
from .reports import LawError, require
from .ruth import PseudoFunctorGL, Ruth2, RuthMorphism, pseudofunctor_to_ruth, ruth_to_pseudofunctor
from .twocat import Fin2Cat, Fin2Groupoid, verify_fin2cat

VERSION = "1"

KINDS = (
    "groupoid",
    "bundle",
    "ruth",
    "functor",
    "two-category",
    "simplex",
    "horn",
    "morphism",
)


class DocumentError(Exception):
    """A document is structurally malformed."""


# ---------------------------------------------------------------------------
# low level shapes


def _as_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object")
    return obj


def _as_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise DocumentError(f"{where}: expected an array")
    return obj


def _as_str(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise DocumentError(f"{where}: expected a string")
    return obj


def _as_int(obj, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise DocumentError(f"{where}: expected an integer")
    return obj


def _fields(obj, where: str, required: Sequence[str], optional: Sequence[str] = ()):
    """Check that obj is an object with exactly the given fields."""
    d = _as_dict(obj, where)
    for name in required:
        if name not in d:
            raise DocumentError(f"{where}: missing field {name!r}")
    known = set(required) | set(optional)
    for name in d:
        if name not in known:
            raise DocumentError(f"{where}: unknown field {name!r}")
    return d


def _str_list(obj, where: str) -> list:
    items = _as_list(obj, where)
    for i, v in enumerate(items):
        if not isinstance(v, str):
            raise DocumentError(f"{where}[{i}]: expected a string")
    return items


def _unknown(kind: str, name: str, where: str) -> NoReturn:
    raise DocumentError(f"{where}: unknown {kind} {name!r}")


def _names(obj, where: str) -> tuple:
    """A list of distinct names."""
    names = _str_list(obj, where)
    if len(set(names)) != len(names):
        i = next(i for i, x in enumerate(names) if x in names[:i])
        raise DocumentError(f"{where}[{i}]: repeated name {names[i]!r}")
    return tuple(names)


def _keyed_exactly(obj, names, what: str, where: str) -> dict:
    """An object whose keys are exactly the given names."""
    d = _as_dict(obj, where)
    if set(d) != set(names):
        raise DocumentError(f"{where}: keys do not match the {what}")
    return d


# ---------------------------------------------------------------------------
# scalars and matrices


_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"0|[1-9][0-9]*")


def scalar_from_str(s, where: str) -> Fraction:
    text = _as_str(s, where)
    if not _SCALAR.fullmatch(text):
        raise DocumentError(f"{where}: bad scalar {text!r}: expected p or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError as e:
        raise DocumentError(f"{where}: bad scalar {text!r}: {e}") from e


def matrix_to_lists(m: RatMatrix) -> list:
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_lists(obj, rows: int, cols: int, where: str) -> RatMatrix:
    data = _as_list(obj, where)
    if len(data) != rows:
        raise DocumentError(f"{where}: expected {rows} rows, found {len(data)}")
    entries = []
    for i, row in enumerate(data):
        row = _as_list(row, f"{where}[{i}]")
        if len(row) != cols:
            raise DocumentError(
                f"{where}[{i}]: expected {cols} entries, found {len(row)}"
            )
        entries.extend(scalar_from_str(v, f"{where}[{i}][{j}]") for j, v in enumerate(row))
    return RatMatrix(rows, cols, tuple(entries))


# ---------------------------------------------------------------------------
# shared pieces: fibers, endpoint maps, pair-keyed tables


def fiber_to_json(f: Fiber2) -> dict:
    return {"dim1": f.dim1, "dim0": f.dim0, "d": matrix_to_lists(f.d)}


def fiber_from_json(obj, where: str) -> Fiber2:
    d = _fields(obj, where, ("dim1", "dim0", "d"))
    dim1 = _as_int(d["dim1"], f"{where}.dim1")
    dim0 = _as_int(d["dim0"], f"{where}.dim0")
    if dim1 < 0 or dim0 < 0:
        raise DocumentError(f"{where}: negative dimension")
    return Fiber2(dim1, dim0, matrix_from_lists(d["d"], dim0, dim1, f"{where}.d"))


def _endpoints_from_json(obj, known, kind: str, where: str) -> dict:
    """An object mapping names to [source, target] pairs of known kind names."""
    out = {}
    for name, val in _as_dict(obj, where).items():
        spot = f"{where}.{name}"
        pair = _str_list(val, spot)
        if len(pair) != 2:
            raise DocumentError(f"{spot}: expected [source, target]")
        s, t = pair
        if s not in known or t not in known:
            _unknown(kind, s if s not in known else t, spot)
        out[name] = (s, t)
    return out


def _endpoints_to_json(table: Mapping) -> dict:
    return {name: [s, t] for name, (s, t) in table.items()}


def _pairs_to_json(table: Mapping) -> list:
    """A dict keyed by string pairs, as a sorted array of triples."""
    return [[h, g, v] for (h, g), v in sorted(table.items())]


def _pairs_from_json(obj, known, kind: str, where: str) -> dict:
    """A pair table: [left, right, result] triples of known kind names, as a
    dict keyed by (left, right)."""
    out = {}
    for i, item in enumerate(_as_list(obj, where)):
        spot = f"{where}[{i}]"
        triple = _str_list(item, spot)
        if len(triple) != 3:
            raise DocumentError(f"{spot}: expected [left, right, result]")
        a, b, r = triple
        if (a, b) in out:
            raise DocumentError(f"{spot}: duplicate pair {(a, b)}")
        if a not in known or b not in known or r not in known:
            _unknown(kind, next(x for x in triple if x not in known), spot)
        out[(a, b)] = r
    return out


def _pair_matrices_to_json(table: Mapping) -> list:
    return [[h, g, matrix_to_lists(m)] for (h, g), m in sorted(table.items())]


def _name_map(obj, keys, key_kind: str, values, value_kind: str, where: str) -> dict:
    """An object mapping names of keys to names of values."""
    out = {}
    for x, v in _as_dict(obj, where).items():
        _as_str(v, f"{where}.{x}")
        if x not in keys:
            _unknown(key_kind, x, where)
        if v not in values:
            _unknown(value_kind, v, f"{where}.{x}")
        out[x] = v
    return out


# ---------------------------------------------------------------------------
# groupoid


def encode_groupoid(g: FinGroupoid) -> dict:
    return {
        "objects": list(g.objects),
        "arrows": _endpoints_to_json(g.arrows),
        "compose": _pairs_to_json(g.comp),
        "units": dict(g.units),
        "inverses": dict(g.inv),
    }


def decode_groupoid(obj, where: str = "payload") -> FinGroupoid:
    d = _fields(obj, where, ("objects", "arrows", "compose", "units", "inverses"))
    objects = _names(d["objects"], f"{where}.objects")
    arrows = _endpoints_from_json(d["arrows"], objects, "object", f"{where}.arrows")
    comp = _pairs_from_json(d["compose"], arrows, "arrow", f"{where}.compose")
    units = _name_map(d["units"], objects, "object", arrows, "arrow", f"{where}.units")
    inv = _name_map(d["inverses"], arrows, "arrow", arrows, "arrow", f"{where}.inverses")
    return FinGroupoid(objects, arrows, comp, units, inv)


# ---------------------------------------------------------------------------
# bundle


def encode_bundle(fibers: Mapping) -> dict:
    return {
        "base": sorted(fibers),
        "fibers": {x: fiber_to_json(f) for x, f in fibers.items()},
    }


def decode_bundle(obj, where: str = "payload") -> dict:
    d = _fields(obj, where, ("base", "fibers"))
    base = _names(d["base"], f"{where}.base")
    raw = _keyed_exactly(d["fibers"], base, "base points", f"{where}.fibers")
    return {x: fiber_from_json(raw[x], f"{where}.fibers.{x}") for x in base}


# ---------------------------------------------------------------------------
# two-category


def encode_two_category(c: Fin2Cat) -> dict:
    out = {
        "objects": list(c.objects),
        "arrows": _endpoints_to_json(c.arrows),
        "cells": _endpoints_to_json(c.cells),
        "compose": _pairs_to_json(c.comp1),
        "hcompose": _pairs_to_json(c.hcomp),
        "vcompose": _pairs_to_json(c.vcomp),
        "unit_arrows": dict(c.unit_arrow),
        "unit_cells": dict(c.unit_cell),
    }
    if isinstance(c, Fin2Groupoid):
        out["cell_inverses"] = dict(c.inv2)
    return out


def decode_two_category(obj, where: str = "payload") -> Fin2Cat:
    fields = ("objects", "arrows", "cells", "compose", "hcompose", "vcompose")
    d = _fields(obj, where, fields + ("unit_arrows", "unit_cells"), optional=("cell_inverses",))
    objects = _names(d["objects"], f"{where}.objects")
    arrows = _endpoints_from_json(d["arrows"], objects, "object", f"{where}.arrows")
    cells = _endpoints_from_json(d["cells"], arrows, "arrow", f"{where}.cells")
    tables = (
        _pairs_from_json(d["compose"], arrows, "arrow", f"{where}.compose"),
        _pairs_from_json(d["hcompose"], cells, "cell", f"{where}.hcompose"),
        _pairs_from_json(d["vcompose"], cells, "cell", f"{where}.vcompose"),
        _name_map(d["unit_arrows"], objects, "object", arrows, "arrow", f"{where}.unit_arrows"),
        _name_map(d["unit_cells"], arrows, "arrow", cells, "cell", f"{where}.unit_cells"),
    )
    if "cell_inverses" in d:
        inv2 = _name_map(d["cell_inverses"], cells, "cell", cells, "cell", f"{where}.cell_inverses")
        return Fin2Groupoid(objects, arrows, cells, *tables, inv2)
    return Fin2Cat(objects, arrows, cells, *tables)


# ---------------------------------------------------------------------------
# representations up to homotopy and pseudo-functors


def _groupoid_and_fibers(d: dict, where: str) -> tuple[FinGroupoid, dict]:
    g = decode_groupoid(d["groupoid"], f"{where}.groupoid")
    require(verify_groupoid(g), f"{where}.groupoid")
    raw = _keyed_exactly(d["fibers"], g.objects, "groupoid objects", f"{where}.fibers")
    return g, {x: fiber_from_json(v, f"{where}.fibers.{x}") for x, v in raw.items()}


def _arrow_ends(g: FinGroupoid, src: Mapping, dst: Mapping) -> dict:
    """The fibers each arrow x -> y runs between: src[x] and dst[y]."""
    return {a: (src[x], dst[y]) for a, (x, y) in g.arrows.items()}


# The shape (rows, cols) of a matrix between the fibers fx and fy: a chain
# map in degree 1 or 0, or a homotopy from degree 0 to degree 1.
_DEGREE1 = lambda fx, fy: (fy.dim1, fx.dim1)
_DEGREE0 = lambda fx, fy: (fy.dim0, fx.dim0)
_HOMOTOPY = lambda fx, fy: (fy.dim1, fx.dim0)


def _keyed_matrices(obj, ends: Mapping, kind: str, shape, where: str) -> dict:
    """Matrices keyed by names of ends, which maps each kind name to the
    (source, target) fibers that shape(source, target) reads."""
    out = {}
    for key, raw in _as_dict(obj, where).items():
        if key not in ends:
            _unknown(kind, key, where)
        out[key] = matrix_from_lists(raw, *shape(*ends[key]), f"{where}.{key}")
    return out


def _chain_maps_from_json(obj, ends: Mapping, what: str, where: str) -> tuple[dict, dict]:
    """Objects {"a1": ..., "a0": ...} keyed exactly like ends, which maps each
    key to the (source, target) fibers; returns the two degrees' matrices."""
    raw = _keyed_exactly(obj, ends, what, where)
    a1, a0 = {}, {}
    for key in sorted(raw):
        spot = f"{where}.{key}"
        pair = _fields(raw[key], spot, ("a1", "a0"))
        a1[key] = matrix_from_lists(pair["a1"], *_DEGREE1(*ends[key]), f"{spot}.a1")
        a0[key] = matrix_from_lists(pair["a0"], *_DEGREE0(*ends[key]), f"{spot}.a0")
    return a1, a0


def _corrections_from_json(obj, g, fibers, where: str) -> dict:
    """Pair-keyed degree-raising matrices V0(src a) -> V1(tgt h)."""
    out = {}
    for i, item in enumerate(_as_list(obj, where)):
        spot = f"{where}[{i}]"
        triple = _as_list(item, spot)
        if len(triple) != 3:
            raise DocumentError(f"{spot}: expected [left, right, matrix]")
        h = _as_str(triple[0], f"{spot}[0]")
        a = _as_str(triple[1], f"{spot}[1]")
        if (h, a) in out:
            raise DocumentError(f"{spot}: duplicate pair {(h, a)}")
        if h not in g.arrows or a not in g.arrows:
            _unknown("arrow", h if h not in g.arrows else a, spot)
        if g.src(h) != g.tgt(a):
            raise DocumentError(f"{where}: pair {(h, a)} is not composable")
        shape = fibers[g.tgt(h)].dim1, fibers[g.src(a)].dim0
        out[(h, a)] = matrix_from_lists(triple[2], *shape, f"{where}[{h},{a}]")
    return out


def encode_ruth(r: Ruth2) -> dict:
    return {
        "groupoid": encode_groupoid(r.groupoid),
        "fibers": {x: fiber_to_json(f) for x, f in r.fibers.items()},
        "rho1": {a: matrix_to_lists(m) for a, m in r.rho1.items()},
        "rho0": {a: matrix_to_lists(m) for a, m in r.rho0.items()},
        "gamma": _pair_matrices_to_json(r.gamma),
    }


def decode_ruth(obj, where: str = "payload") -> Ruth2:
    d = _fields(obj, where, ("groupoid", "fibers", "rho1", "rho0", "gamma"))
    g, fibers = _groupoid_and_fibers(d, where)
    ends = _arrow_ends(g, fibers, fibers)
    rho1 = _keyed_matrices(d["rho1"], ends, "arrow", _DEGREE1, f"{where}.rho1")
    rho0 = _keyed_matrices(d["rho0"], ends, "arrow", _DEGREE0, f"{where}.rho0")
    gamma = _corrections_from_json(d["gamma"], g, fibers, f"{where}.gamma")
    return Ruth2(g, fibers, rho1, rho0, gamma)


def _chain_maps_to_json(a1: Mapping, a0: Mapping) -> dict:
    return {k: {"a1": matrix_to_lists(a1[k]), "a0": matrix_to_lists(a0[k])} for k in a1}


def _functor_to_json(r: Ruth2) -> dict:
    return {
        "groupoid": encode_groupoid(r.groupoid),
        "fibers": {x: fiber_to_json(f) for x, f in r.fibers.items()},
        "arrows": _chain_maps_to_json(r.rho1, r.rho0),
        "compare": _pair_matrices_to_json(r.gamma),
    }


def encode_functor(p: PseudoFunctorGL) -> dict:
    return _functor_to_json(pseudofunctor_to_ruth(p))


def _functor_from_json(obj, where: str) -> Ruth2:
    """The matrices of a functor payload, shapes checked."""
    d = _fields(obj, where, ("groupoid", "fibers", "arrows", "compare"))
    g, fibers = _groupoid_and_fibers(d, where)
    ends = _arrow_ends(g, fibers, fibers)
    rho1, rho0 = _chain_maps_from_json(d["arrows"], ends, "groupoid arrows", f"{where}.arrows")
    gamma = _corrections_from_json(d["compare"], g, fibers, f"{where}.compare")
    return Ruth2(g, fibers, rho1, rho0, gamma)


def decode_functor(obj, where: str = "payload") -> PseudoFunctorGL:
    """Parse the matrices and build the pseudo-functor with ruth_to_pseudofunctor.

    Shapes are validated here and raise DocumentError; the chain map,
    quasi-isomorphism and homotopy equations are enforced by the GL
    constructors and raise LawError at the arrow or pair."""
    return ruth_to_pseudofunctor(_functor_from_json(obj, where))


# ---------------------------------------------------------------------------
# simplices and horns


def _index_key(indices: tuple) -> str:
    return ",".join(str(i) for i in indices)


def _indices_from_key(key: str, length: int, where: str) -> tuple:
    out = []
    for p in key.split(","):
        if not _INDEX.fullmatch(p):
            raise DocumentError(f"{where}: bad index key {key!r}")
        out.append(int(p))
    if len(out) != length or list(out) != sorted(out, reverse=True) or len(set(out)) != length:
        raise DocumentError(f"{where}: bad index key {key!r}")
    return tuple(out)


def _label_table(obj, size: int, known, kind: str, where: str) -> dict:
    """The labels of a table simplex or horn: names of known kind, keyed by
    index keys of the given size."""
    out = {}
    for key, name in sorted(_as_dict(obj, where).items()):
        spot = f"{where}.{key}"
        _as_str(name, spot)
        indices = _indices_from_key(key, size, spot)
        if name not in known:
            _unknown(kind, name, spot)
        out[indices] = name
    return out


def encode_simplex(s: SimplexLabel, category: Fin2Cat | None = None) -> dict:
    return _encode_labels(s, category, "simplex")


def encode_horn(h: Horn, category: Fin2Cat | None = None) -> dict:
    return _encode_labels(h, category, "horn")


def _encode_labels(x: SimplexLabel | Horn, category: Fin2Cat | None, what: str) -> dict:
    """The simplex or horn document of x; a horn also names its missing face."""
    first = next(iter(x.vertices), None)
    if isinstance(first, GLObject):
        out = {
            "handle": "gl",
            "vertices": [
                {"point": v.point, "fiber": fiber_to_json(v.fiber)} for v in x.vertices
            ],
            "edges": {
                _index_key(k): {
                    "a1": matrix_to_lists(f.a1),
                    "a0": matrix_to_lists(f.a0),
                }
                for k, f in x.edges
            },
            "triangles": {_index_key(k): matrix_to_lists(c.r) for k, c in x.triangles},
        }
    else:
        out = {
            "handle": "table",
            "vertices": list(x.vertices),
            "edges": {_index_key(k): f for k, f in x.edges},
            "triangles": {_index_key(k): c for k, c in x.triangles},
        }
    if what == "horn":
        out["missing"] = x.k
    if out["handle"] == "table":
        if category is None:
            raise ValueError(f"a table {what} needs its two-category to serialize")
        out["category"] = encode_two_category(category)
    return out


def _decode_gl_tables(d: dict, where: str):
    raw_vertices = _as_list(d["vertices"], f"{where}.vertices")
    objs = []
    for i, raw in enumerate(raw_vertices):
        spot = f"{where}.vertices[{i}]"
        v = _fields(raw, spot, ("point", "fiber"))
        objs.append(
            GLObject(_as_str(v["point"], f"{spot}.point"), fiber_from_json(v["fiber"], f"{spot}.fiber"))
        )
    edges = {}
    for key, raw in sorted(_as_dict(d["edges"], f"{where}.edges").items()):
        spot = f"{where}.edges.{key}"
        j, i = _indices_from_key(key, 2, spot)
        if j >= len(objs):
            raise DocumentError(f"{spot}: index out of range")
        pair = _fields(raw, spot, ("a1", "a0"))
        fi, fj = objs[i].fiber, objs[j].fiber
        a1 = matrix_from_lists(pair["a1"], fj.dim1, fi.dim1, f"{spot}.a1")
        a0 = matrix_from_lists(pair["a0"], fj.dim0, fi.dim0, f"{spot}.a0")
        try:
            edges[(j, i)] = GLArrow(objs[i], objs[j], ChainMap2(fi, fj, a1, a0))
        except LawError as e:
            raise e.at((j, i)) from None
    triangles = {}
    for key, raw in sorted(_as_dict(d["triangles"], f"{where}.triangles").items()):
        spot = f"{where}.triangles.{key}"
        k, j, i = _indices_from_key(key, 3, spot)
        if k >= len(objs):
            raise DocumentError(f"{spot}: index out of range")
        for pair in ((k, i), (k, j), (j, i)):
            if pair not in edges:
                raise DocumentError(f"{spot}: edge {pair} is missing")
        m = matrix_from_lists(raw, objs[k].fiber.dim1, objs[i].fiber.dim0, spot)
        try:
            triangles[(k, j, i)] = GL2Cell(
                edges[(k, i)], compose_arrows(edges[(k, j)], edges[(j, i)]), m
            )
        except LawError as e:
            raise e.at((k, j, i)) from None
    return objs, edges, triangles, None


def _decode_table_tables(d: dict, where: str):
    if "category" not in d:
        raise DocumentError(f"{where}: a table document needs a category field")
    cat = decode_two_category(d["category"], f"{where}.category")
    require(verify_fin2cat(cat), f"{where}.category")
    vertices = _str_list(d["vertices"], f"{where}.vertices")
    for i, x in enumerate(vertices):
        if x not in cat.objects:
            _unknown("object", x, f"{where}.vertices[{i}]")
    edges = _label_table(d["edges"], 2, cat.arrows, "arrow", f"{where}.edges")
    triangles = _label_table(d["triangles"], 3, cat.cells, "cell", f"{where}.triangles")
    return vertices, edges, triangles, cat


def decode_simplex(obj, where: str = "payload"):
    """Returns (handle kind, SimplexLabel, category or None)."""
    return _decode_labels(obj, where, "simplex")


def decode_horn(obj, where: str = "payload"):
    """Returns (handle kind, Horn, category or None)."""
    return _decode_labels(obj, where, "horn")


def _decode_labels(obj, where: str, what: str):
    head = ("handle", "missing") if what == "horn" else ("handle",)
    d = _fields(obj, where, head + ("vertices", "edges", "triangles"), optional=("category",))
    if what == "horn":
        k = _as_int(d["missing"], f"{where}.missing")
    handle = _as_str(d["handle"], f"{where}.handle")
    if handle == "gl":
        vertices, edges, triangles, cat = _decode_gl_tables(d, where)
        if "category" in d:
            raise DocumentError(f"{where}: a gl document does not carry a category")
    elif handle == "table":
        vertices, edges, triangles, cat = _decode_table_tables(d, where)
    else:
        raise DocumentError(f"{where}.handle: expected 'gl' or 'table', found {handle!r}")
    try:
        if what == "horn":
            return handle, make_horn(len(vertices) - 1, k, vertices, edges, triangles), cat
        return handle, make_simplex(vertices, edges, triangles), cat
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# morphisms, in both presentations


def encode_ruth_morphism(m: RuthMorphism) -> dict:
    return {
        "style": "ruth",
        "source": encode_ruth(m.src),
        "target": encode_ruth(m.dst),
        "theta1": {x: matrix_to_lists(v) for x, v in m.theta1.items()},
        "theta0": {x: matrix_to_lists(v) for x, v in m.theta0.items()},
        "mu": {a: matrix_to_lists(v) for a, v in m.mu.items()},
    }


def encode_lax_morphism(m: RuthMorphism) -> dict:
    """The same morphism as a transformation between pseudo-functors:
    per-point components H_x and, for every groupoid arrow f, the matrix of
    the 2-cell H_y rho(f) => rho'(f) H_x."""
    return {
        "style": "lax",
        "source": _functor_to_json(m.src),
        "target": _functor_to_json(m.dst),
        "components": _chain_maps_to_json(m.theta1, m.theta0),
        "cells": {a: matrix_to_lists(v) for a, v in m.mu.items()},
    }


def morphism_style(obj, where: str = "payload") -> str:
    d = _as_dict(obj, where)
    style = d.get("style")
    if style not in ("ruth", "lax"):
        raise DocumentError(f"{where}.style: expected 'ruth' or 'lax'")
    return style


def decode_ruth_morphism(obj, where: str = "payload") -> RuthMorphism:
    d = _fields(obj, where, ("style", "source", "target", "theta1", "theta0", "mu"))
    src, dst, points, arrows = _morphism_ends(d, "ruth", decode_ruth, where)
    theta1 = _keyed_matrices(d["theta1"], points, "object", _DEGREE1, f"{where}.theta1")
    theta0 = _keyed_matrices(d["theta0"], points, "object", _DEGREE0, f"{where}.theta0")
    mu = _keyed_matrices(d["mu"], arrows, "arrow", _HOMOTOPY, f"{where}.mu")
    return RuthMorphism(src, dst, theta1, theta0, mu)


def decode_lax_morphism(obj, where: str = "payload") -> RuthMorphism:
    """Parse the matrices of a transformation between pseudo-functors, as
    decode_ruth_morphism does for its style; no GL cell is built, and
    verify_morphism in style "lax" checks every law."""
    d = _fields(obj, where, ("style", "source", "target", "components", "cells"))
    src, dst, points, arrows = _morphism_ends(d, "lax", _functor_from_json, where)
    theta1, theta0 = _chain_maps_from_json(d["components"], points, "objects", f"{where}.components")
    mu = _keyed_matrices(d["cells"], arrows, "arrow", _HOMOTOPY, f"{where}.cells")
    return RuthMorphism(src, dst, theta1, theta0, mu)


def _morphism_ends(d: dict, style: str, decode, where: str) -> tuple:
    """The source and target of a morphism payload in the given style, over
    one groupoid, and the (source, target) fibers of each point and arrow."""
    if d["style"] != style:
        raise DocumentError(f"{where}.style: expected {style!r}")
    src = decode(d["source"], f"{where}.source")
    dst = decode(d["target"], f"{where}.target")
    if src.groupoid != dst.groupoid:
        raise DocumentError(f"{where}: source and target live over different groupoids")
    points = {x: (src.fibers[x], dst.fibers[x]) for x in src.fibers}
    return src, dst, points, _arrow_ends(src.groupoid, src.fibers, dst.fibers)


# ---------------------------------------------------------------------------
# whole documents


def dump_document(kind: str, payload: dict) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    doc = {"kind": kind, "version": VERSION, "payload": payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _RepeatedKey(Exception):
    """A JSON object repeats a key: load_document reads the text again to name it."""


def _distinct_keys(pairs: list) -> dict:
    # json.loads would keep the last of repeated keys and drop the others
    d = dict(pairs)
    if len(d) < len(pairs):
        raise _RepeatedKey
    return d


def _first_repeat(obj, path: str):
    """(path, key) of the first object with a repeated key, in the order the
    parser closes objects (members first), or None.  Objects are tuples of
    their pairs here; members of the document are named as in "payload.cells"."""
    keyed = isinstance(obj, tuple)
    if not keyed and not isinstance(obj, list):
        return None
    for k, v in obj if keyed else enumerate(obj):
        sub = (k if path == "document" else f"{path}.{k}") if keyed else f"{path}[{k}]"
        if found := _first_repeat(v, sub):
            return found
    keys = [k for k, _ in obj] if keyed else []
    return next(((path, k) for i, k in enumerate(keys) if k in keys[:i]), None)


def load_document(text: str):
    """Parse a document, returning (kind, payload) without decoding the payload."""
    try:
        try:
            doc = json.loads(text, object_pairs_hook=_distinct_keys)
        except _RepeatedKey:
            path, key = _first_repeat(json.loads(text, object_pairs_hook=tuple), "document")
            raise DocumentError(f"{path}: repeated key {key!r}") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"not valid JSON: {e}") from e
    except RecursionError:
        raise DocumentError("document is nested too deeply to read") from None
    d = _fields(doc, "document", ("kind", "version", "payload"))
    kind = _as_str(d["kind"], "document.kind")
    version = _as_str(d["version"], "document.version")
    if kind not in KINDS:
        raise DocumentError(f"document.kind: unknown kind {kind!r}")
    if version != VERSION:
        raise DocumentError(f"document.version: expected {VERSION!r}, found {version!r}")
    return kind, _as_dict(d["payload"], "document.payload")
