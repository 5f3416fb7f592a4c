"""Spans and counters around the public functions of every glv layer.

The tracer patches functions from outside the package: a function is
replaced in every ``glv`` module namespace that binds it (the modules
import names directly, e.g. ``from .linalg import rank``), and methods are
replaced on their classes, among them ``RatMatrix.__matmul__`` and the
``__post_init__`` checks of ``ChainMap2``, ``Homotopy2``, ``GLArrow`` and
``GL2Cell``.  ``install`` swaps the wrappers in and ``uninstall`` swaps the
originals back, so untraced rounds run the program exactly as shipped.

A span records (name, start, end, parent span, request id).  Spans stay in
memory until ``write_spans``.  Self time of a span is its duration minus the
durations of its direct children; spans nest strictly because the program
is single-threaded.
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
from collections import Counter

# (span name, module, attribute) for functions; the attribute is patched in
# every glv module that binds the same function object.
FUNCTION_SPANS = (
    ("linalg.rank", "glv.linalg", "rank"),
    ("linalg.solve", "glv.linalg", "solve"),
    ("chain2.is_quasi_iso", "glv.chain2", "is_quasi_iso"),
    ("gl2.compose_arrows", "glv.gl2", "compose_arrows"),
    ("gl2.whisker", "glv.gl2", "whisker_left"),
    ("gl2.whisker", "glv.gl2", "whisker_right"),
    ("gl2.quasi_inverse", "glv.gl2", "quasi_inverse"),
    ("ruth.verify_ruth", "glv.ruth", "verify_ruth"),
    ("ruth.verify_pseudofunctor", "glv.ruth", "verify_pseudofunctor"),
    ("ruth.to_pseudofunctor", "glv.ruth", "ruth_to_pseudofunctor"),
    ("ruth.to_ruth", "glv.ruth", "pseudofunctor_to_ruth"),
    ("twocat.verify", "glv.twocat", "verify_2category"),
    ("twocat.verify", "glv.twocat", "verify_2groupoid"),
    ("nerve.enumerate", "glv.nerve", "enumerate_nerve"),
    ("nerve.reconstruct_stage", "glv.nerve", "reconstruct_stage"),
    ("nerve.validate_simplex", "glv.nerve", "validate_simplex"),
    ("nerve.fill_horn", "glv.nerve", "fill_horn"),
    ("laxmaps.verify_lax_transformation", "glv.laxmaps", "verify_lax_transformation"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("linalg.matmul", "glv.linalg", "RatMatrix", "__matmul__"),
    ("chain2.checked_ctor", "glv.chain2", "ChainMap2", "__post_init__"),
    ("chain2.checked_ctor", "glv.chain2", "Homotopy2", "__post_init__"),
    ("gl2.arrow_check", "glv.gl2", "GLArrow", "__post_init__"),
    ("gl2.cell_check", "glv.gl2", "GL2Cell", "__post_init__"),
)

# Functions and methods that only bump a counter: they are called too often
# for a span each, and their time stays in the caller's self time.
FUNCTION_COUNTS = (
    ("twocat.find_quasi_inverse.calls", "glv.twocat", "find_quasi_inverse"),
    ("nerve.tetrahedra_checked", "glv.nerve", "_tetrahedron_sides"),
)
METHOD_COUNTS = (
    ("twocat.table_ops.calls", "glv.twocat", "Fin2Cat", "compose"),
    ("twocat.table_ops.calls", "glv.twocat", "Fin2Cat", "vcompose"),
    ("twocat.table_ops.calls", "glv.twocat", "Fin2Cat", "hcompose"),
    ("nerve.label_maps_built", "glv.nerve", "SimplexLabel", "edge_map"),
    ("nerve.label_maps_built", "glv.nerve", "SimplexLabel", "triangle_map"),
    ("nerve.label_maps_built", "glv.nerve", "Horn", "edge_map"),
    ("nerve.label_maps_built", "glv.nerve", "Horn", "triangle_map"),
    ("nerve.label_maps_built", "glv.nerve", "FiltrationStage", "edge_map"),
    ("nerve.label_maps_built", "glv.nerve", "FiltrationStage", "triangle_map"),
    ("nerve.simplices_built", "glv.nerve", "SimplexLabel", "__init__"),
)

DOCUMENT_DECODERS = (
    "load_document",
    "decode_groupoid",
    "decode_bundle",
    "decode_two_category",
    "decode_ruth",
    "decode_functor",
    "decode_simplex",
    "decode_horn",
    "decode_ruth_morphism",
    "decode_lax_morphism",
)
DOCUMENT_ENCODERS = (
    "dump_document",
    "encode_groupoid",
    "encode_bundle",
    "encode_two_category",
    "encode_ruth",
    "encode_functor",
    "encode_simplex",
    "encode_horn",
    "encode_ruth_morphism",
    "encode_lax_morphism",
)
FUNCTION_SPANS += tuple(("documents.decode", "glv.documents", a) for a in DOCUMENT_DECODERS)
FUNCTION_SPANS += tuple(("documents.encode", "glv.documents", a) for a in DOCUMENT_ENCODERS)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (id, parent id, name, start, end, request)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # "parent<child" span name pairs
        self.stack: list = []  # open frames: [id, name, start, child seconds]
        self._next_id = 0
        self.request = None
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self._built = False

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        sid, name, t0, child = frame
        dur = t1 - t0
        parent = -1
        if self.stack:
            up = self.stack[-1]
            up[3] += dur
            parent = up[0]
            self.edges[f"{up[1]}<{name}"] += 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.spans.append((sid, parent, name, t0, t1, self.request))

    def region(self, name: str):
        """Context manager recording one span, for calls made by the benchmark."""
        return _Region(self, name)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _chain(self, owner, attr, make):
        # Stack a wrapper on what is currently patched in for (owner, attr).
        for i, (o, a, orig, wrapped) in enumerate(self._patches):
            if o is owner and a == attr:
                self._patches[i] = (o, a, orig, make(wrapped))
                return
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, current, make(current)))

    # -- patch table -----------------------------------------------------

    def _build(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "glv" or n.startswith("glv.")}

        def each_binding(module, attr):
            target = getattr(mods[module], attr)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is target:
                        yield m, name

        for name, module, attr in FUNCTION_SPANS:
            for owner, bound in each_binding(module, attr):
                self._chain(owner, bound, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, attr in FUNCTION_COUNTS:
            for owner, bound in each_binding(module, attr):
                self._chain(owner, bound, lambda fn, n=name: self._count_wrapper(n, fn))
        for name, module, cls, meth in METHOD_SPANS:
            owner = getattr(mods[module], cls)
            self._chain(owner, meth, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, cls, meth in METHOD_COUNTS:
            owner = getattr(mods[module], cls)
            self._chain(owner, meth, lambda fn, n=name: self._count_wrapper(n, fn))

        docs = mods["glv.documents"]
        self._chain(docs, "load_document", self._bytes_in)
        self._chain(docs, "dump_document", self._bytes_out)

        groupoid_cls = mods["glv.groupoid"].FinGroupoid
        self._chain(groupoid_cls, "composable_triples", self._triples)

        frac_new = fractions.Fraction.__dict__["__new__"]
        inner = frac_new.__func__
        counts = self.counts

        def fraction_new(cls, *args, **kwargs):
            counts["linalg.fraction_new"] += 1
            return inner(cls, *args, **kwargs)

        self._patches.append((fractions.Fraction, "__new__", frac_new, fraction_new))
        self._built = True

    def _bytes_in(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(text, *args, **kwargs):
            counts["documents.bytes_in"] += len(text.encode())
            return fn(text, *args, **kwargs)

        return wrapper

    def _bytes_out(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["documents.bytes_out"] += len(out.encode())
            return out

        return wrapper

    def _triples(self, fn):
        # A generator: each resumption is one span, each item one count.
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.open("groupoid.composable_triples")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(frame)
                tracer.counts["groupoid.triples_yielded"] += 1
                yield item

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if not self._built:
            self._build()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls and self seconds; plus the raw counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": dict(self.edges),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,request\n")
            for sid, parent, name, t0, t1, req in self.spans:
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{req}\n")


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.frame)
        return False


def merge(into: dict, part: dict) -> None:
    """Add one aggregate (as returned by Tracer.aggregate) into another."""
    for key in ("calls", "self_s", "counts", "edges"):
        bucket = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
