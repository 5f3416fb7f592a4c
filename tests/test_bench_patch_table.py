"""The benchmark's tracer patches glv by name: every name it patches exists,
and what it wraps still behaves as the tracer expects once installed."""

import importlib.util
from pathlib import Path

import glv.cli  # noqa: F401  the tracer patches the modules the CLI loads
from glv.groupoid import pair_groupoid

TRACER = Path(__file__).resolve().parents[1] / "glvbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("glvbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.Tracer()


def test_tracer_patch_table_builds_without_installing():
    t = _tracer()
    t._build()
    assert t._patches
    for owner, attr, original, _ in t._patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


def test_installed_tracer_counts_composable_triples():
    # the tracer drives composable_triples with next(): it must return an iterator
    g = pair_groupoid(["a", "b", "c"])
    t = _tracer()
    t.install()
    try:
        triples = list(g.composable_triples())
    finally:
        t.uninstall()
    assert len(triples) == 81
    assert t.counts["groupoid.triples_yielded"] == 81


def test_installed_tracer_forwards_the_unit_keyword():
    g = pair_groupoid(["a", "b", "c"])
    t = _tracer()
    t.install()
    try:
        triples = list(g.composable_triples(skip_units=True))
    finally:
        t.uninstall()
    # n(n-1)^3 triples through no unit on the pair groupoid over n = 3 points
    assert len(triples) == 24
    assert t.counts["groupoid.triples_yielded"] == 24
