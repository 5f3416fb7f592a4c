"""The benchmark's tracer patches glv by name: every name it patches exists."""

import importlib.util
from pathlib import Path

import glv.cli  # noqa: F401  the tracer patches the modules the CLI loads

TRACER = Path(__file__).resolve().parents[1] / "glvbench" / "tracer.py"


def test_tracer_patch_table_builds_without_installing():
    spec = importlib.util.spec_from_file_location("glvbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t._build()
    assert t._patches
    for owner, attr, original, _ in t._patches:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
