"""The committed corpus is exactly what make_fixtures.py writes."""

import importlib.util
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def test_make_fixtures_reproduces_the_corpus_byte_for_byte(tmp_path):
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURES / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.main(tmp_path)
    committed = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
