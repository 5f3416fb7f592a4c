"""The benchmark's workloads run on the program as it is: for each workload,
set-up at seed 1, then the first three requests and one hostile request go
through the workload's own run and check, which find nothing wrong.  The
inputs the sampler draws for them are pinned by a digest."""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

import glv.cli  # noqa: F401  the workloads call the modules the CLI loads
from glv.documents import dump_document, encode_horn, encode_ruth

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "glvbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its siblings checks and speed as top-level modules
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["ruth-equiv", "gl-horns", "nerve-table", "cli-corpus"])
def test_workload_requests_pass_their_checks(workloads, name, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(ROOT) if cls is workloads.CliCorpus else cls()
    reqs = wl.generate(1, tmp_path)
    hostile = [r for r in reqs if r.hostile][:1]
    for req in reqs[:3] + hostile:
        assert wl.check(req, wl.run(req)) is None, req.name


# sha256 of the seed-1 batches of ruth-equiv and gl-horns, as documents
BATCHES_AT_SEED_1 = "0bf6d55b125d3377fd86155098cc7a4f88ba68dfbb10683bea17fb2b86d1bfdc"


def test_benchmark_inputs_are_pinned(workloads, tmp_path):
    # a sampler change that moves one draw changes what every later
    # benchmark run compares against the runs before it
    digest = hashlib.sha256()
    for req in workloads.RuthEquiv().generate(1, tmp_path):
        digest.update(dump_document("ruth", encode_ruth(req.data)).encode())
    for req in workloads.GLHorns().generate(1, tmp_path):
        digest.update(dump_document("horn", encode_horn(req.data)).encode())
    assert digest.hexdigest() == BATCHES_AT_SEED_1
