"""Tests of the benchmark itself: every output check rejects a wrong answer.

    python3 -m unittest discover -s glvbench -p 'test_*.py'

The repository's ``src`` and this directory are put on ``sys.path`` here,
so no installation is needed.  Scratch files go under ``glvbench/out``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from glv import chain2, linalg, nerve, ruth, sampling  # noqa: E402
from glv.groupoid import pair_groupoid  # noqa: E402
from glv.linalg import RatMatrix  # noqa: E402

SCRATCH = HERE / "out" / "test-scratch"


def moved(m: RatMatrix, delta=1) -> RatMatrix:
    """The same matrix with its first entry changed."""
    return RatMatrix(m.rows, m.cols, (m.entries[0] + delta,) + m.entries[1:])


class Scratch(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)


class NerveChecks(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(checks.delooping_count(4, 4), 4096)
        self.assertEqual(checks.delooping_count(5, 4), 15625)
        self.assertEqual(checks.delooping_count(16, 3), 4096)
        self.assertEqual(checks.pair_count(4, 4), 1024)

    def test_count_off_by_one_is_rejected(self):
        count = lambda l: checks.delooping_count(4, l)  # noqa: E731
        good = "".join(f"level {l}: {count(l)} simplices\n" for l in range(5))
        self.assertEqual(checks.nerve_report(good, 4, count), [])
        bad = good.replace("4096", "4095")
        self.assertTrue(checks.nerve_report(bad, 4, count))
        self.assertTrue(checks.nerve_report(good, 5, count))

    def test_workload_check_runs_the_cli(self):
        wl = workloads.NerveTable()
        SCRATCH.mkdir(parents=True, exist_ok=True)
        try:
            reqs = wl.generate(3, SCRATCH)
            req = next(r for r in reqs if r.name == "pair3-L4")
            code, text = wl.run(req)
            self.assertIsNone(wl.check(req, (code, text)))
            self.assertIsNotNone(wl.check(req, (code, text.replace("243", "244"))))
            self.assertIsNotNone(wl.check(req, (1, text)))
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_seed_relabels_but_keeps_counts(self):
        a = workloads.delooping_doc(random.Random(1), 4)
        b = workloads.delooping_doc(random.Random(2), 4)
        self.assertNotEqual(a, b)
        self.assertEqual(a, workloads.delooping_doc(random.Random(1), 4))


class RuthChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.RuthEquiv()
        cls.reqs = cls.wl.generate(5, SCRATCH)

    def test_every_request_passes(self):
        for req in self.reqs:
            self.assertIsNone(self.wl.check(req, self.wl.run(req)), req.name)

    def test_own_cocycle_sites_match_the_program(self):
        req = next(r for r in self.reqs if r.meta["perturbed"])
        want = checks.cocycle_failures(req.data)
        self.assertTrue(want)
        self.assertEqual(want, {v.where for v in ruth.verify_ruth(req.data)})

    def test_wrong_answers_are_rejected(self):
        req = next(r for r in self.reqs if r.meta["perturbed"])
        v1, v2, back = self.wl.run(req)
        self.assertIsNotNone(self.wl.check(req, (v1[1:], v2, back)))
        self.assertIsNotNone(self.wl.check(req, (v1, v2[:-1], back)))
        self.assertIsNotNone(self.wl.check(req, (v1 + v1[:1], v2, dataclasses.replace(back))))
        arrow = next(iter(back.rho1))
        rho0 = dict(back.rho0)
        rho0[arrow] = moved(rho0[arrow])
        self.assertIsNotNone(self.wl.check(req, (v1, v2, dataclasses.replace(back, rho0=rho0))))
        valid = next(r for r in self.reqs if not r.meta["perturbed"])
        w1, w2, wback = self.wl.run(valid)
        self.assertIsNotNone(self.wl.check(valid, (v1, w2, wback)))

    def test_moved_correction_entry_changes_the_sites(self):
        req = next(r for r in self.reqs if r.name == "pair3/sheared")
        self.assertEqual(checks.cocycle_failures(req.data), set())
        gamma = dict(req.data.gamma)
        g = req.data.groupoid
        units = set(g.units.values())
        pair = next(p for p in gamma if p[0] not in units and p[1] not in units and gamma[p].rows and gamma[p].cols)
        gamma[pair] = moved(gamma[pair])
        self.assertTrue(checks.cocycle_failures(dataclasses.replace(req.data, gamma=gamma)))

    def test_no_solve_or_quasi_inverse(self):
        tracer = Tracer()
        tracer.install()
        try:
            for req in self.reqs[:3]:
                self.wl.run(req)
        finally:
            tracer.uninstall()
        calls = tracer.aggregate()["calls"]
        self.assertGreater(calls["linalg.rank"], 0)
        self.assertNotIn("linalg.solve", calls)
        self.assertNotIn("gl2.quasi_inverse", calls)


class HornChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.GLHorns()
        cls.reqs = cls.wl.generate(7, SCRATCH)

    def test_fillers_pass(self):
        for req in self.reqs[:12]:
            self.assertIsNone(self.wl.check(req, self.wl.run(req)), req.name)

    def test_shapes_are_fixed_per_slot(self):
        for req in self.reqs:
            h1, h0, extra = req.meta["shape"]
            for v in req.data.vertices:
                self.assertEqual((v.fiber.dim1, v.fiber.dim0), (h1 + extra, h0 + extra))

    def test_moved_triangle_entry_is_rejected(self):
        req = next(r for r in self.reqs if r.name.startswith("n3/") and r.meta["k"] == 1)
        s = self.wl.run(req)
        self.assertEqual(checks.simplex_equations(s), [])
        tris = dict(s.triangles)
        key = next(k for k, c in tris.items() if c.r.rows and c.r.cols)
        cell = tris[key]
        # bypass the checked constructor: the check must catch it on its own
        fake = object.__new__(type(cell))
        object.__setattr__(fake, "source", cell.source)
        object.__setattr__(fake, "target", cell.target)
        object.__setattr__(fake, "r", moved(cell.r))
        tris[key] = fake
        broken = nerve.SimplexLabel(s.vertices, s.edges, tuple(sorted(tris.items())))
        self.assertTrue(checks.simplex_equations(broken))

    def test_moved_edge_entry_is_rejected(self):
        req = next(r for r in self.reqs if r.name.startswith("n2/"))
        s = self.wl.run(req)
        edges = dict(s.edges)
        key, f = next((k, f) for k, f in edges.items() if f.a1.rows and f.a1.cols)
        fake_map = object.__new__(chain2.ChainMap2)
        for name, value in (("src", f.map.src), ("dst", f.map.dst), ("a1", moved(f.a1)), ("a0", f.a0)):
            object.__setattr__(fake_map, name, value)
        fake = object.__new__(type(f))
        for name, value in (("src", f.src), ("dst", f.dst), ("map", fake_map)):
            object.__setattr__(fake, name, value)
        edges[key] = fake
        broken = nerve.SimplexLabel(s.vertices, tuple(sorted(edges.items())), s.triangles)
        self.assertTrue(checks.simplex_equations(broken))
        self.assertIsNotNone(self.wl.check(req, broken))

    def test_filler_of_another_horn_is_rejected(self):
        a = next(r for r in self.reqs if r.name == "n2/s0-0/k1")
        b = next(r for r in self.reqs if r.name == "n2/s1-0/k1")
        self.assertIsNotNone(self.wl.check(a, self.wl.run(b)))


class CliChecks(Scratch):
    def test_law_lines(self):
        self.assertEqual(checks.law_lines("cocycle fails at ('a', 'b', 'c')\n"), ["cocycle"])
        self.assertEqual(
            checks.law_lines("no filler: horn data is not valid: tetrahedron fails at (3, 2, 1, 0)\n"),
            ["tetrahedron"],
        )
        self.assertIsNone(checks.law_lines("level must not be negative\n"))
        self.assertIsNone(checks.law_lines("cocycle fails at x\ninvalid literal for int()\n"))

    def test_exit_contract(self):
        self.assertIsNone(checks.exit_contract(0, "ok: ruth\n"))
        self.assertIsNotNone(checks.exit_contract(1, "Traceback (most recent call last):\n"))
        self.assertIsNotNone(checks.exit_contract(1, "invalid literal for int() with base 10: '²'\n"))
        self.assertIsNotNone(checks.exit_contract(3, ""))

    def test_fixture_table(self):
        table = workloads.fixture_table(ROOT / "tests" / "fixtures" / "README.md")
        self.assertEqual(len(table), 27)
        self.assertEqual(table["ruth_sheared.json"], (0, None))
        self.assertEqual(table["bad_ruth_cocycle.json"], (1, "cocycle"))
        self.assertEqual(table["bad_morphism_prism.json"], (1, "transformation prism"))
        self.assertEqual(table["malformed_version.json"], (2, None))

    def corpus(self):
        wl = workloads.CliCorpus(ROOT)
        return wl, wl.generate(4, SCRATCH)

    def test_flipped_byte_in_round_trip_is_rejected(self):
        wl, reqs = self.corpus()
        there = next(r for r in reqs if r.name == "convert/ruth-to-functor")
        back = next(r for r in reqs if r.name == "convert/ruth-to-functor/back")
        self.assertIsNone(wl.check(there, wl.run(there)))
        out = wl.run(back)
        self.assertIsNone(wl.check(back, out))
        data = bytearray(back.meta["out"].read_bytes())
        data[len(data) // 2] ^= 1
        back.meta["out"].write_bytes(bytes(data))
        self.assertIsNotNone(wl.check(back, out))

    def test_verify_verdicts(self):
        wl, reqs = self.corpus()
        req = next(r for r in reqs if r.name == "verify/bad_ruth_cocycle.json")
        code, text = wl.run(req)
        self.assertIsNone(wl.check(req, (code, text)))
        self.assertIsNotNone(wl.check(req, (0, "ok: ruth\n")))
        self.assertIsNotNone(wl.check(req, (1, text.replace("cocycle", "coherence"))))
        self.assertIsNotNone(wl.check(req, (1, text + "Traceback (most recent call last):\n")))

    def test_generated_and_filled_documents_are_verified(self):
        wl, reqs = self.corpus()
        for name in ("generate/lines-projection", "generate/doubling", "fill/horn_gl_31.json"):
            req = next(r for r in reqs if r.name == name)
            self.assertIsNone(wl.check(req, wl.run(req)), name)
        req = next(r for r in reqs if r.name == "fill/horn_gl_31.json")
        out = wl.run(req)
        doc = json.loads(req.meta["out"].read_text())
        tri = next(iter(doc["payload"]["triangles"]))
        row = doc["payload"]["triangles"][tri][0]
        row[0] = str(Fraction(row[0]) + 1)
        req.meta["out"].write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        self.assertIsNotNone(wl.check(req, out))

    def test_hostile_documents_fail_today_and_pass_when_mended(self):
        wl, reqs = self.corpus()
        hostile = [r for r in reqs if r.hostile]
        self.assertEqual(len(hostile), 6)
        for req in hostile:
            self.assertIsNotNone(wl.check(req, wl.run(req)), req.name)
        mended = {
            "law:associativity": (1, "associativity fails at ('1', '1', '2'): horizontal\n"),
            "contract": (2, "error: payload.category.vcompose: missing entry\n"),
            "structural": (2, "error: bad index key\n"),
        }
        for req in hostile:
            self.assertIsNone(wl.check(req, mended[req.meta["expect"]]), req.name)


class TracerTests(unittest.TestCase):
    def test_patches_every_binding_and_restores(self):
        orig_rank = linalg.rank
        orig_matmul = RatMatrix.__dict__["__matmul__"]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(chain2.rank, orig_rank)
            self.assertIsNot(sampling.rank, orig_rank)
            self.assertIsNot(linalg.rank, orig_rank)
        finally:
            tracer.uninstall()
        self.assertIs(chain2.rank, orig_rank)
        self.assertIs(sampling.rank, orig_rank)
        self.assertIs(RatMatrix.__dict__["__matmul__"], orig_matmul)
        self.assertIsInstance(Fraction.__dict__["__new__"], staticmethod)

    def test_counts_repeat_and_self_time_excludes_children(self):
        g = pair_groupoid(["a", "b", "c"])
        r = sampling.rand_ruth(random.Random(1), g, "sheared")
        aggs = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                ruth.verify_pseudofunctor(ruth.ruth_to_pseudofunctor(r))
            finally:
                tracer.uninstall()
            aggs.append(tracer.aggregate())
        self.assertEqual(aggs[0]["calls"], aggs[1]["calls"])
        self.assertEqual(aggs[0]["counts"], aggs[1]["counts"])
        self.assertGreater(aggs[0]["counts"]["linalg.fraction_new"], 0)
        spans = {s[0]: s for s in tracer.spans}
        for sid, parent, name, t0, t1, _ in tracer.spans:
            if parent >= 0:
                p = spans[parent]
                self.assertLessEqual(p[3], t0)
                self.assertLessEqual(t1, p[4])
        for name, s in aggs[1]["self_s"].items():
            self.assertGreaterEqual(s, 0, name)


class SpeedTests(unittest.TestCase):
    def test_kernel_is_fixed_work(self):
        self.assertEqual(speed.kernel(), speed.kernel())

    def test_scale_is_proportional(self):
        self.assertAlmostEqual(speed.scale(2.0, speed.NOMINAL_S), 2.0)
        self.assertAlmostEqual(speed.scale(2.0, 2 * speed.NOMINAL_S), 1.0)

    def test_kernel_is_invisible_to_the_tracer(self):
        tracer = Tracer()
        tracer.install()
        try:
            speed.kernel()
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        self.assertFalse(agg["calls"])
        self.assertFalse(any(agg["counts"].values()))


class Harness(Scratch):
    def test_refuses_to_run_without_the_program(self):
        lone = SCRATCH / "lone"
        shutil.copytree(HERE, lone / "glvbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        (lone / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        p = subprocess.run(
            [sys.executable, "glvbench/run.py", "--workload", "gl-horns", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
