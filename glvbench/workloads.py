"""The four workloads: inputs made from a seed, one request each, checks.

A workload builds a fixed list of requests during set-up.  One round runs
every request once, in order; every round repeats the identical batch.
``run`` is the only code inside the timed region; ``check`` inspects an
output afterwards and returns a description of what is wrong, or None.

Requests marked ``hostile`` test the CLI exit contract on documents that
the program mishandles today; a failed check on them counts as a failed
operation instead of a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed

# Calls into the program go through module attributes, so that the
# tracer's patches apply to them.
from glv import cli, documents as docs, nerve, ruth, sampling
from glv.chain2 import Fiber2
from glv.gl2 import GLObject, compose_arrows
from glv.groupoid import action_groupoid, cyclic_group, pair_groupoid
from glv.twocat import delooping, from_groupoid


@dataclass
class Request:
    name: str
    data: object
    items: int = 1  # work items, when known before running
    input_arrows: int = 0  # arrows entering the GL layer from outside
    hostile: bool = False
    meta: dict = field(default_factory=dict)


class InProcess:
    """A workload whose requests call the program in this process."""

    tracer = None
    reuse_checks = True  # outputs are values: an equal output is equally correct
    nominal_s = speed.NOMINAL_S
    reference_every = 1  # requests per reference run

    def reference(self) -> float:
        return speed.time_kernel()

    def warmup(self, reqs: list[Request]) -> list[Request]:
        return reqs

    def begin_trace(self, tracer, workdir: Path) -> None:
        self.tracer = tracer
        tracer.install()

    def end_trace(self) -> list:
        self.tracer.uninstall()
        self.tracer = None
        return []


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``glv ARGV`` through ``glv.cli.main`` in this process."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(argv, prog_name="glv")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# ruth-equiv: Theorem 3, representations <-> pseudo-functors


def _fiber(rng, h1, h0, extra) -> Fiber2:
    """sampling.rand_fiber_with_homology, redrawn until the differential has
    rank ``extra``: the shape sets the cost of a request, the seed still
    sets every entry."""
    while True:
        f = sampling.rand_fiber_with_homology(rng, h1, h0, extra)
        if f.dim1 == h1 + extra:
            return f


def strict_ruth(rng, g):
    """sampling.rand_ruth(style="strict") with its base fiber 2 -> 2 of
    homology (1, 1), the shape that also admits perturbation."""
    return sampling.rand_strict_ruth(rng, g, _fiber(rng, 1, 1, 1))


def sheared_ruth(rng, g):
    """sampling.rand_ruth(style="sheared") on the same base fiber shape."""
    return sampling.rand_gauge(rng, strict_ruth(rng, g))[0]


class RuthEquiv(InProcess):
    name = "ruth-equiv"

    def generate(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        els, mul, unit = cyclic_group(3)
        groupoids = [
            ("pair3", pair_groupoid(["p0", "p1", "p2"])),
            ("pair4", pair_groupoid(["p0", "p1", "p2", "p3"])),
            ("pair5", pair_groupoid(["p0", "p1", "p2", "p3", "p4"])),
            ("z3", action_groupoid(els, mul, unit, els, mul)),
        ]
        out = []
        for gname, g in groupoids:
            dims = {x: 1 + i % 2 for i, x in enumerate(g.objects)}
            reps = [
                ("double", sampling.rand_double_ruth(rng, g, dims)),
                ("sheared", sheared_ruth(rng, g)),
                ("strict-perturbed", sampling.perturb_correction(rng, strict_ruth(rng, g))[0]),
            ]
            for style, r in reps:
                out.append(
                    Request(
                        f"{gname}/{style}",
                        r,
                        input_arrows=len(g.arrows),
                        meta={"perturbed": style.endswith("perturbed")},
                    )
                )
        return out

    def run(self, req: Request):
        r = req.data
        v1 = ruth.verify_ruth(r)
        p = ruth.ruth_to_pseudofunctor(r)
        v2 = ruth.verify_pseudofunctor(p)
        return v1, v2, ruth.pseudofunctor_to_ruth(p)

    def check(self, req: Request, out) -> str | None:
        v1, v2, back = out
        if back != req.data:
            return "round trip does not return the input"
        want = checks.cocycle_failures(req.data)
        if not req.meta["perturbed"]:
            if want:
                return f"input breaks the cocycle identity at {sorted(want)[0]}"
            if v1 or v2:
                return f"valid input reported: {(v1 + v2)[0]}"
            return None
        if not want:
            return "perturbation left the cocycle identity intact"
        got1 = {v.where for v in v1 if v.law == "cocycle"}
        got2 = {v.where for v in v2 if v.law == "coherence"}
        if any(v.law != "cocycle" for v in v1) or any(v.law != "coherence" for v in v2):
            return "a law other than cocycle/coherence was reported"
        if len(v1) != len(want) or len(v2) != len(want):
            return "a site was reported more than once"
        if got1 != want:
            return f"cocycle sites {sorted(got1)} differ from {sorted(want)}"
        if got2 != want:
            return f"coherence sites {sorted(got2)} differ from {sorted(want)}"
        return None


# ---------------------------------------------------------------------------
# gl-horns: Theorems 1 and 2, horn filling in the general linear 2-groupoid

# (h1, h0, extra) per slot: homology dimensions and rank of the differential.
HORN_SHAPES = ((1, 1, 1), (1, 0, 1), (0, 1, 2))
# Two simplices per slot: the median request cost then moves less with the seed.
SIMPLICES_PER_SLOT = 2


def gl_simplex(rng: random.Random, n: int, shape) -> object:
    """sampling.sample_gl_simplex with every vertex fiber of one fixed shape.

    The steps are those of sample_gl_simplex: a spine of random
    quasi-isomorphisms, composites perturbed along random homotopies for the
    longer edges, free triangles from random 2-cells, the rest solved.
    """
    objs = [GLObject(f"p{i}", _fiber(rng, *shape)) for i in range(n + 1)]
    spine = [sampling.rand_gl_arrow(rng, objs[i], objs[i + 1]) for i in range(n)]
    edges = {}
    for j in range(1, n + 1):
        for i in range(j):
            c = spine[i]
            for t in range(i + 1, j):
                c = compose_arrows(spine[t], c)
            if j > i + 1:
                c = sampling.rand_cell_on(rng, c).target
            edges[(j, i)] = c
    return sampling.complete_to_simplex(
        nerve.GLHandle(), tuple(objs), edges, lambda f, g: sampling.rand_cell_between(rng, f, g)
    )


class GLHorns(InProcess):
    name = "gl-horns"

    def generate(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        out = []
        for n in (2, 3, 4):
            for slot, shape in enumerate(HORN_SHAPES):
                for copy in range(SIMPLICES_PER_SLOT):
                    s = gl_simplex(rng, n, shape)
                    for k in range(n + 1):
                        h = nerve.horn_of(s, k)
                        name = f"n{n}/s{slot}-{copy}/k{k}"
                        out.append(Request(name, h, input_arrows=len(h.edges), meta={"k": k, "shape": shape}))
        return out

    def run(self, req: Request):
        return nerve.fill_horn(nerve.GLHandle(), req.data)

    def check(self, req: Request, out) -> str | None:
        if nerve.horn_of(out, req.meta["k"]) != req.data:
            return "filler does not restrict to the given horn"
        bad = nerve.validate_simplex(nerve.GLHandle(), out)
        if bad:
            return f"validate_simplex reports {bad[0]}"
        bad = checks.simplex_equations(out)
        if bad:
            return f"filler fails {bad[0]}"
        return None


# ---------------------------------------------------------------------------
# nerve-table: the nerve layer over finite tables, no linear algebra


def _names(rng: random.Random, count: int) -> list[str]:
    # Seeded labels: isomorphic copies of the same tables, listed in a
    # different order for every seed.
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5))
        if name not in names:
            names.append(name)
    return names


def delooping_doc(rng: random.Random, order: int) -> str:
    els = _names(rng, order)
    mul = {(els[a], els[b]): els[(a + b) % order] for a in range(order) for b in range(order)}
    return docs.dump_document("two-category", docs.encode_two_category(delooping(els, mul, els[0])))


def pair_doc(rng: random.Random, points: int) -> str:
    g = pair_groupoid(_names(rng, points))
    return docs.dump_document("two-category", docs.encode_two_category(from_groupoid(g)))


# (label, kind, size, level).  An odd count with well separated costs, so
# the median request is always the same one (pair4-L4).
NERVE_REQUESTS = (
    ("z4-L4", "delooping", 4, 4),
    ("z16-L3", "delooping", 16, 3),
    ("z8-L3", "delooping", 8, 3),
    ("pair4-L4", "pair", 4, 4),
    ("pair3-L4", "pair", 3, 4),
)


class NerveTable(InProcess):
    name = "nerve-table"

    def generate(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        out = []
        for label, kind, size, level in NERVE_REQUESTS:
            text = delooping_doc(rng, size) if kind == "delooping" else pair_doc(rng, size)
            path = workdir / f"{label}.json"
            path.write_text(text)
            count = (lambda l, s=size: checks.delooping_count(s, l)) if kind == "delooping" else (
                lambda l, s=size: checks.pair_count(s, l)
            )
            items = sum(count(l) for l in range(level + 1))
            meta = {"level": level, "count": count, "reported": items}
            out.append(Request(label, ["nerve", str(path), "--level", str(level)], items=items, meta=meta))
        return out

    def run(self, req: Request):
        if self.tracer is None:
            return run_cli_in_process(req.data)
        with self.tracer.region("cli.verb"):
            return run_cli_in_process(req.data)

    def check(self, req: Request, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        bad = checks.nerve_report(text, req.meta["level"], req.meta["count"])
        return bad[0] if bad else None


# ---------------------------------------------------------------------------
# cli-corpus: what a CLI user waits for, one subprocess per invocation

README_SECTION = re.compile(r"^## .*\(`glv verify` exits (\d)\)")
README_ROW = re.compile(r"^\| `([^`]+\.json)` \| ([^|]+) \|")


def fixture_table(readme: Path) -> dict:
    """file -> (expected exit, law or None) from the fixture README tables."""
    table = {}
    code = None
    for line in readme.read_text().splitlines():
        m = README_SECTION.match(line)
        if m:
            code = int(m.group(1))
            continue
        m = README_ROW.match(line)
        if m and code is not None:
            law = m.group(2).strip().split(" (")[0] if code == 1 else None
            table[m.group(1)] = (code, law)
    return table


CONVERSIONS = (
    ("ruth_sheared.json", "ruth-to-functor", "functor-to-ruth"),
    ("functor.json", "functor-to-ruth", "ruth-to-functor"),
    ("morphism_ruth.json", "morphism-to-lax", "lax-to-morphism"),
    ("morphism_lax.json", "lax-to-morphism", "morphism-to-lax"),
)
FILLS = (
    ("horn_gl_20.json", 0, None),
    ("horn_gl_31.json", 0, None),
    ("horn_table_32.json", 0, None),
    ("bad_horn_tetrahedron.json", 1, "tetrahedron"),
)


def _hostile_documents(fixtures: Path) -> list[tuple[str, dict, str]]:
    """(name, document, expectation) built by mutating fixtures.

    Expectations: "law:<name>" means exit 1 whose lines name that law;
    "structural" means exit 2; "contract" means any outcome that keeps the
    exit contract (no traceback, exit 1 or 2, exit-1 lines name a law).
    """

    def load(name):
        return json.loads((fixtures / name).read_text())

    out = []
    d = load("simplex_table.json")
    hc = d["payload"]["category"]["hcompose"]
    hc[hc.index(["1", "1", "2"])] = ["1", "1", "3"]
    out.append(("simplex-hcompose-moved", d, "law:associativity"))
    d = load("simplex_table.json")
    d["payload"]["category"]["vcompose"] = []
    out.append(("simplex-vcompose-empty", d, "contract"))
    d = load("ruth_sheared.json")
    comp = d["payload"]["groupoid"]["compose"]
    del comp[next(i for i, (h, g, _) in enumerate(comp) if h != g)]
    out.append(("ruth-compose-entry-dropped", d, "contract"))
    d = load("simplex_gl.json")
    e = d["payload"]["edges"]
    e["²,0"] = e.pop("2,0")
    out.append(("edge-key-superscript", d, "structural"))
    d = load("simplex_gl.json")
    e = d["payload"]["edges"]
    e["01,0"] = e.pop("1,0")
    out.append(("edge-key-leading-zero", d, "structural"))
    d = load("ruth_sheared.json")
    rho1 = d["payload"]["rho1"]
    key = next(k for k, m in sorted(rho1.items()) if m and m[0] and m[0][0] == "1")
    rho1[key][0][0] = "1.0"
    out.append(("scalar-decimal-point", d, "structural"))
    return out


class CliCorpus:
    name = "cli-corpus"
    reuse_checks = False  # outputs include files; check every round in full
    nominal_s = speed.NOMINAL_START_S
    reference_every = 4

    def __init__(self, root: Path):
        self.fixtures = root / "tests" / "fixtures"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.trace_dir = None
        self.traced = 0

    def generate(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        fx = self.fixtures
        reqs = []

        def add(name, argv, hostile=False, **meta):
            reqs.append(Request(name, [str(a) for a in argv], hostile=hostile, meta=meta))

        table = fixture_table(fx / "README.md")
        for name in sorted(p.name for p in fx.glob("*.json")):
            if name not in table:
                raise RuntimeError(f"{name} is missing from the fixture README")
            code, law = table[name]
            add(f"verify/{name}", ["verify", fx / name], check="verify", code=code, law=law)
        for name, there, back in CONVERSIONS:
            mid, again = workdir / f"{there}.json", workdir / f"{there}-back.json"
            add(f"convert/{there}", ["convert", fx / name, "--direction", there, "--out", mid], check="code0")
            add(
                f"convert/{there}/back",
                ["convert", mid, "--direction", back, "--out", again],
                check="roundtrip",
                orig=fx / name,
                out=again,
            )
        for name, code, law in FILLS:
            out = workdir / f"filled-{name}"
            add(f"fill/{name}", ["fill", fx / name, "--out", out], check="fill", code=code, law=law, horn=fx / name, out=out)
        generated = (
            ("pair", ["--points", ",".join(_names(rng, 3))], 0),
            ("action", ["--n", "3"], 0),
            ("delooping", ["--n", "4"], 0),
            ("lines-projection", ["--lines", _lines(rng)], 1),
            ("doubling", ["--seed", 1 + rng.randrange(10**6)], 0),
        )
        for example, args, verify_code in generated:
            out = workdir / f"generated-{example}.json"
            add(f"generate/{example}", ["generate", example, *args, "--out", out], check="generate", out=out, code=verify_code)
        ruth5 = workdir / "scaled-ruth-pair5.json"
        g5 = pair_groupoid([f"p{i}" for i in range(5)])
        r5 = sheared_ruth(rng, g5)
        ruth5.write_text(docs.dump_document("ruth", docs.encode_ruth(r5)))
        add("scaled/ruth-pair5", ["verify", ruth5], check="verify", code=0, law=None)
        z8 = workdir / "scaled-z8.json"
        z8.write_text(delooping_doc(rng, 8))
        count = lambda l: checks.delooping_count(8, l)  # noqa: E731
        reported = sum(map(count, range(4)))
        add("scaled/nerve-z8-L3", ["nerve", z8, "--level", 3], check="nerve", level=3, count=count, reported=reported)
        for name, d, expect in _hostile_documents(fx):
            path = workdir / f"hostile-{name}.json"
            path.write_text(json.dumps(d, sort_keys=True, indent=2) + "\n")
            add(f"hostile/{name}", ["verify", path], hostile=True, check="hostile", expect=expect)
        return reqs

    def warmup(self, reqs: list[Request]) -> list[Request]:
        # Children keep no state between calls, so one call per verb warms
        # the byte-code cache and the page cache; a full round would add
        # twelve seconds to every set-up.
        seen, out = set(), []
        for r in reqs:
            if r.data[0] not in seen and not r.hostile:
                seen.add(r.data[0])
                out.append(r)
        return out

    def begin_trace(self, tracer, workdir: Path) -> None:
        self.trace_dir = workdir / "child-traces"
        self.trace_dir.mkdir(exist_ok=True)

    def end_trace(self) -> list:
        """(aggregate, spans) written by each traced child of the round."""
        parts = []
        for path in sorted(self.trace_dir.glob("*.json")):
            data = json.loads(path.read_text())
            parts.append((data["aggregate"], data["spans"]))
            path.unlink()
        self.trace_dir = None
        return parts

    def reference(self) -> float:
        return speed.time_start(self.env)

    def run(self, req: Request):
        if self.trace_dir is None:
            argv, env = ["-m", "glv.cli"], self.env
        else:
            self.traced += 1
            out = self.trace_dir / f"{self.traced:06d}.json"
            argv = [str(Path(__file__).resolve().parent / "glv_entry.py")]
            env = dict(self.env, GLVBENCH_TRACE_OUT=str(out), GLVBENCH_REQUEST=req.name)
        p = subprocess.run(
            [sys.executable, *argv, *req.data], capture_output=True, text=True, env=env, timeout=120
        )
        return p.returncode, p.stdout + p.stderr

    def check(self, req: Request, out) -> str | None:
        code, text = out
        kind = req.meta["check"]
        if kind == "hostile":
            return _hostile_verdict(req.meta["expect"], code, text)
        bad = checks.exit_contract(code, text)
        if bad:
            return bad
        if kind == "verify":
            return _verify_verdict(req.meta["code"], req.meta["law"], code, text)
        if kind == "code0":
            return None if code == 0 else f"exit {code}"
        if kind == "roundtrip":
            if code != 0:
                return f"exit {code}"
            if req.meta["out"].read_bytes() != req.meta["orig"].read_bytes():
                return "converting there and back changed the bytes"
            return None
        if kind == "fill":
            if code != req.meta["code"]:
                return f"exit {code}, expected {req.meta['code']}"
            if code == 1:
                return None if req.meta["law"] in checks.law_lines(text) else "exit 1 names the wrong law"
            return _filled_verdict(req.meta["horn"], req.meta["out"])
        if kind == "generate":
            if code != 0:
                return f"exit {code}"
            vcode, vtext = run_cli_in_process(["verify", str(req.meta["out"])])
            if vcode != req.meta["code"]:
                return f"generated document verifies with exit {vcode}"
            if vcode == 1 and "composition homotopy" not in (checks.law_lines(vtext) or []):
                return "lines-projection is not rejected for its composition homotopy"
            return None
        if kind == "nerve":
            if code != 0:
                return f"exit {code}"
            bad = checks.nerve_report(text, req.meta["level"], req.meta["count"])
            return bad[0] if bad else None
        raise ValueError(kind)


def _lines(rng: random.Random) -> str:
    # Three pairwise independent, pairwise non-orthogonal plane vectors.
    while True:
        vs = [(rng.randint(1, 4), rng.randint(-3, 3)) for _ in range(3)]
        ok = all(
            a[0] * b[1] != a[1] * b[0] and a[0] * b[0] + a[1] * b[1] != 0
            for i, a in enumerate(vs)
            for b in vs[i + 1 :]
        )
        if ok:
            return ";".join(f"{x},{y}" for x, y in vs)


def _verify_verdict(want: int, law, code: int, text: str) -> str | None:
    if code != want:
        return f"exit {code}, expected {want}"
    if code == 0 and not re.fullmatch(r"ok: [a-z-]+\n", text):
        return f"unexpected output {text[:80]!r}"
    if code == 1 and law not in checks.law_lines(text):
        return f"exit 1 does not name {law}"
    return None


def _filled_verdict(horn_path: Path, out_path: Path) -> str | None:
    vcode, vtext = run_cli_in_process(["verify", str(out_path)])
    if vcode != 0:
        return f"filled simplex verifies with exit {vcode}: {vtext[:80]!r}"
    _, horn_payload = docs.load_document(horn_path.read_text())
    _, simplex_payload = docs.load_document(out_path.read_text())
    _, horn, _ = docs.decode_horn(horn_payload)
    _, simplex, _ = docs.decode_simplex(simplex_payload)
    if nerve.horn_of(simplex, horn.k) != horn:
        return "filled simplex does not restrict to the horn"
    return None


def _hostile_verdict(expect: str, code: int, text: str) -> str | None:
    bad = checks.exit_contract(code, text)
    if bad:
        return bad
    if expect == "contract":
        return None if code in (1, 2) else f"exit {code}"
    if expect == "structural":
        return None if code == 2 else f"exit {code}, expected 2"
    law = expect.split(":", 1)[1]
    if code != 1:
        return f"exit {code}, expected 1 naming {law}"
    return None if law in checks.law_lines(text) else f"exit 1 does not name {law}"


WORKLOADS = {w.name: w for w in (RuthEquiv, GLHorns, NerveTable, CliCorpus)}
