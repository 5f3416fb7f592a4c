"""Benchmark for glv: one workload, one seed, checked outputs, one JSON line.

    python3 glvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory and the CLI runs as ``python -m glv.cli``.

With ``--trace 0`` the last line of output reports the end-to-end metrics
items_per_s, latency_p50_ms, peak_rss_mb and setup_s.  With ``--trace 1`` it
reports the per-layer metrics of a traced run instead.  See README.md.

The script plays two roles.  As the coordinator (the default) it starts
worker processes of itself one at a time: ``SETUPS - 1`` workers that only
set up, then one that sets up and measures.  The time from starting a
worker to its ``READY`` line is one set-up sample, interpreter start
included; setup_s is their median.  The measuring worker is the single
process doing the work; it uses no threads.

Every time reported is scaled to nominal machine speed with the reference
work of ``speed.py``: the coordinator and the worker time the reference
kernel around the set-up, and a round runs the workload's reference once
before each request.  The raw times
are printed on the lines before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
DEADLINE_S = 170
WORKLOAD_NAMES = ("ruth-equiv", "gl-horns", "nerve-table", "cli-corpus")
REQUIRED = ("src/glv/cli.py", "tests/fixtures/README.md")


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("coordinator", "setup", "measure"), default="coordinator")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# coordinator


class WorkerError(Exception):
    pass


def spawn_worker(args, role: str, deadline: float) -> tuple[float, list[float], list[str]]:
    """Run one worker; return (seconds until READY, the numbers on the READY
    line, its stdout lines after READY)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Hash order follows the seed, so a traced run repeats its counts exactly.
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    t0 = time.perf_counter()
    # Own process group: on a timeout the worker's CLI children die with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT, start_new_session=True)
    ready_at = None
    ready: list[float] = []
    lines: list[str] = []
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(timeout=left):
                raise WorkerError(f"{role} worker did not finish in time")
            line = proc.stdout.readline()
            if not line:
                break
            if ready_at is None and line.startswith("READY"):
                ready_at = time.perf_counter()
                ready = [float(x) for x in line.split()[1:]]
            elif ready_at is not None:
                lines.append(line.rstrip("\n"))
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        sel.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise WorkerError(f"{role} worker exited with {code}")
    return ready_at - t0, ready, lines


def coordinate(args) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a checkout of glv", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    samples, raw = [], []

    def spawn(role):
        # The kernel is timed here just before the worker starts, and by the
        # worker after its imports and after its warm-up round; the set-up
        # is scaled by the mean of the coordinator's and the worker's median.
        ref = speed.reference_s()
        took, (worker_ref, ref_s), lines = spawn_worker(args, role, deadline)
        took -= ref_s
        raw.append(took)
        samples.append(speed.scale(took, (ref + worker_ref) / 2))
        return lines

    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                spawn("setup")
        lines = spawn("measure")
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not lines:
        print("error: the measuring worker printed no result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        print(
            f"setup samples (s): {' '.join(f'{s:.3f}' for s in samples)} "
            f"(raw {' '.join(f'{s:.3f}' for s in raw)})"
        )
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# worker


def median_ms(values) -> float:
    return statistics.median(values) * 1000


def work(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import workloads  # imports glv

    import_s = time.perf_counter() - t0
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _work(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_round(wl, reqs, latencies=None, round_id=0, tracer=None):
    """Run every request once; before every ``wl.reference_every``-th, the
    workload's reference.

    Returns (time spent in requests, outputs, reference times).
    ``latencies[i]`` collects request i's times, scaled to nominal speed.
    """
    outs, refs, took = [], [], []
    for i, req in enumerate(reqs):
        if i % wl.reference_every == 0:
            refs.append(wl.reference())
        if tracer is not None:
            tracer.request = f"{round_id}:{i}"
        t = time.perf_counter()
        try:
            out = wl.run(req)
        except Exception as e:  # a crash is an output the checks judge
            out = e
        took.append(time.perf_counter() - t)
        outs.append(out)
    ref = statistics.median(refs)
    if latencies is not None:
        for lat, dt in zip(latencies, took):
            lat.append(speed.scale(dt, ref, wl.nominal_s))
    return sum(took), outs, refs


def p90(xs) -> float:
    """90th percentile, interpolated between the observed values."""
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=10, method="inclusive")[8]


def judge(wl, reqs, outs, failures: dict, wrong: list, passed: dict) -> int:
    """Check one round; return the number of failed operations.

    ``passed`` maps a request index to an output that passed the full check;
    an equal output later passes without repeating it.
    """
    failed = 0
    for i, (req, out) in enumerate(zip(reqs, outs)):
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        elif i in passed and wl.reuse_checks and out == passed[i]:
            problem = None
        else:
            problem = wl.check(req, out)
            if problem is None:
                passed[i] = out
        if problem is None:
            continue
        if req.hostile:
            failed += 1
            failures[req.name] = problem
        else:
            wrong.append(f"{req.name}: {problem}")
    return failed


def _work(args, import_s: float, workdir: Path) -> int:
    import workloads
    from tracer import Tracer, merge

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(ROOT) if cls is workloads.CliCorpus else cls()
    # The kernel is timed after the imports and after the warm-up round.
    # Reference runs are not set-up, so the coordinator subtracts their time.
    kernel = [speed.time_kernel() for _ in range(7)]
    t0 = time.perf_counter()
    reqs = wl.generate(args.seed, workdir)
    generate_s = time.perf_counter() - t0
    warm = wl.warmup(reqs)
    _, warm_outs, refs = run_round(wl, warm)
    kernel += [speed.time_kernel() for _ in range(7)]
    ref_s = sum(kernel) + sum(refs)
    print(f"READY {statistics.median(kernel)!r} {ref_s!r}", flush=True)
    if args.role == "setup":
        return 0

    failures: dict = {}
    wrong: list = []
    passed: dict = {}
    judge(wl, warm, warm_outs, {}, wrong, passed if warm is reqs else {})
    items = sum(r.items for r in reqs)
    attempted = failed = 0
    rounds: list[float] = []  # scaled to nominal speed
    traced_rounds: list[float] = []
    raw_rounds: list[float] = []
    latencies: list[list[float]] = [[] for _ in reqs]
    tracer = Tracer() if args.trace else None
    child_spans: list = []
    aggregate: dict = {}
    timed = 0.0
    while timed < args.seconds or not rounds or (tracer and not traced_rounds):
        # A traced run alternates untraced and traced rounds; the untraced
        # ones give the baseline for the tracing overhead.
        traced = tracer is not None and len(rounds) > len(traced_rounds)
        if traced:
            wl.begin_trace(tracer, workdir)
        try:
            dt, outs, refs = run_round(
                wl, reqs, None if traced else latencies, len(rounds) + len(traced_rounds), tracer if traced else None
            )
        finally:
            parts = wl.end_trace() if traced else []
        for part, spans in parts:
            merge(aggregate, part)
            child_spans.extend(spans)
        timed += dt
        (traced_rounds if traced else rounds).append(speed.scale(dt, statistics.median(refs), wl.nominal_s))
        if not traced:
            raw_rounds.append(dt)
        attempted += len(reqs)
        failed += judge(wl, reqs, outs, failures, wrong, passed)

    print(f"rounds (ms): {' '.join(f'{r * 1000:.0f}' for r in rounds)}")
    print(f"raw rounds (ms): {' '.join(f'{r * 1000:.0f}' for r in raw_rounds)}")
    for name, problem in sorted(failures.items()):
        print(f"failed: {name}: {problem}")
    for line in wrong[:20]:
        print(f"wrong: {line}")
    pooled = sorted(x * 1000 for lat in latencies for x in lat)
    request_p50s = [statistics.median(lat) * 1000 for lat in latencies]
    # A percentile is a tail only with ten samples beyond it.
    tail = f"pooled request p90 {p90(pooled):.2f} ms" if len(pooled) >= 100 else "no pooled tail"
    print(
        f"{args.workload}: {len(reqs)} requests, {items} items per round; "
        f"{len(rounds)} timed rounds: median {median_ms(rounds):.1f} ms, "
        f"min {min(rounds) * 1000:.1f} ms, raw median {median_ms(raw_rounds):.1f} ms; "
        f"median request {statistics.median(request_p50s):.2f} ms; {tail} ({len(pooled)} samples)"
    )
    result = {"correct": not wrong, "attempted": attempted, "failed": failed}
    if not args.trace:
        who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCorpus) else resource.RUSAGE_SELF
        result["metrics"] = {
            "items_per_s": {"value": items / statistics.median(rounds), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(request_p50s), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
        }
    else:
        merge(aggregate, tracer.aggregate())
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.spans.extend(tuple(s) for s in child_spans)
        tracer.write_spans(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print(
            f"traced rounds: {len(traced_rounds)}, median {median_ms(traced_rounds):.1f} ms; "
            f"untraced rounds: {len(rounds)}, median {median_ms(rounds):.1f} ms"
        )
        result["metrics"] = layer_metrics(
            aggregate, len(traced_rounds), reqs, items, rounds, traced_rounds, import_s, generate_s
        )
    print(json.dumps(result))
    return 0


def layer_metrics(agg, n, reqs, items, rounds, traced_rounds, import_s, generate_s) -> dict:
    """Per-layer metrics per traced round, from the merged aggregate."""
    calls = agg.get("calls", {})
    self_s = agg.get("self_s", {})
    counts = agg.get("counts", {})
    edges = agg.get("edges", {})

    def per_round(x):
        x = x / n
        return int(x) if x == int(x) else x

    def c(name):
        return per_round(calls.get(name, 0))

    def ms(*names):
        return sum(self_s.get(x, 0.0) for x in names) * 1000 / n

    def k(name):
        return per_round(counts.get(name, 0))

    invocations = c("cli.verb")
    reported = sum(r.meta.get("reported", 0) for r in reqs)
    arrow_checks = c("gl2.arrow_check")
    input_arrows = sum(r.input_arrows for r in reqs) + per_round(edges.get("documents.decode<gl2.arrow_check", 0))
    import_ms = ms("cli.import") / invocations if calls.get("cli.import") else import_s * 1000
    m = {
        "linalg.rank.calls": (c("linalg.rank"), "count"),
        "linalg.rank.self_ms": (ms("linalg.rank"), "ms"),
        "linalg.matmul.calls": (c("linalg.matmul"), "count"),
        "linalg.matmul.self_ms": (ms("linalg.matmul"), "ms"),
        "linalg.fraction_new": (k("linalg.fraction_new"), "count"),
        "linalg.solve.calls": (c("linalg.solve"), "count"),
        "linalg.solve.self_ms": (ms("linalg.solve"), "ms"),
        "chain2.is_quasi_iso.calls": (c("chain2.is_quasi_iso"), "count"),
        "chain2.is_quasi_iso.self_ms": (ms("chain2.is_quasi_iso"), "ms"),
        "chain2.checked_ctor.calls": (c("chain2.checked_ctor"), "count"),
        "chain2.checked_ctor.self_ms": (ms("chain2.checked_ctor"), "ms"),
        "gl2.arrow_check.calls": (arrow_checks, "count"),
        "gl2.cell_check.calls": (c("gl2.cell_check"), "count"),
        "gl2.check.self_ms": (ms("gl2.arrow_check", "gl2.cell_check"), "ms"),
        "gl2.input_arrows_per_check": (input_arrows / arrow_checks if arrow_checks else 0, "ratio"),
        "gl2.compose_arrows.calls": (c("gl2.compose_arrows"), "count"),
        "gl2.compose_arrows.self_ms": (ms("gl2.compose_arrows"), "ms"),
        "gl2.whisker.calls": (c("gl2.whisker"), "count"),
        "gl2.whisker.self_ms": (ms("gl2.whisker"), "ms"),
        "gl2.quasi_inverse.calls": (c("gl2.quasi_inverse"), "count"),
        "gl2.quasi_inverse.self_ms": (ms("gl2.quasi_inverse"), "ms"),
        "groupoid.composable_triples.self_ms": (ms("groupoid.composable_triples"), "ms"),
        "groupoid.triples_yielded": (k("groupoid.triples_yielded"), "count"),
        "ruth.verify_ruth.self_ms": (ms("ruth.verify_ruth"), "ms"),
        "ruth.verify_pseudofunctor.self_ms": (ms("ruth.verify_pseudofunctor"), "ms"),
        "ruth.to_pseudofunctor.self_ms": (ms("ruth.to_pseudofunctor"), "ms"),
        "ruth.to_ruth.self_ms": (ms("ruth.to_ruth"), "ms"),
        "twocat.verify.self_ms": (ms("twocat.verify"), "ms"),
        "twocat.table_ops.calls": (k("twocat.table_ops.calls"), "count"),
        "twocat.find_quasi_inverse.calls": (k("twocat.find_quasi_inverse.calls"), "count"),
        "nerve.enumerate.self_ms": (ms("nerve.enumerate"), "ms"),
        "nerve.reconstruct_stage.calls": (c("nerve.reconstruct_stage"), "count"),
        "nerve.reconstruct_stage.self_ms": (ms("nerve.reconstruct_stage"), "ms"),
        "nerve.validate_simplex.calls": (c("nerve.validate_simplex"), "count"),
        "nerve.validate_simplex.self_ms": (ms("nerve.validate_simplex"), "ms"),
        "nerve.tetrahedra_checked": (k("nerve.tetrahedra_checked"), "count"),
        "nerve.label_maps_built": (k("nerve.label_maps_built"), "count"),
        "nerve.simplices_built_per_reported": (k("nerve.simplices_built") / reported if reported else 0, "ratio"),
        "nerve.validations_per_simplex": (c("nerve.validate_simplex") / reported if reported else 0, "ratio"),
        "nerve.fill_horn.calls": (c("nerve.fill_horn"), "count"),
        "nerve.fill_horn.self_ms": (ms("nerve.fill_horn"), "ms"),
        "laxmaps.verify_lax_transformation.self_ms": (ms("laxmaps.verify_lax_transformation"), "ms"),
        "documents.decode.self_ms": (ms("documents.decode"), "ms"),
        "documents.encode.self_ms": (ms("documents.encode"), "ms"),
        "documents.bytes_in": (k("documents.bytes_in"), "bytes"),
        "documents.bytes_out": (k("documents.bytes_out"), "bytes"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.verb.self_ms": (ms("cli.verb"), "ms"),
        "cli.invocations": (invocations, "count"),
        "sampling.generate_s": (generate_s, "s"),
        "trace.items_per_s": (items / statistics.median(traced_rounds), "1/s"),
        "trace.overhead_pct": ((statistics.median(traced_rounds) / statistics.median(rounds) - 1) * 100, "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse(argv)
    if args.role == "coordinator":
        return coordinate(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
