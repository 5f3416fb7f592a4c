"""Paired benchmark runs of two commits, written as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent REV [--change REV] \\
        --workload gl-horns:91-100 --workload nerve-table:91-93 \\
        [--claim gl-horns:items_per_s] --out BENCH_21.json

Both commits are extracted with ``git archive`` into a temporary directory
(under ``$TMPDIR`` when set), and the command of ``BENCHMARK.json`` runs in
each with ``--workload W --seed N --seconds S --trace 0``, S being its
``run_seconds``.  Each seed is one pair: the parent and the change
run one after the other, and the side that runs first alternates from pair
to pair.  A run's values are the end-to-end metrics on the last line it
prints.  The summary gives, per metric, the median and the quartiles
(``statistics.quantiles(n=4)``; with fewer than four pairs the lowest and
highest run) of each side, the ratio of the medians, the parent's quartile
distance and how many pairs the change wins.  With ``--claim`` the file
also says whether the claimed metric meets the rule: the change wins at
least 9 of 10 pairs, and the gap between the medians exceeds the parent's
quartile distance.

The output file is rewritten after every pair, so a cut run keeps the pairs
it finished.  Its ``change`` and ``notes`` fields are left for a person to
fill in.  To measure uncommitted work, pass ``--change $(git stash create)``
after ``git add`` of any new file.  Standard library only; the benchmark is
run as a command and nothing of it is imported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
METHOD = (
    "Each pair runs the parent and the change on the same seed, one after the other, "
    "alternating which side runs first ('first'). Both sides run from git archive copies "
    "of their commits; values are the end-to-end metrics on the last line of the run. "
    "Quartiles are statistics.quantiles(n=4) (exclusive method) over the pairs; with "
    "fewer than four pairs q1 and q3 are the lowest and highest run."
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, into: Path) -> Path:
    data = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter exists from Python 3.10.12, 3.11.4 and 3.12
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def arguments(workload: str, seed, seconds: float) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(copy: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    cmd = [*command, *arguments(workload, seed, seconds)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {copy} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    return {**values, **{key: result[key] for key in ("correct", "attempted", "failed")}}


def spread(xs: list) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) >= 4 else (min(xs), None, max(xs))
    return {"median": round(statistics.median(xs), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(pairs: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        by_side = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: spread(by_side[side]) for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(by_side["parent"], by_side["change"]))
        out[name] = {
            "better": better,
            **stats,
            "change_over_parent": round(stats["change"]["median"] / stats["parent"]["median"], 3),
            "parent_quartile_distance": round(stats["parent"]["q3"] - stats["parent"]["q1"], 4),
            "change_wins": f"{wins} of {len(pairs)}",
        }
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["correct"] = {side: all(p[side]["correct"] for p in pairs) for side in SIDES}
    return out


def claim_result(m: dict) -> str:
    """Whether one metric's summary meets the claim rule, with its figures."""
    wins, _, pairs = m["change_wins"].split()
    gap = (1 if m["better"] == "higher" else -1) * (m["change"]["median"] - m["parent"]["median"])
    met = int(wins) >= 0.9 * int(pairs) and gap > m["parent_quartile_distance"]
    return (
        f"{'met' if met else 'not met'}: the change wins {wins} of {pairs} pairs, median gap "
        f"{gap:.4g} against the parent's quartile distance {m['parent_quartile_distance']:.4g}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit measured against")
    p.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    p.add_argument(
        "--workload", action="append", required=True, metavar="NAME:SEEDS",
        help="a workload and its seeds, as 91-100 or 91,93; repeat for more workloads",
    )
    p.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    commits = {side: git("rev-parse", getattr(args, side)).decode().strip() for side in SIDES}
    doc = {
        "change": "",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}",
        "method": METHOD,
        "notes": [],
        "workloads": {},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {
            "metric": metric,
            "workload": workload,
            "rule": "change wins at least 9 of 10 pairs, and the median gap exceeds the parent's quartile distance",
        }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: extract(commits[side], Path(tmp) / side) for side in SIDES}
        for spec in args.workload:
            workload, seeds = spec.split(":")
            command = " ".join([*bench["command"], *arguments(workload, "N", seconds)])
            entry = doc["workloads"][workload] = {"command": command, "seeds": seeds_of(seeds), "pairs": []}
            for i, seed in enumerate(entry["seeds"]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(copies[side], bench["command"], workload, seed, seconds)
                entry["pairs"].append(pair)
                entry["summary"] = summarise(entry["pairs"], bench["end_to_end"])
                if args.claim and doc["claim"]["workload"] == workload:
                    doc["claim"]["result"] = claim_result(entry["summary"][doc["claim"]["metric"]])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['items_per_s']:.1f}" for side in SIDES), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
