"""Regenerate verdicts.txt: what glv prints for every document in the corpus.

Run from the repository root:

    python3 tests/fixtures/make_verdicts.py

`glv verify` runs on every fixture, `glv convert` on the four convertible
ones, `glv nerve --level 4` on the three two-category documents and `glv fill`
on the four horns, in process; each run is recorded with its exit code,
stdout and stderr.
tests/test_fixtures.py compares the committed file with a fresh run, so any
change to the bytes glv prints for the corpus shows there.
"""

from __future__ import annotations

from pathlib import Path

from click.testing import CliRunner

from glv.cli import main as glv

HERE = Path(__file__).resolve().parent
VERDICTS = HERE / "verdicts.txt"

CONVERSIONS = (
    ("ruth_sheared.json", "ruth-to-functor"),
    ("functor.json", "functor-to-ruth"),
    ("morphism_ruth.json", "morphism-to-lax"),
    ("morphism_lax.json", "lax-to-morphism"),
)
TWO_CATEGORIES = (
    "two_category_pair.json",
    "two_category_delooping_z4.json",
    "bad_two_category_interchange.json",
)
HORNS = ("horn_gl_20.json", "horn_gl_31.json", "horn_table_32.json", "bad_horn_tetrahedron.json")


def runs() -> list[list[str]]:
    """The argument lists, fixture names relative to this directory."""
    argvs = [["verify", p.name] for p in sorted(HERE.glob("*.json"))]
    argvs += [["convert", name, "--direction", d] for name, d in CONVERSIONS]
    argvs += [["nerve", name, "--level", "4"] for name in TWO_CATEGORIES]
    argvs += [["fill", name] for name in HORNS]
    return argvs


def verdicts() -> str:
    """Each run as `$ glv <args>`, its exit code, then its stdout and stderr."""
    parts = []
    for argv in runs():
        verb, name, *rest = argv
        result = CliRunner().invoke(glv, [verb, str(HERE / name), *rest])
        parts.append(
            f"$ glv {' '.join(argv)}\nexit {result.exit_code}\n"
            f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}"
        )
    return "".join(parts)


def main(out: Path = VERDICTS) -> None:
    out.write_text(verdicts())
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main()
