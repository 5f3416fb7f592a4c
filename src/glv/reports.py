"""Violation records, the one error that carries them, and the gating and
totality policies every verifier shares."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Violation:
    """A named law together with the site where it fails."""

    law: str
    where: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        loc = f" at {self.where}" if self.where else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.law} fails{loc}{extra}"


class LawError(ValueError):
    """Laws that fail while data is built, one line per Violation, each
    prefixed by path for the violations of an embedded structure."""

    def __init__(self, violations: Iterable[Violation], path: str = ""):
        self.violations = list(violations)
        super().__init__("\n".join(f"{path}: {v}" if path else str(v) for v in self.violations))

    def at(self, where: tuple) -> LawError:
        """The same failures at the site a decoder was building."""
        return LawError(replace(v, where=where) for v in self.violations)


def require(violations: list[Violation], path: str = "") -> None:
    if violations:
        raise LawError(violations, path)


def gate(*stages: Iterable[Violation]) -> list[Violation]:
    """The violations of the first stage that has any.  Stages are lazy,
    usually generators: one runs only when every earlier one passed, so it
    may rely on what they checked."""
    for stage in stages:
        out = list(stage)
        if out:
            return out
    return []


def missing(*tables: tuple) -> Iterator[Violation]:
    """A totality violation for each key absent from its table, given as
    (keys, table, detail); a name is reported at the site (key,)."""
    for keys, table, detail in tables:
        for key in keys:
            if key not in table:
                yield Violation("totality", key if isinstance(key, tuple) else (key,), detail)
