"""Output checks that do not trust the program.

Each check recomputes what it needs from the data itself with a few lines
of ``Fraction`` arithmetic, or tests a closed form or a property every
correct answer has.  Nothing here compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


def mat(m) -> list[list[Fraction]]:
    """Rows of a RatMatrix-like value (rows, cols, entries) as lists."""
    return [list(m.entries[i * m.cols : (i + 1) * m.cols]) for i in range(m.rows)]


def product(m1, m2) -> list[list[Fraction]]:
    """m1 @ m2 for RatMatrix-like operands, computed here."""
    if m1.cols != m2.rows:
        raise ValueError("shape mismatch")
    a, b = mat(m1), mat(m2)
    return [
        [sum((a[i][t] * b[t][j] for t in range(m1.cols)), Fraction(0)) for j in range(m2.cols)]
        for i in range(m1.rows)
    ]


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def cocycle_failures(r) -> set:
    """Triples (k, h, a) where rho1(k) g(h,a) + g(k,ha) != g(k,h) rho0(a) + g(kh,a).

    Composable triples are enumerated from the groupoid's own tables: the
    arrow endpoints and the composition dictionary.
    """
    g = r.groupoid
    src = {a: s for a, (s, _) in g.arrows.items()}
    tgt = {a: t for a, (_, t) in g.arrows.items()}
    bad = set()
    for k in g.arrows:
        for h in g.arrows:
            if src[k] != tgt[h]:
                continue
            for a in g.arrows:
                if src[h] != tgt[a]:
                    continue
                kh, ha = g.comp[(k, h)], g.comp[(h, a)]
                lhs = add(product(r.rho1[k], r.gamma[(h, a)]), mat(r.gamma[(k, ha)]))
                rhs = add(product(r.gamma[(k, h)], r.rho0[a]), mat(r.gamma[(kh, a)]))
                if lhs != rhs:
                    bad.add((k, h, a))
    return bad


def simplex_equations(s) -> list[str]:
    """Re-check a GL simplex: chain maps, triangle homotopies, tetrahedra.

    Edge (j, i) carries a chain map (a1, a0) from fiber i to fiber j.  The
    triangle (k, j, i) carries R with

        R d_i = a1(k,i) - a1(k,j) a1(j,i)      d_k R = a0(k,i) - a0(k,j) a0(j,i)

    and every 4-vertex face (l, k, j, i) satisfies

        a1(l,k) R(k,j,i) + R(l,k,i) = R(l,k,j) a0(j,i) + R(l,j,i).
    """
    out = []
    fib = [v.fiber for v in s.vertices]
    edges = dict(s.edges)
    tris = dict(s.triangles)
    n = len(fib) - 1
    for (j, i), f in edges.items():
        if f.src.fiber != fib[i] or f.dst.fiber != fib[j]:
            out.append(f"edge {(j, i)} endpoints")
        elif product(f.a0, fib[i].d) != product(fib[j].d, f.a1):
            out.append(f"edge {(j, i)} chain condition")
    if out:
        return out
    for (k, j, i), cell in tris.items():
        kj, ji, ki = edges[(k, j)], edges[(j, i)], edges[(k, i)]
        if product(cell.r, fib[i].d) != sub(mat(ki.a1), product(kj.a1, ji.a1)):
            out.append(f"triangle {(k, j, i)} homotopy in degree 1")
        if product(fib[k].d, cell.r) != sub(mat(ki.a0), product(kj.a0, ji.a0)):
            out.append(f"triangle {(k, j, i)} homotopy in degree 0")
    for l in range(n, -1, -1):
        for k in range(l - 1, -1, -1):
            for j in range(k - 1, -1, -1):
                for i in range(j - 1, -1, -1):
                    lhs = add(product(edges[(l, k)].a1, tris[(k, j, i)].r), mat(tris[(l, k, i)].r))
                    rhs = add(product(tris[(l, k, j)].r, edges[(j, i)].a0), mat(tris[(l, j, i)].r))
                    if lhs != rhs:
                        out.append(f"tetrahedron {(l, k, j, i)}")
    return out


def delooping_count(order: int, level: int) -> int:
    """Simplices of the nerve of the delooping of an abelian group of this order."""
    return order ** comb(level, 2)


def pair_count(points: int, level: int) -> int:
    """Simplices of the nerve of the pair groupoid (identity 2-cells only)."""
    return points ** (level + 1)


LEVEL_LINE = re.compile(r"^level (\d+): (\d+) simplices$")


def nerve_report(text: str, level: int, count) -> list[str]:
    """Check `glv nerve` output: one line per level 0..level with count(l)."""
    lines = text.splitlines()
    if len(lines) != level + 1:
        return [f"expected {level + 1} lines, found {len(lines)}"]
    out = []
    for want, line in enumerate(lines):
        m = LEVEL_LINE.match(line)
        if not m or int(m.group(1)) != want:
            out.append(f"unexpected line {line!r}")
        elif int(m.group(2)) != count(want):
            out.append(f"level {want}: {m.group(2)} simplices, closed form {count(want)}")
    return out


def reported_simplices(text: str) -> int:
    return sum(int(m.group(2)) for m in map(LEVEL_LINE.match, text.splitlines()) if m)


def law_lines(text: str) -> list[str] | None:
    """The law named by each line of an exit-1 output, or None if a line names none.

    A line reads ``<law> fails ...``; a context prefix ending in ": " may
    precede the law, as in ``no filler: ...: tetrahedron fails at (3, 2, 1, 0)``.
    """
    laws = []
    for line in text.splitlines():
        head, sep, _ = line.partition(" fails")
        law = head.rpartition(": ")[2].strip()
        if not sep or not law:
            return None
        laws.append(law)
    return laws or None


def exit_contract(code: int, out: str) -> str | None:
    """The CLI contract: no traceback, exit in {0, 1, 2}, exit-1 lines name a law."""
    if "Traceback" in out:
        return "output contains a traceback"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 1 and law_lines(out) is None:
        return "exit 1 with a line that names no law"
    return None
