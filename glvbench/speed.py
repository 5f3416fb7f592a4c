"""Fixed reference work that measures how fast the machine runs right now.

On a shared host the same batch of glv calls can run up to 1.8 times
faster for seconds or minutes, then slow down again: the CPU time of the
process moves with the wall time, so the cause is contention on the host,
not the scheduler of the guest.  The benchmark runs this kernel next to the
program's requests and scales every time it reports to a machine on which
one kernel call takes ``NOMINAL_S``.  The program's own speed then shows in
full, and the host's changing speed cancels.

The CLI workload spends its time starting interpreters, which the host's
state slows by other amounts than interpreted arithmetic; its reference is
the start of an interpreter that runs nothing (``time_start``).

The kernel is pure Python and independent of glv and of the seed: rational
5x5 matrix products with numerators and denominators kept as reduced int
pairs (the kind of interpreted arithmetic glv spends its time on), and dict
updates.  It uses no ``Fraction``, so the tracer's ``Fraction`` counter does
not see it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from math import gcd

# Median time of one kernel call, and of one ``python -c pass``, on the
# reference machine (see README.md).
NOMINAL_S = 0.003
NOMINAL_START_S = 0.07

_N = 5
_MATRIX = tuple(
    tuple(((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(_N)) for i in range(_N)
)


def _add(x, y):
    n, d = x[0] * y[1] + y[0] * x[1], x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def _mul(x, y):
    n, d = x[0] * y[0], x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def kernel():
    """One fixed unit of work; returns its result so that it is not dead code."""
    a = _MATRIX
    m = a
    for _ in range(12):
        rows = []
        for i in range(_N):
            row = []
            for j in range(_N):
                acc = (0, 1)
                for t in range(_N):
                    acc = _add(acc, _mul(m[i][t], a[t][j]))
                # Keep entries small: the work per call stays fixed.
                row.append((acc[0] % 1009, acc[1] % 1013 + 1))
            rows.append(row)
        m = rows
    counts: dict = {}
    for i in range(5000):
        key = (i * 7) % 97
        counts[key] = counts.get(key, 0) + i
    return m, counts


def time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def time_start(env=None) -> float:
    """Time to start an interpreter that runs nothing, and wait for it.

    No timeout: with one, ``subprocess`` polls for the child's exit at
    intervals of up to 50 ms, which would quantize the time.  A hung child
    dies with the worker's process group at the coordinator's deadline.
    """
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t


def reference_s(calls: int = 7) -> float:
    """Median time of ``calls`` kernel calls made now."""
    return statistics.median(time_kernel() for _ in range(calls))


def scale(seconds: float, ref_s: float, nominal_s: float = NOMINAL_S) -> float:
    """``seconds`` measured while the reference took ``ref_s``, at nominal speed."""
    return seconds * nominal_s / ref_s
