"""Fixed pure-Python reference kernel used to normalise job timings.

The kernel mixes the kinds of work braidhom spends its time on: tuple
composition and set churn, sparse elimination over F_p on dict rows, dense
elimination over Q with `Fraction`, and dict churn.  It never imports
braidhom, so its cost does not move when the program changes.  On a shared
machine the speed of a core changes from one tenth of a second to the next,
so the job process times the kernel before the job, after it, and every
`INTERVAL` seconds during it (from a timer signal), and the job time is
divided by the mean kernel time (wall time by wall time, CPU time by CPU
time).  Job times normalised this way are far steadier than raw times.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REPS = 10  # kernel runs before and after the job
INTERVAL = 0.1  # seconds between kernel runs during the job

_PERM_GENS = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))


def _closure() -> int:
    """Breadth-first closure of S_5 from two generators, composing tuples."""
    e = tuple(range(5))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in _PERM_GENS:
                y = tuple(x[g[i]] for i in range(5))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(frozenset(seen))


def _sparse_rank(size: int = 60, p: int = 7) -> int:
    """Rank over F_p of a fixed sparse matrix stored as {column: value} rows."""
    rows = []
    x = 12345
    for _ in range(size):
        row = {}
        for _ in range(4):
            x = (x * 1103515245 + 12345) % 2147483648
            row[x % size] = x % (p - 1) + 1
        rows.append(row)
    rank = 0
    while rows:
        pc = min(j for r in rows for j in r)
        prow = next(r for r in rows if pc in r)
        rows.remove(prow)
        inv = pow(prow[pc], -1, p)
        rank += 1
        nxt = []
        for r in rows:
            a = r.get(pc)
            if a is not None:
                f = a * inv % p
                for j, v in prow.items():
                    nv = (r.get(j, 0) - f * v) % p
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
            if r:
                nxt.append(r)
        rows = nxt
    return rank


def _fraction_solve(n: int = 9) -> Fraction:
    """Gauss-Jordan elimination of a fixed dense matrix over Q."""
    A = [[Fraction((i * 7 + j * 3) % 11 + (i == j) * 13, 1 + (i + j) % 3) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        inv = 1 / A[c][c]
        A[c] = [inv * v for v in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                f = A[i][c]
                A[i] = [A[i][j] - f * A[c][j] for j in range(n)]
    return A[0][n - 1]


def _dict_churn(size: int = 800) -> int:
    table: dict = {}
    x = 1
    for i in range(size):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (i % 97, x % 89)
        table[key] = table.get(key, 0) + x
        if i % 16 == 0:
            table.pop((i % 97, (x + 1) % 89), None)
    return len(table)


def reference_kernel() -> int:
    """One fixed unit of work (about 6 ms); returns a checksum."""
    q = _fraction_solve()
    return (_closure() + 1000 * _sparse_rank() + q.numerator % 1009 + _dict_churn()) % 1000003


def time_kernel() -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference_kernel()
    return time.perf_counter() - w0, time.process_time() - c0


class Sampler:
    """Kernel timings before, during and after a block of work.

    During the block a SIGALRM timer runs the kernel every `INTERVAL`
    seconds in the main thread; `stolen_s` and `stolen_cpu_s` are the wall
    and CPU time those runs took, which the caller subtracts from the
    block's times.  `on_steal`, if given, is called with the wall duration of
    each of those runs.
    """

    def __init__(self, on_steal=None):
        self.samples: list[tuple[float, float]] = []
        self.stolen_s = 0.0
        self.stolen_cpu_s = 0.0
        self.on_steal = on_steal
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(time_kernel())
        dt = time.perf_counter() - w0
        self.stolen_s += dt
        self.stolen_cpu_s += time.process_time() - c0
        if self.on_steal is not None:
            self.on_steal(dt)

    def __enter__(self):
        self.samples.extend(time_kernel() for _ in range(REPS))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(time_kernel() for _ in range(REPS))
        return False

    @property
    def ref_s(self) -> float:
        """Mean wall time of a kernel run."""
        return sum(w for w, _c in self.samples) / len(self.samples)

    @property
    def ref_cpu_s(self) -> float:
        """Mean CPU time of a kernel run."""
        return sum(c for _w, c in self.samples) / len(self.samples)
