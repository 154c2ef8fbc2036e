"""A fixed pure-Python reference kernel that measures the machine's speed.

The benchmark runs on a shared host whose speed drifts by 20-45% over a few
minutes, and the drift moves a tight Python loop and the program alike.
Timing this kernel before, during and after each job, and dividing the
job's time by the mean kernel time, cancels that drift; multiplying by
``NOMINAL_SECONDS`` turns the quotient back into seconds at a fixed
reference speed.

The kernel does the kind of work the program does (fraction-free integer
elimination, tuple keys into a dict) and imports nothing from the program,
so a change to the program never changes the kernel's time.
"""

from __future__ import annotations

import random
import signal
import time

# The kernel's time on the 2-CPU box (Python 3.11.7) the benchmark was
# defined on; reported seconds are seconds at this speed.
NOMINAL_SECONDS = 0.0048
REPEATS = 3
# while a job runs, the kernel is also timed once per this many seconds
PROBE_INTERVAL = 0.2

_SIZE = 40
_rng = random.Random(20011)
_MATRIX = [[_rng.randint(-3, 3) for _ in range(_SIZE)] for _ in range(_SIZE)]


def _kernel() -> int:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    seen: dict[tuple[int, int, int], int] = {}
    for k in range(n - 1):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            continue
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            row, top, lead = a[i], a[k], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            key = (i, k, row[n - 1] % 97)
            seen[key] = seen.get(key, 0) + 1
        prev = pivot
    return len(seen)


def reference_seconds() -> float:
    """Mean of ``REPEATS`` timings of the kernel, in seconds.

    A mean and not a best time: a job runs through the machine's brief
    stalls as well as its fast moments, and so must the reference.
    """
    start = time.perf_counter()
    for _ in range(REPEATS):
        _kernel()
    return (time.perf_counter() - start) / REPEATS


class SpeedProbe:
    """Times a job and, from a wall-clock timer signal, the kernel every
    ``PROBE_INTERVAL`` seconds while the job runs.

    ``seconds`` is the job's time without the time spent in the kernel, and
    ``references`` holds the kernel times taken during the job.
    """

    def __enter__(self) -> "SpeedProbe":
        self.references: list[float] = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._start - self._spent
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.references.append(reference_seconds())
        self._spent += time.perf_counter() - start
