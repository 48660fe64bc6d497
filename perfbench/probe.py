"""Machine-speed probe: a fixed pure-Python loop that touches no algdeg code.

The benchmark times the probe before and after every workload item and divides
the item's time by the mean of those two probe times (`wall_norm`,
`cpu_norm`).  On a shared, hypervised machine the interpreter's speed drifts
by tens of percent for minutes at a time; the probe drifts with it, so the
ratio does not.  The loop mimics algdeg's two hot paths, a list
comprehension of modular row arithmetic and scalar method calls that look
up a table, because a bare integer loop slowed less than algdeg did when
the machine slowed.  Keep this definition unchanged, or the normalised
metrics stop being comparable across commits.
"""

import statistics
import time

PROBE_REPEATS = 5

# The probe's time on the reference machine (README.md) in its fast state.
# Set-up time is reported as raw seconds * REFERENCE_S / the run's median
# probe: seconds at a fixed machine speed.
REFERENCE_S = 0.010

_ROWS = [list(range(i, i + 64)) for i in range(64)]
_TABLE = [[(a + b) % 9 for b in range(9)] for a in range(9)]


class _Ops:
    def __init__(self):
        self.table = _TABLE

    def add(self, a, b):
        return self.table[a][b]


def _loop():
    rows, ops, acc = _ROWS, _Ops(), 0
    for r in range(1200):
        u, v = rows[r % 64], rows[(r * 7) % 64]
        w = [(x - 3 * y) % 7 for x, y in zip(u, v)]
        acc += w[r % 64]
    for i in range(60_000):
        acc = ops.add(acc % 9, i % 9)
    return acc


def probe():
    """Median of PROBE_REPEATS timings of the loop, in seconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
