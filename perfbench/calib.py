"""Machine-speed monitor: scales measured times to a reference speed.

On a shared machine the speed this process gets swings by up to 2x, in
states that last from a fraction of a second to tens of seconds, so raw
wall times of identical operations vary by that much.  A Monitor runs a
short fixed piece of pure-Python work (Fraction elimination and
tuple-keyed dict updates, the kind of work torsion6 does) every PERIOD_S
from a background thread and records how long it took.  A time measured
over an interval is multiplied by REF_S / (the kernel's mean time during
that interval), i.e. scaled to the speed at which the kernel takes REF_S.
All processes of a run are pinned to one CPU (run.py), so the kernel runs
on the CPU whose speed it measures.
"""

import bisect
import threading
import time
from fractions import Fraction

# kernel time at the reference speed (the fast state of the 2-vCPU machine
# the baseline was recorded on)
REF_S = 0.00042
PERIOD_S = 0.02

_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, (i * j) % 8 + 1)
            for j in range(5)] for i in range(5)]


def _work():
    m = [list(row) for row in _MATRIX]
    for col in range(5):
        piv = next(r for r in range(col, 5) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(5):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    d = {}
    for i in range(300):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i


class Monitor:
    """Times the kernel every PERIOD_S while active (a context manager)."""

    def __init__(self):
        self.times, self.durations = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            _work()
            end = time.perf_counter()
            self.durations.append(end - start)
            self.times.append(end)  # appended last: readers see whole samples
            self._stop.wait(PERIOD_S)

    def factor(self, start, end):
        """Factor mapping a time measured over [start, end] (perf_counter
        values) to the reference speed."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start, 0, n)
        hi = bisect.bisect_right(self.times, end, 0, n)
        if hi - lo < 3:  # short interval: the three nearest samples
            lo, hi = max(0, lo - 2), min(n, hi + 2)
        window = sorted(self.durations[lo:hi])
        if not window:
            raise RuntimeError("no speed samples around the interval")
        # the slowest tenth are mostly samples the scheduler interrupted
        keep = window[:max(1, len(window) * 9 // 10)]
        return REF_S * len(keep) / sum(keep)
