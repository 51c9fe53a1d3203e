"""Machine-speed probe, so timings can be rescaled to a fixed reference speed.

On a shared virtual machine the same pure-Python work can run up to 1.7
times faster or slower from one second to the next (measured on a 2-vCPU
Intel Xeon VM: a fixed Fraction loop ran 72 to 124 iterations per second
with no steal time reported), and a run-wide median does not remove that.
So while the benchmark runs, `SpeedProbe` times a fixed reference loop
every INTERVAL_S seconds from a SIGALRM handler. An operation's time is
its elapsed time minus the probes that ran inside it, and its speed is the
median probe duration over the operation and WINDOW_S on either side.
Dividing by speed / REFERENCE_S gives seconds at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.1
WINDOW_S = 0.5
# Median duration of `reference()` on the machine the baseline was recorded
# on (2-vCPU Intel Xeon VM, Python 3.11.7). It only sets the scale.
REFERENCE_S = 0.00063


def reference() -> int:
    """A fixed slice of the work the program does: Fraction arithmetic and
    hashing of tuple keys."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 100):
        total += Fraction(1, i % 31 + 1)
        seen[(i % 53, total)] = i
    return len(seen)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # ascending, one per probe
        self.durations: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, start: float, end: float) -> float:
        """Seconds spent probing between `start` and `end`."""
        return sum(self.durations[bisect_left(self.starts, start) : bisect_left(self.starts, end)])

    def scale(self, start: float, end: float) -> float:
        """Reference speed over [start, end] relative to this machine's now:
        multiply a time measured there by this to get reference seconds."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REFERENCE_S / statistics.median(near)
