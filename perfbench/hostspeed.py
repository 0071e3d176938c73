"""Host-speed calibration: time a fixed reference loop while a workload runs.

On a shared host the same CPU-bound code runs 20-50% slower for stretches
of seconds to minutes, and its process CPU time slows with it.  A fixed
pure-Python loop, independent of qborel, slows down the same way.  The
sampler times that loop once before the first operation, every
``PERIOD_S`` seconds from a ``SIGALRM`` handler (which Python runs in the
main thread between bytecodes, so samples also fall inside long
operations), and once after the last operation.

``times()`` returns the work time between the first and the last sample
with the samples taken out, raw and calibrated.  The calibrated time scales
each stretch between two consecutive samples by ``REF_S`` over the mean of
their two durations: it is the time the work would take on a host where
one sample takes ``REF_S`` seconds.  A slower qborel still reads slower;
a slower host does not.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.25
REF_S = 0.012  # one sample's median on a 2-core shared x86 host, Python 3.11


def reference_loop() -> int:
    """Fixed dict, tuple and small-int work, like the weyl and coeffs layers."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(10000):
        key = (i % 97, i % 13, i % 7)
        table[key] = table.get(key, 0) + sum(key)
    return len(sorted(table.items()))


def sample() -> tuple[float, float]:
    """(start, end) of one run of the reference loop, in perf_counter seconds."""
    start = time.perf_counter()
    reference_loop()
    return start, time.perf_counter()


def calibrate(seconds: float, samples: list[tuple[float, float]]) -> float:
    """``seconds`` measured next to ``samples``, scaled to the nominal speed."""
    durations = sorted(end - start for start, end in samples)
    return seconds * REF_S / durations[len(durations) // 2]


class Sampler:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a handler may run inside a slow previous one
            self._busy = True
            self.samples.append(sample())
            self._busy = False

    def start(self) -> None:
        self.samples.append(sample())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(sample())

    def times(self) -> tuple[float, float]:
        """(raw, calibrated) work seconds between the first and last sample."""
        raw = calibrated = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            work = s1 - e0
            raw += work
            calibrated += work * 2 * REF_S / ((e0 - s0) + (e1 - s1))
        return raw, calibrated
