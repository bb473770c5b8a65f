"""CPU-speed calibration, interleaved with the measured work.

The machines this benchmark runs on are shared: the speed of one CPU drifts
by up to half again over seconds to minutes as neighbours come and go, and a
pure-Python loop slows down by the same factor as the prover does.  So the
workloads run a fixed :func:`probe` loop next to the work they time, on the
same thread, and report CPU-bound times scaled to a *reference CPU* on which
one probe takes :data:`REFERENCE_S`:

    reported time = measured time * REFERENCE_S / probe time

A change to the program moves the reported times; a change in the machine's
speed moves the probe as well and cancels out.  Times bound by a wall-clock
budget (a suite's timeouts) are not CPU-bound and are never scaled.  The
probe is timed with the thread's CPU clock, so waiting for the interpreter
lock or for a busy CPU does not count, only how fast the CPU runs.
"""

from __future__ import annotations

import statistics
import threading
from time import thread_time
from typing import List, Sequence

__all__ = ["REFERENCE_S", "Sampler", "factor", "probe"]

#: Iterations of the probe loop.
PROBE_LOOPS = 25_000

#: Probe duration on the reference CPU, in seconds.
REFERENCE_S = 0.002


def probe() -> float:
    """CPU seconds this thread spends on a fixed pure-Python loop."""
    started = thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return thread_time() - started


def factor(samples: Sequence[float]) -> float:
    """Scale from measured to reference-CPU time: ``REFERENCE_S / median(probe)``."""
    return REFERENCE_S / statistics.median(samples)


class Sampler:
    """Probes on a background thread every ``interval`` seconds.

    For work that runs in other processes (engine workers), where no probe
    can sit between the timed operations.  One probe per 0.1 s costs about 2%
    of one CPU.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self.samples.append(probe())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
