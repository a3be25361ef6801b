"""Host-speed probe: normalizes timings for CPU speed drift.

The benchmark's reference host is a shared 2-vCPU virtual machine whose
per-core speed drifts by up to 2.2x over minutes (the same pure-Python
loop took 0.39 s and 0.70 s ten minutes apart, with under 10 % of that
visible as steal time).  Timings of identical work then differ by more
than any regression bound worth having.

A background thread therefore runs a fixed pure-Python loop every
``INTERVAL_S`` and records how much CPU time it took; the repetition is
pinned to one core, so the loop runs where the work runs.  A timing is
normalized by integrating ``(REFERENCE_S / probe duration) **
ELASTICITY`` over its interval: it reads as the time the work would
have taken on a core where the probe takes ``REFERENCE_S``.  A change to
the program never changes the probe, so a program regression still
shows in full; only the host's drift cancels.  Raw timings are printed
next to the normalized metrics.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

INTERVAL_S = 0.25
LOOP = 60_000
#: Probe duration that defines the reference core (~the probe on the
#: reference host in an uncontended phase).
REFERENCE_S = 0.006
#: How much more the program's work slows than the probe loop when the
#: host slows: the log-log slope of raw throughput on probe speed over
#: sets of 5-10 runs on the reference host was 1.15-2.05 (datagen),
#: 1.24 (solve_cold) and 1.35-1.6 (eval).  1.5 gave the smallest
#: worst-case spread over seven such sets; with 1.0, normalized
#: designs/s still read 0.85x in slow host phases what they read in
#: fast ones.
ELASTICITY = 1.5


def _probe_once() -> float:
    started = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.thread_time() - started


class SpeedProbe:
    """Samples ``(monotonic time, probe seconds)`` until stopped."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def start(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> List[Tuple[float, float]]:
        self._stop.set()
        self._thread.join()
        return self.samples

    def _run(self) -> None:
        while True:
            self.samples.append((time.monotonic(), _probe_once()))
            if self._stop.wait(INTERVAL_S):
                return


def _smoothed(samples: List[Tuple[float, float]]
              ) -> List[Tuple[float, float]]:
    """Each sample replaced by the median of it and its two neighbours,
    so one preempted probe does not warp the time around it."""
    out = []
    for i, (at, _) in enumerate(samples):
        window = samples[max(0, i - 1):i + 2]
        out.append((at, statistics.median(seconds for _, seconds in window)))
    return out


def normalize(samples: List[Tuple[float, float]], start: float,
              end: float) -> float:
    """``[start, end]`` (``time.monotonic()`` seconds) measured in
    reference-core seconds: the integral of ``(REFERENCE_S / probe) **
    ELASTICITY`` over the interval, each probe sample standing for the
    time closer to it than to its neighbours."""
    points = _smoothed(samples)
    total = 0.0
    for i, (at, seconds) in enumerate(points):
        lo = (points[i - 1][0] + at) / 2 if i else float("-inf")
        hi = ((at + points[i + 1][0]) / 2 if i + 1 < len(points)
              else float("inf"))
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            total += overlap * (REFERENCE_S / seconds) ** ELASTICITY
    return total
