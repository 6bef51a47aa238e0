"""Timings scaled to a reference speed of the host.

On a shared host the speed of the whole machine drifts: a fixed pure-Python
loop takes from 16 to 30 ms from one minute to the next, and the program
slows with it.  No repeat count inside one run removes a drift that lasts
longer than the run, so the benchmark measures the host's speed while the
program runs and reports the program's times at one fixed speed.

While a `Meter` is open, SIGALRM fires every PROBE_EVERY_S seconds of wall
time and its handler times one call of a probe, a fixed loop of about
0.3-0.5 ms.  The program is single-threaded Python with small numpy arrays;
array_probe does the same kinds of work, so the two slow down together.  In
six runs of paper_solves on a 2-vCPU host, scaling by it cut the run-to-run
spread (coefficient of variation) of single solves from 12% to 2.5%; a
pure-Python probe cut it to 5%.  python_probe, which needs no numpy, times
the cold starts.  A timed interval's probe time is taken out of its wall
and CPU seconds, and the rest is scaled by the probe's NOMINAL_S over its
trimmed mean duration in the interval (for a short interval, over the
MIN_PROBES probes nearest to it).  A scaled time is the time the interval
would have taken on a host where the probe takes NOMINAL_S, which is about
that 2-vCPU host when quiet.

Only the standard library is imported at module level, so the cold start
of prepare.py can run a Meter before it imports numpy.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

PROBE_EVERY_S = 0.025
MIN_PROBES = 20


def python_probe() -> int:
    """Pure-Python arithmetic; needs only the standard library, so it can
    time a cold start that has not imported numpy yet."""
    s = 0
    for i in range(5_000):
        s += i * i % 7
    return s


_VEC = None


def array_probe() -> int:
    """Pure-Python arithmetic followed by arithmetic on small numpy arrays,
    the two kinds of work an explicit Runge-Kutta step of the program does.
    Imports numpy on first use."""
    global _VEC
    if _VEC is None:
        import numpy

        _VEC = numpy.linspace(0.0, 1.0, 6)
    s = 0
    for i in range(2_000):
        s += i * i % 7
    x = _VEC
    for _ in range(100):
        x = x * 0.5 + _VEC * 0.25
    return s


# Probe durations on a quiet 2-vCPU host, in seconds.
NOMINAL_S = {python_probe: 0.30e-3, array_probe: 0.45e-3}


@dataclass(frozen=True)
class Interval:
    """A timed interval: its ends on the perf_counter clock, and its wall and
    CPU seconds without the probes that ran inside it."""

    t0: float
    t1: float
    wall: float
    cpu: float


class Meter:
    def __init__(self, probe=python_probe) -> None:
        self.probe = probe
        self.mids: list[float] = []   # perf_counter at the middle of each probe
        self.durations: list[float] = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.probe()
        w1, c1 = time.perf_counter(), time.process_time()
        self.mids.append(0.5 * (w0 + w1))
        self.durations.append(w1 - w0)
        self._spent_wall += w1 - w0
        self._spent_cpu += c1 - c0

    def __enter__(self) -> "Meter":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def fill(self) -> None:
        """Wait until MIN_PROBES probes have run, so that even a short run
        has enough to scale by."""
        while len(self.mids) < MIN_PROBES:
            time.sleep(PROBE_EVERY_S)

    def mark(self) -> tuple[float, float, float, float]:
        """Now: wall, CPU, and the probe time spent so far (read again if a
        probe ran while reading)."""
        while True:
            spent = (self._spent_wall, self._spent_cpu)
            wall, cpu = time.perf_counter(), time.process_time()
            if spent == (self._spent_wall, self._spent_cpu):
                return wall, cpu, spent[0], spent[1]

    def since(self, mark) -> Interval:
        wall, cpu, spent_wall, spent_cpu = self.mark()
        return Interval(
            mark[0], wall,
            wall - mark[0] - (spent_wall - mark[2]),
            cpu - mark[1] - (spent_cpu - mark[3]),
        )

    def probe_s(self, t0: float, t1: float) -> float:
        """Mean probe duration in [t0, t1], or over the MIN_PROBES probes
        nearest to it when fewer ran inside it; the longest and shortest
        tenth are left out, as a probe the kernel preempted says nothing of
        the speed the program saw."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.mids, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.mids) - MIN_PROBES))
            hi = lo + MIN_PROBES
        if hi > len(self.durations) or lo >= hi:
            raise RuntimeError("too few speed probes: the run was too short")
        window = sorted(self.durations[lo:hi])
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut])

    def scaled(self, iv: Interval) -> tuple[float, float]:
        """The interval's wall and CPU seconds at the nominal probe speed."""
        k = NOMINAL_S[self.probe] / self.probe_s(iv.t0, iv.t1)
        return iv.wall * k, iv.cpu * k
