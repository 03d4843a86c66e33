"""The host's pace, sampled inside the program's process.

The benchmark runs on a few cores of a shared host.  Their speed swings by
up to 2x over seconds to minutes, and two cores swing independently, so raw
times measure the host as much as the program.  While an operation runs, a
timer in the same process runs ``reference_loop`` every ``SAMPLE_PERIOD``
seconds and records how long it took.  The loop is fixed pure-Python code
that shares nothing with the program and allocates no objects the garbage
collector tracks, so only the host's pace changes its time.

``at_reference_pace`` scales an operation's time, less the sampler's own
time, by ``REFERENCE_S`` over the loop's median time around the operation:
the time the operation would take if the host ran at the reference pace.
On a 2-vCPU Intel Xeon at 2.0 GHz this halves the per-process spread of
verify times (coefficient of variation 0.13-0.20 raw, 0.06-0.07 scaled).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

SAMPLE_PERIOD = 0.025  # seconds between samples; each takes about 1% of that
REFERENCE_S = 0.25e-3  # the loop's time in fast spells of a 2-vCPU Xeon at 2.0 GHz
WINDOW_PAD = 1.0  # seconds of samples taken on each side of a short operation

_TABLE = [0] * 256


def reference_loop() -> int:
    x = 1
    table = _TABLE
    for i in range(1500):
        x = (x * 31 + i) % 1000003
        table[x & 255] += x
    return x


def loop_seconds(repeats: int) -> float:
    """Median time of ``repeats`` back-to-back reference loops."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the reference loop on a SIGALRM timer, between the program's
    bytecodes.  Samples are (end, duration) on ``time.perf_counter``, which
    is CLOCK_MONOTONIC and so shared with the client process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @contextlib.contextmanager
    def held(self):
        """Holds the timer's signal back.  A signal that interrupts a write
        blocked on a full pipe can make Python's buffered I/O drop the rest
        of the data, so replies are written with the signal held."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def slowdown(samples, t0: float, t1: float) -> float:
    """The host's pace around [t0, t1] as a multiple of the reference pace."""
    window = [d for t, d in samples if t0 - WINDOW_PAD <= t <= t1 + WINDOW_PAD]
    if not window:
        raise ValueError("no pace samples around the operation")
    return statistics.median(window) / REFERENCE_S


def at_reference_pace(samples, t0: float, t1: float) -> float:
    """Seconds from t0 to t1, less the sampler's time, at the reference pace."""
    sampling = sum(d for t, d in samples if t0 <= t <= t1)
    return (t1 - t0 - sampling) / slowdown(samples, t0, t1)
