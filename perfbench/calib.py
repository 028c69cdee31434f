"""Host speed calibration.

The shared host this benchmark runs on changes speed from second to second
and between states that last up to minutes: a fixed pure-Python loop and a
fixed BLAS product both take about 1.4 times as long in the slow state as in
the fast one, and two processes on the two CPUs do not see the same changes.
A median over a 30-s run cannot average that away, so the benchmark times
this module's kernel on the CPU that does the work, while it does the work,
and rescales the measured time to the reference speed, at which the kernel
takes ``REF_S``:

    rescaled = measured * REF_S / kernel_time

A change to the program does not change the kernel, so it moves the rescaled
time as it moves the measured one.
"""

from __future__ import annotations

import signal
import time

LOOP = 150_000
TRIES = 5
REF_S = 0.010
# One kernel run (about 10 ms) every PERIOD_S adds about 5% to the timed
# section; the samplers' own time is taken out again.
PERIOD_S = 0.25


def _kernel() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def measure() -> float:
    """The fastest of ``TRIES`` timings of the kernel, in seconds."""
    return min(_timed_kernel() for _ in range(TRIES))


class Sampler:
    """Times the kernel every ``PERIOD_S`` from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it samples the
    speed of the CPU the timed work runs on, at the times it runs.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(_timed_kernel())

    def __enter__(self) -> "Sampler":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def rescale(self, measured: float) -> float:
        """``measured``, which contains every sample, without the samples' time
        and at the reference speed: each sample stands for an equal share of
        the time."""
        net = measured - sum(self.samples)
        return net * sum(REF_S / k for k in self.samples) / len(self.samples)
