"""Host-speed calibration of the benchmark's time metrics.

On a shared host the speed of a virtual CPU changes by up to a factor of
two, within seconds and over minutes, so a raw wall time says as much about
the neighbours as about the engine.  A fixed standard-library computation
(Fraction arithmetic into a dict, the mix of the engine's scalar layer) is
timed at regular wall-clock intervals inside the measured process.  The
mean of REF_SAMPLE_S / duration over the samples estimates the host's mean
speed during the measurement, relative to a reference host on which one
sample takes REF_SAMPLE_S; a duration times that speed is the duration at
the reference speed.  The calibration must stay fixed for the benchmark's
life: changing it changes every normalised figure.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

ITERATIONS = 600
REF_SAMPLE_S = 0.0032
INTERVAL_S = 0.1


def sample():
    """Duration of one run of the fixed calibration computation."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(ITERATIONS):
        key = (i % 97, i % 13)
        f = Fraction(i % 17 + 1, i % 11 + 2)
        acc[key] = acc.get(key, 0) + f * f
    return time.perf_counter() - t0


def speed(samples):
    """Mean speed relative to the reference host over `samples`."""
    return statistics.fmean(REF_SAMPLE_S / d for d in samples)


class Sampler:
    """Samples once on entry, every INTERVAL_S of wall time while entered
    (on SIGALRM, in this thread), and once on exit.  `paused_s` is the time
    the interval samples took out of the measured code; each such pause is
    also passed to `on_pause`, if given."""

    def __init__(self, on_pause=None):
        self.samples = []
        self.paused_s = 0.0
        self._on_pause = on_pause
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(sample())
        paused = time.perf_counter() - t0
        self.paused_s += paused
        if self._on_pause is not None:
            self._on_pause(paused)
        self._busy = False

    def __enter__(self):
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
