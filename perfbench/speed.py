"""Scaling measured times to a reference machine speed.

On a shared machine the speed available to one thread drifts: on a 2-vCPU
Xeon machine the same inversion took 28 s and 41 s a few minutes apart,
and a fixed pure-Python loop slowed by about the same factor, 1.45.  Raw
times of ten runs therefore spread far more than a useful regression bound.

While a repetition runs, ``calibration_kernel`` is timed every
``INTERVAL_S``: between tasks when one is due, and by a timer interrupt
inside a longer task.  The kernel is a fixed adaptive quadrature with a
Python integrand, the mix of the library's own inner loops; it belongs to
the benchmark, so no change to the library moves it.  The time spent in
the kernel runs is taken out of what is measured, and a measured interval
of length t is reported as t * REFERENCE_S / k: seconds at the speed where
the kernel takes REFERENCE_S.  k is the median time of the kernel runs
within WINDOW_S of the interval's middle; a long task takes the mean of
that factor over the kernel runs inside it.

The speed switches between states within tens of milliseconds: on the
2-vCPU Xeon machine a 0.3 ms call took 0.22 ms or 0.38 ms depending on the
moment, the kernel moving with it.  A factor taken from a wide window, or
sampled every 0.1 s, missed those switches; over ten runs of invert-closed
the scaled median latency spread by 0.14 of its median with a 0.5 s window
and 0.09 with this one, and the scaled wall time by 0.06 and 0.02 (raw:
0.33 and 0.12).  Exponents 0.5 to 1.25 of the factor were tried; 1 left
the smallest spread.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

from scipy.integrate import quad

#: Kernel time in seconds at the reference speed, about its median on the
#: 2-vCPU Xeon machine; a run there reports about its raw times.
REFERENCE_S = 1.2e-3
#: Kernel runs are this far apart, about 5% of the time.
INTERVAL_S = 0.02
#: A moment's speed is the median of the kernel runs this close to it.
WINDOW_S = 0.03
#: Tasks longer than this are scaled by the mean factor over their span.
LONG_TASK_S = 0.1


def _integrand(theta, z=0.3 + 0.02j):
    t = math.tan(theta)
    return (1.0 / (t - z) - 1.0 / (t + 1j)) / 2j  # times a Cauchy weight and dt/dtheta


def calibration_kernel() -> complex:
    """A near-real A-factor line integral: adaptive quadrature calling back
    into Python complex arithmetic, the mix of the library's inner loops."""
    return quad(_integrand, -math.pi / 2, math.pi / 2, points=(math.atan(0.3),),
                epsabs=1e-10, epsrel=1e-9, limit=200, complex_func=True)[0]


def scale(samples: list) -> float:
    """Factor from measured to reference-speed time."""
    return REFERENCE_S / statistics.median(samples)


class SpeedProbe:
    """Times the calibration kernel every INTERVAL_S while active.

    ``spent_s`` and ``spent_cpu_s`` accumulate the probe's own wall and CPU
    time, so that callers can take it out of what they measure.
    """

    def __init__(self):
        self.times = []  # perf_counter at each kernel run
        self.samples = []  # its duration
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _sample(self, *_):
        cpu = time.process_time()
        start = time.perf_counter()
        calibration_kernel()
        d = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(d)
        self.spent_cpu_s += time.process_time() - cpu
        self.spent_s += d

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def between_tasks(self):
        """Take a due sample now, outside any timed task, and restart the
        timer, so that only tasks longer than INTERVAL_S are interrupted."""
        if time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _factor(self, t: float) -> float:
        """Scale at moment t: from the kernel runs within WINDOW_S of it,
        or from the nearest run when none is that close."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo == hi:
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            if i > 0 and t - self.times[i - 1] < self.times[i] - t:
                i -= 1
            lo, hi = i, i + 1
        return scale(self.samples[lo:hi])

    def scale_at(self, start: float, end: float) -> float:
        """Scale for an interval: the factor at its middle, or for a long
        interval the mean factor at the kernel runs inside it."""
        if end - start > LONG_TASK_S:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            if hi > lo:
                return statistics.fmean(self._factor(t) for t in self.times[lo:hi])
        return self._factor((start + end) / 2)
