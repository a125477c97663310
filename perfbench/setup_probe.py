"""Time one set-up in a fresh interpreter: the library import plus the
construction of one workload's functions and measures.

Usage: python3 perfbench/setup_probe.py <workload>

Prints the set-up seconds, with the probe's own time taken out, then the
times of the probe kernel runs made during the set-up.

The machine's speed is sampled while the set-up runs: a timer interrupts
it every ``INTERVAL_S`` to time ``setup_kernel``, a fixed pure-Python loop.
It needs no import, so it can run before the library and scipy are
imported without moving their import into the untimed part.  On a shared
2-vCPU Xeon machine, over ten set-ups of invert-lebesgue2, the raw times
spread by 0.18 of their median and the scaled times by 0.09; scaled by the
quadrature kernel of speed.py timed after the set-up, they spread by 0.37.
"""

import math
import signal
import statistics
import sys
import time
from pathlib import Path

#: setup_kernel time at the reference speed, about its median on the
#: 2-vCPU Xeon machine.
SETUP_REFERENCE_S = 1.45e-4
INTERVAL_S = 0.01


def setup_kernel() -> complex:
    """Python complex arithmetic of the kind the library's integrands do."""
    z, acc = 0.3 + 0.02j, 0j
    for k in range(400):
        t = math.tan(-1.5 + k * 7.5e-3)
        acc += (1.0 / (t - z) - 1.0 / (t + 1j)) / 2j
    return acc


def scale(samples: list) -> float:
    """Factor from measured to reference-speed set-up time."""
    return SETUP_REFERENCE_S / statistics.median(samples)


def main(workload: str) -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    samples = []

    def sample(*_):
        start = time.perf_counter()
        setup_kernel()
        samples.append(time.perf_counter() - start)

    setup_kernel()  # first run outside the set-up
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    import polyherglotz  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    WORKLOADS[workload].construct()
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, previous)
    elapsed -= sum(samples)
    if not samples:  # a set-up shorter than one interval
        sample()
    print(elapsed, *samples)


if __name__ == "__main__":
    main(sys.argv[1])
