"""Speed gauge: scales measured times to a fixed reference speed of the CPU.

On a shared 2-core x86_64 VM the CPU speed changed by up to 1.7x in
stretches of seconds to minutes (thread CPU time moved with wall time, so it
was the core's speed, not descheduling), and a run's raw times were mostly a
sample of that state (README.md, "Why the times are scaled"). The gauge is a
fixed computation in the style of majorlens's own work (Python-level loops
around small numpy eigensolves, powers and logarithms) that runs no
majorlens code. It is timed between requests; every request is scaled by

    REFERENCE_S / (gauge reading around it)

so a scaled time is the time the request would take on a machine where one
gauge reading is exactly REFERENCE_S. A change to majorlens moves the scaled
times as it moves the raw ones, since the gauge does not run its code.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 2.0e-3
READINGS = 3  # a gauge value is the fastest of this many back-to-back readings


def _fixed_states() -> list[np.ndarray]:
    rng = np.random.default_rng(20150513)
    states = []
    for n in (4, 9, 16, 36):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = a @ a.conj().T
        states.append(rho / np.trace(rho).real)
    return states


class Gauge:
    def __init__(self):
        self.states = _fixed_states()
        self.readings: list[float] = []

    def _work(self) -> float:
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        total = float(acc)
        for _ in range(5):
            for rho in self.states:
                p = np.linalg.eigvalsh(rho)
                p = p[p > 1e-12]
                for q in (0.5, 2.0, 3.0):
                    total += float(np.log(np.sum(p ** q)))
        return total

    def read(self) -> float:
        """Seconds of one gauge computation, the fastest of READINGS; an
        interrupt can only lengthen a reading."""
        best = float("inf")
        for _ in range(READINGS):
            t0 = perf_counter()
            self._work()
            best = min(best, perf_counter() - t0)
        self.readings.append(best)
        return best


def scale(seconds: float, reading: float) -> float:
    """``seconds`` measured while the gauge read ``reading``, at the
    reference speed."""
    return seconds * REFERENCE_S / reading
