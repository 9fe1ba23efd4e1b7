"""Machine-speed probe: times a fixed pure-Python kernel next to each task.

The benchmark was written on a shared 2-vCPU sandbox whose core speed moved
by up to 1.8x for seconds to minutes at a time, as co-tenants came and went.
A fixed kernel shaped like the library's hot loops (products of 257-point
permutations and of 2x2 matrices over GF(2^10), from ref.py) slowed down with
the tasks: over 3-second windows, task times swung by 0.71x-1.82x while task
time / kernel time stayed within 0.93x-1.07x on all three workloads.  So
every timing is scaled by NOMINAL_S / (kernel time measured around it),
which reads as wall time on a core that runs the kernel in NOMINAL_S.

The kernel never calls bbgroups, so a change to the library moves the task
times and not the kernel.
"""

from __future__ import annotations

import random
import statistics
import time

import ref

# Kernel time in the sandbox's fast mode (776 samples over 40 s, Python
# 3.11: one mode near 250 us, the other near 420 us), so scaled times read
# as wall times in the fast mode.
NOMINAL_S = 2.5e-4


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        self._p = [tuple(rng.sample(range(257), 257)) for _ in range(2)]
        self._field = ref.GF2n(10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        self._m = [tuple(rng.randrange(1024) for _ in range(4)) for _ in range(2)]
        self.samples: list[float] = []

    def _kernel(self) -> None:
        a, b = self._p
        for _ in range(12):
            a = ref.compose(a, b)
        m, n = self._m
        for _ in range(10):
            m = ref.mat_mul(self._field, m, n)

    def sample(self) -> float:
        """Fastest of three back-to-back kernel runs, in seconds."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking a time measured between two samples to NOMINAL_S speed."""
        return NOMINAL_S / ((before + after) / 2)

    def median(self) -> float:
        return statistics.median(self.samples)
