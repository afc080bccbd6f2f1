"""Calibration kernels: fixed work whose time tracks the host's momentary speed.

The benchmark runs on a shared host.  Another tenant on the same core slows
identical work by up to 2x, for stretches of a fraction of a second to over
a minute, so a run's wall time says as much about the neighbours as about
the program.  A calibration kernel runs beside the program, at every lap
mark, and a measured time is divided by the kernel time next to it.  The
ratio stays put while the host's speed moves, provided the kernel slows the
way the program does; so each workload names kernels that do its kind of
work (Python loops over tiny numpy arrays, or dense BLAS).

The kernels use only Python and numpy, never sstac, so no change to the
program can move them.  ``REFERENCE_S`` holds each kernel's time on the
reference host (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7, numpy
2.4.6, one OpenBLAS thread) when it is not slowed: the 2nd percentile of
several thousand timings taken between outer iterations.  A ratio times the
reference is a time in seconds of that host at its uncontended speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {
    "python_loop": 0.87e-3,
    "small_numpy": 0.66e-3,
    "solve": 0.33e-3,
    "matmul": 2.33e-3,
}


def reference_s(names) -> float:
    """Time of the named kernels, run once each, on the reference host."""
    return sum(REFERENCE_S[name] for name in names)


class Kernels:
    """A fixed set of kernels; calling it runs each once and returns the time taken in ns."""

    def __init__(self, names):
        rng = np.random.default_rng(0)
        self._weights = rng.standard_normal((32, 4))
        self._x = rng.standard_normal(4)
        a = rng.standard_normal((160, 160))
        self._spd = a @ a.T + 160 * np.eye(160)
        self._rhs = rng.standard_normal(160)
        self._square = rng.standard_normal((384, 384))
        self._kernels = [getattr(self, name) for name in names]
        self()  # warm-up: first calls pay for page faults and BLAS start-up

    def __call__(self) -> int:
        start = time.perf_counter_ns()
        for kernel in self._kernels:
            kernel()
        return time.perf_counter_ns() - start

    @staticmethod
    def python_loop() -> float:
        acc = 0.0
        for j in range(15_000):
            acc += j * 0.5
        return acc

    def small_numpy(self) -> float:
        """A ReLU layer of width 32 on a 4-vector, 150 times: the size of the neural critic's work."""
        x, acc = self._x, 0.0
        for _ in range(150):
            acc += float(np.maximum(self._weights @ x, 0.0).sum())
            x = x * 0.999 + 0.001
        return acc

    def solve(self) -> np.ndarray:
        return np.linalg.solve(self._spd, self._rhs)

    def matmul(self) -> np.ndarray:
        return self._square @ self._square
