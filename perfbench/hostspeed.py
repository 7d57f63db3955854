"""A fixed reference workload that reads the host's momentary speed.

On a shared host the same code runs up to 1.7x slower for tens of seconds
at a time, and no run length averages that away: a run spent in a slow
spell is slow throughout.  The benchmark therefore times a small fixed
probe (NumPy GEMM, elementwise and reduction ops, a Python loop) between
the units it measures, and scales every timing metric by
``REFERENCE_S / probe``, where ``probe`` is the median probe time around
that measurement.  A figure then reads as if the host ran at the reference
speed.  The probe uses only NumPy and Python, never the program, so a
change to the program cannot move it; its own time is never counted in a
measured unit.
"""

from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

__all__ = ["REFERENCE_S", "SpeedProbe"]

#: The probe's median time on the reference host (2-vCPU x86-64 VM, NumPy
#: with OpenBLAS pinned to one thread, outside a slow spell).
REFERENCE_S = 1.5e-3


class SpeedProbe:
    """Times the fixed probe on demand and keeps every sample with its start time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._cols = rng.standard_normal((4096, 72)).astype(np.float32)
        self._weight = rng.standard_normal((72, 8)).astype(np.float32)
        self._maps = rng.standard_normal((64, 8, 16, 16)).astype(np.float32)
        self.stamps: List[float] = []
        self.seconds: List[float] = []

    def _work(self) -> None:
        for _ in range(3):
            self._cols @ self._weight
            (self._maps * 0.25 + self._maps) > 0.5
            self._maps.sum()
            np.maximum(self._maps, 0.0)
        total = 0
        for i in range(3000):
            total += i

    def sample(self, n: int = 1) -> float:
        """Run the probe ``n`` times; return the seconds it took."""
        spent = 0.0
        for _ in range(n):
            start = time.perf_counter()
            self._work()
            elapsed = time.perf_counter() - start
            self.stamps.append(start)
            self.seconds.append(elapsed)
            spent += elapsed
        return spent

    def factor(self, start: float, end: float, at_least: int = 8) -> float:
        """``REFERENCE_S`` over the median probe time in ``[start, end]``.

        When fewer than ``at_least`` samples fall inside, the ``at_least``
        samples nearest to the interval are used instead.
        """
        stamps = np.asarray(self.stamps)
        seconds = np.asarray(self.seconds)
        inside = (stamps >= start) & (stamps <= end)
        if np.count_nonzero(inside) < at_least:
            distance = np.maximum(start - stamps, stamps - end)
            inside = np.argsort(distance, kind="stable")[:at_least]
        return REFERENCE_S / float(np.median(seconds[inside]))

    def timed(self, fn: Callable[[], object], samples: int = 4) -> float:
        """Seconds ``fn()`` takes, at reference speed: probed just before and after."""
        self.sample(samples)
        start = time.perf_counter()
        fn()
        raw = time.perf_counter() - start
        self.sample(samples)
        return raw * self.factor(start, start + raw, at_least=2 * samples)

    def median_s(self) -> float:
        """Median probe time over every sample so far."""
        return float(np.median(self.seconds))
