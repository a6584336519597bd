"""The host's pace, measured with a fixed reference kernel between timed calls.

The benchmark runs on a shared machine whose speed drifts by 30-50% within
seconds and over minutes: every kind of work (Python bytecode, small and
medium eigensolves) slows together, and the thread's CPU time slows with the
wall clock, so neither repetition nor CPU time removes the drift.  This module
runs a small kernel that does not touch tempcert (a Python loop and tiny
eigensolves) at most every ``INTERVAL`` seconds, between timed calls.  A
call's *paced* time is its measured time scaled by ``REF_S`` over the
kernel's time around the call::

    paced = measured * REF_S / mean(kernel before the call, kernel after it)

so that a call keeps its paced time when the whole host slows, and changes it
only when the call itself does more or less work.  ``REF_S`` is the kernel's
typical time on one core of the 2-vCPU x86-64 VM (Intel Xeon, numpy with
OpenBLAS on one thread) the benchmark was written on, so paced seconds are
close to the seconds that machine's clock reads.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REF_S = 0.2e-3  # the kernel's typical time on the reference machine
INTERVAL = 0.025  # at most this long between samples, unless a call is longer
REPEATS = 3  # kernel runs per sample; the sample is the fastest of them

_clock = time.perf_counter
# Bound at import, before the tracer wraps numpy.linalg, so that the kernel
# costs the same in traced and untraced runs.
_eigvalsh = np.linalg.eigvalsh


class Pace:
    """Samples the kernel's time and scales measured call times by it."""

    def __init__(self) -> None:
        small = np.random.default_rng(12345).standard_normal((6, 6))
        self._small = small + small.T
        self.at: list[float] = []  # clock reading at the end of each sample
        self.kernel_s: list[float] = []

    def _kernel(self) -> int:
        # Python bytecode and numpy call overhead in about equal parts.  On the
        # reference machine they followed the workloads' drift more closely
        # than a 48x48 eigh or a 160x160 matrix product did.
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        for _ in range(10):
            _eigvalsh(self._small)
        return acc

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = _clock()
            self._kernel()
            best = min(best, _clock() - t0)
        self.at.append(_clock())
        self.kernel_s.append(best)

    def tick(self) -> None:
        """Sample unless the last sample is recent; call before every timed call."""
        if not self.at or _clock() - self.at[-1] >= INTERVAL:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` over the mean kernel time of the samples just before ``t0`` and just after ``t1``.

        The caller takes one sample after its last timed call, so every call
        has a sample on each side.
        """
        before = bisect.bisect_right(self.at, t0) - 1
        after = min(bisect.bisect_left(self.at, t1), len(self.at) - 1)
        return 2 * REF_S / (self.kernel_s[max(before, 0)] + self.kernel_s[after])

    def summary(self) -> dict:
        k = np.asarray(self.kernel_s)
        return {
            "samples": len(k),
            "kernel_ms_p50": float(np.median(k)) * 1e3,
            "kernel_ms_min": float(k.min()) * 1e3,
            "kernel_ms_max": float(k.max()) * 1e3,
        }
