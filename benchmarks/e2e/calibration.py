"""Host-speed calibration: a fixed reference kernel timed beside the jobs.

The reference host is a shared VM.  Its vCPUs slow down and speed up by
up to half within minutes, each on its own, and a slow spell can cover a
whole run, so raw wall times of one commit spread wider than any useful
regression bound.  Set-up and each job are therefore timed between two
timings of :func:`kernel` on the same vCPU.  The kernel is
interpreter-bound work of the kinds the workloads spend their time on:
dict updates, scalar float math and short-vector numpy calls.  It uses
numpy and nothing of the library, so a change to the library moves the
jobs and not the kernel.

A time ``t`` taken next to a kernel time ``k`` (the mean of the timings
on either side) is reported as ``t * REFERENCE_S / k``: the seconds it
would have taken at the speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the reference host (2-vCPU Xeon KVM guest, BLAS
#: pinned to one thread) in a quiet spell [s].
REFERENCE_S = 0.007

_VECTOR = np.random.default_rng(12345).standard_normal(200)


def kernel() -> float:
    """About equal parts dict, scalar-float and short-vector numpy work."""
    total = 0.0
    for _ in range(100):
        bins: dict[int, float] = {}
        for k in range(200):
            bins[k % 37] = bins.get(k % 37, 0.0) + 0.5 * k
        total += bins[5]
    for k in range(28000):
        total += (k * 0.5) ** 0.5
    x = _VECTOR.copy()
    for _ in range(460):
        y = x * 1.0001
        x = np.where(y > 0.0, y, -y)
        x[3:9] += 1.0
        total += float(x[5])
    return total


def sample() -> float:
    """Wall time of one kernel call [s]."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def settled(n: int = 5) -> float:
    """Median of ``n`` kernel times after one untimed call [s]."""
    kernel()
    return statistics.median(sample() for _ in range(n))


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured next to a kernel time, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
