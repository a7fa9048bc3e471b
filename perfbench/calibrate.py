"""Host-speed calibration for timings taken on a shared, noisy machine.

On a shared 2-vCPU x86_64 VM (Python 3.11, numpy 2.4), the same computation ran
up to 2.3x slower for stretches of 5 to 15 seconds, because other tenants
share the host; CPU time slows as much as wall time, and no hardware counters
are exposed. A run of a few tens of seconds therefore inherits whatever phase
it lands in.

The benchmark times a fixed reference kernel between segments of work (about
every 0.2 to 2 s of work) and scales each segment's wall time by
``REFERENCE_S / mean(kernel before, kernel after)``. A normalized time reads
as the wall time the segment would take on a host where the kernel takes
``REFERENCE_S``. The kernel is benchmark code only: a change to frustumkit
cannot change it, so a real slowdown of the library still shows in full.
Raw wall times are printed beside every normalized metric.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030  # about the median kernel time on that VM

_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((3000, 3))
_ROTATION = np.linalg.qr(_RNG.random((3, 3)))[0]
_STREAM = np.ones(500_000)
_SINK = np.empty_like(_STREAM)


def _mix() -> None:
    acc = 0
    for i in range(15000):
        acc = (acc * 31 + i) % 1000003
    for _ in range(140):
        cam = _POINTS @ _ROTATION.T
        u = cam[:, 0] / cam[:, 2]
        inside = (u > 0.2) & (u < 0.8) & (cam[:, 1] > 0.1)
        _POINTS[inside].sum(axis=0)
        np.sort(cam[:, 1])
    np.copyto(_SINK, _STREAM)
    np.bincount((_POINTS[:, 0] * 1000).astype(np.int64), minlength=4000)


def kernel() -> float:
    """Three times the median of three timings of one fixed mix of interpreter work,
    small-array numpy calls and a 4 MB copy; the median drops a timing hit by an interrupt."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _mix()
        times.append(time.perf_counter() - t0)
    return 3 * sorted(times)[1]


class Clock:
    """Brackets segments of work with kernel timings."""

    def __init__(self) -> None:
        kernel()  # first call pays for numpy's lazy set-up
        self.last = kernel()
        self.kernels = [self.last]

    def factor(self) -> float:
        """End a segment: time the kernel again; returns the segment's scale factor."""
        now = kernel()
        self.kernels.append(now)
        factor = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return factor
