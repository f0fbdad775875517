"""Host speed calibration.

The benchmark shares its host with other machines' work, which slows every
instruction stream by a factor that drifts over seconds to minutes.  Three
small fixed kernels, one per kind of work the program does (rational
arithmetic, a float loop in the interpreter, NumPy array updates), are
timed between ops.  The host's slowdown is the geometric mean over the
kernels of their median time over their reference time.  Times reported by
the benchmark are measured times divided by the slowdown measured around
them, so they read as seconds at the reference speed.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

_VALUES = [Fraction(p, q) for p, q in (
    (1, 2), (1, 3), (5, 4), (6, 5), (7, 6), (2, 7), (3, 8), (2, 9), (5, 11),
    (3, 7), (5, 13), (7, 16))]
_NODES = np.linspace(0.01, 0.99, 1537)


def _rational() -> Fraction:
    total = Fraction(0)
    for a in _VALUES:
        product = Fraction(1)
        for k in range(12):
            product *= a + k
        total += product / (a + 12)
    return total


def _float() -> float:
    s = 0.0
    for i in range(8000):
        s += (i * 0.5) / (i + 1.0)
    return s


def _array() -> np.ndarray:
    term = np.ones_like(_NODES)
    total = term.copy()
    for k in range(60):
        term = term * ((0.5 + k) / ((1.25 + k) * (k + 1.0))) * _NODES
        total += term
    return total


# Each kernel with the time that defines the reference speed: about its
# median time on a 2.1 GHz x86-64 virtual CPU under CPython 3.11.
KERNELS = ((_rational, 0.0005), (_float, 0.0008), (_array, 0.0003))


def time_kernels() -> tuple[float, ...]:
    """One timing of each kernel, in seconds."""
    times = []
    for fn, _ in KERNELS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return tuple(times)


def slowdown(samples: list[tuple[float, ...]]) -> float:
    """Host slowdown over a stretch of time from its kernel timings."""
    logs = [math.log(statistics.median(col) / ref)
            for col, (_, ref) in zip(zip(*samples), KERNELS)]
    return math.exp(sum(logs) / len(logs))
