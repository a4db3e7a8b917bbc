"""Host-speed calibration for the end-to-end times.

The benchmark shares a few cores with other tenants, and their load makes the
same single-threaded code run up to about twice as slow for seconds or minutes
at a time. A fixed kernel with the program's instruction mix (complex plane
rotations on small numpy rows, scalar float math, number formatting) is timed
right before and right after each timed unit of work. Dividing the unit's
wall time by the kernel's time around it cancels the host's current speed;
multiplying by ``REFERENCE_S`` expresses the result in seconds on a host
where the kernel takes ``REFERENCE_S`` (an uncontended 2-vCPU 2.1 GHz Xeon
VM). The kernel never calls entrodyn, so a change to the program moves the
scaled times and leaves the kernel alone.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on an uncontended 2-vCPU 2.1 GHz Xeon VM (Python 3.11,
# numpy 2.4). Only ratios to it matter when two commits are compared.
REFERENCE_S = 5.2e-3
# Kernel runs per reading; the reading is their median.
KERNEL_RUNS = 5
_N = 16
_RNG = np.random.Generator(np.random.PCG64(20030717))
_MATRIX = _RNG.standard_normal((_N, _N)) + 1j * _RNG.standard_normal((_N, _N))
_MATRIX = (_MATRIX + _MATRIX.conj().T) / 2.0


def kernel(rounds: int = 3) -> int:
    """Fixed work: ``rounds`` cyclic sweeps of complex plane rotations over a
    fixed 16x16 Hermitian matrix, formatting each rotation's scalars."""
    a = _MATRIX.copy()
    chars = 0
    for _ in range(rounds):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                apq = a[p, q]
                r = abs(apq) + 1e-300
                u = apq / r
                tau = (a[p, p].real - a[q, q].real) / (2.0 * r)
                t = math.copysign(1.0, -tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rowp - s * u * rowq
                a[q, :] = s * np.conj(u) * rowp + c * rowq
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * colp - s * np.conj(u) * colq
                a[:, q] = s * u * colp + c * colq
                chars += len(",".join(f"{x:.15g}" for x in (c, s, t)))
    return chars


def reading() -> float:
    """The kernel's current wall time in seconds: the median of KERNEL_RUNS runs."""
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Scales timed units of work to the reference host's speed.

    ``begin`` takes a reading before a series of units, and each ``record``
    takes one after its unit; the unit's speed factor is the mean of the
    readings just before and just after it.
    """

    def __init__(self):
        self.readings: list = []
        self.scaled: dict = {}  # key -> reference-speed seconds, one per unit
        self.raw: dict = {}  # key -> wall seconds, one per unit

    def begin(self) -> None:
        self.readings.append(reading())

    def record(self, key, elapsed: float) -> None:
        self.readings.append(reading())
        speed = (self.readings[-2] + self.readings[-1]) / 2.0 / REFERENCE_S
        self.scaled.setdefault(key, []).append(elapsed / speed)
        self.raw.setdefault(key, []).append(elapsed)

    def speed(self) -> float:
        """Median host slowdown against the reference over all readings (1 = reference speed)."""
        return statistics.median(self.readings) / REFERENCE_S
