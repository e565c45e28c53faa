"""Machine-speed calibration.

The machines this runs on share their cores, and their speed drifts by
up to 2x within minutes.  The benchmark therefore times a fixed kernel
next to the work it measures, in the same process, and reports times
at a reference speed: ``raw * REFERENCE_MS / kernel_ms``.  The kernel
mixes what seblocks spends its time on: small numpy calls in a Python
loop, calls on tiny arrays and frozen dataclasses, dict and integer
work, ``Fraction`` sums and a bulk sort.  It uses no seblocks code, so
no change to the package can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# kernel time at the reference speed (its median on the 2-core machine
# the first numbers in README.md come from)
REFERENCE_MS = 3.0

# seconds between the Sampler's kernel samples
SAMPLE_S = 0.1

_RNG = np.random.default_rng(20260805)
_POINTS = _RNG.random((80, 2))
_BULK = _RNG.random(20_000)
_TINY = [_RNG.standard_normal((3, 2)) for _ in range(16)]


@dataclass(frozen=True)
class _Counts:
    counts: tuple
    total: int


def kernel() -> float:
    alive = np.arange(_POINTS.shape[0])
    total = 0.0
    for k in range(_POINTS.shape[0] - 1):
        col = _POINTS[alive, k % 2]
        pos = int(np.argmin(col) if k % 4 < 2 else np.argmax(col))
        total += float(col[pos])
        alive = np.delete(alive, pos)
    for pts in _TINY:
        total += sum(np.unique(pts[:, c]).size for c in range(2))
        rows = np.arange(3)
        for k in range(3):
            rows = np.delete(rows, int(np.argmin(pts[rows, k % 2])))
        counts = np.bincount(np.array([0, 1, 1, 3]), minlength=4)
        total += _Counts(tuple(int(c) for c in counts), 4).total
    tally: dict = {}
    for i in range(3000):
        tally[i % 97] = tally.get(i % 97, 0) + i
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, 7919)
    return total + float(np.sort(_BULK)[100]) + len(tally) + float(acc)


def sample_ms(repeats: int = 1) -> float:
    """Milliseconds per kernel over ``repeats`` back-to-back kernels."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) * 1e3 / repeats


def speed(samples: list) -> float:
    """Factor that turns raw times into reference-speed times."""
    return REFERENCE_MS / statistics.median(samples)


class Sampler:
    """Times the kernel on a timer signal every SAMPLE_S seconds while
    the main thread does other work, so the samples come from the same
    moments as that work.  ``spent_s`` is their total time, to be
    subtracted from the work's wall time."""

    def __init__(self):
        self.samples: list = []

    def __enter__(self):
        # numpy imports numpy.ma lazily, on the kernel's first np.unique.
        # A sample that lands while the main thread is importing
        # numpy.ma would recurse in numpy's __getattr__, so finish that
        # import here, before the first signal.
        kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame):
        self.samples.append(sample_ms())

    @property
    def spent_s(self) -> float:
        return sum(self.samples) / 1e3

    def corrected(self, raw_s: float) -> float:
        """``raw_s`` minus the samples' time, at the reference speed."""
        work = raw_s - self.spent_s
        return work * speed(self.samples) if self.samples else work
