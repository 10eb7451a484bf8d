"""Host-speed calibration from fixed kernels of the benchmark's own.

The host's speed drifts by 20-50% over seconds to minutes (other tenants
share its cores), and the drift slows interpreter-bound code more than
memory-bound code. Three fixed kernels are timed before and after every
timed set-up and replay:

- ``sort``: a numpy sort of 2^20 int64 keys (memory-bound);
- ``loop``: a dict-update loop (interpreter-bound);
- ``small``: stable argsorts of 512-key arrays in a Python loop, the mix
  of interpreter and small numpy calls that a replay's grouping runs.

Each operation is reported at the reference host speed: its time divided
by the geometric mean of the kernels' neighbouring samples over
``REFERENCE_MS``. No change to the program moves the kernels; the host's
speed does. Over 69 back-to-back replays of ``steady`` in one process on
a 2-CPU x86-64 host, the replay times' interquartile range over their
median was 0.26 raw, 0.15 divided by the sort alone and 0.10 divided by
the three kernels' geometric mean.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Geometric mean of the kernels' best-of-three times on the reference host.
REFERENCE_MS = 12.0
#: Timings per kernel per sample; the best one counts.
REPEATS = 3

perf_counter = time.perf_counter
_KEYS = np.random.default_rng(0).integers(0, 1 << 62, 1 << 20)
_SMALL = [np.random.default_rng(i).integers(0, 1000, 512) for i in range(64)]


def _sort() -> None:
    np.sort(_KEYS)


def _loop() -> None:
    table: dict = {}
    for i in range(100_000):
        table[i & 4095] = table.get(i & 4095, 0) + i


def _small() -> None:
    for _ in range(8):
        for keys in _SMALL:
            ordered = keys[np.argsort(keys, kind="stable")]
            np.flatnonzero(np.diff(ordered))


KERNELS = {"sort": _sort, "loop": _loop, "small": _small}


def sample() -> dict[str, float]:
    """Best-of-``REPEATS`` time of each kernel, in ms."""
    times = {}
    for name, kernel in KERNELS.items():
        best = math.inf
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            best = min(best, perf_counter() - start)
        times[name] = best * 1e3
    return times


def speed(times: dict[str, float]) -> float:
    """Geometric mean of one sample's kernel times, in ms."""
    return math.exp(sum(math.log(t) for t in times.values()) / len(times))
