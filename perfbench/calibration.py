"""Host-speed calibration for the timing metrics.

This machine's speed drifts by up to ~40% over tens of seconds (see
README). Every measured time is therefore rescaled by
REFERENCE_S / (calibrate() measured next to it): a fixed mix of interpreter
and numpy work that belongs to the benchmark, so a change to idcodes moves
the operation times but not the calibration.
"""

from __future__ import annotations

import time

import numpy as np

# Median of calibrate() on the 2-core reference host.
REFERENCE_S = 0.0175

_ARRAY = np.random.default_rng(0).random(200_000)


def calibrate() -> float:
    """Seconds for the fixed work (~17 ms on the reference host)."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(30_000):
        table[i & 1023] = table.get(i & 1023, 0) + (i * i >> 3)
        acc ^= (i << (i & 15)).bit_count()
    for _ in range(4):
        np.sort(_ARRAY)
    return time.perf_counter() - t0
