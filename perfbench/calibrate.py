"""A fixed calibration loop that gauges how fast the machine runs right now.

On a shared host the same single-threaded run takes 15-30 % longer or
shorter in phases of seconds to minutes, while nothing in the process
changes (see notes.json, environment.noise). The benchmark brackets every
timed run with two calls of `loop_seconds` and scales the run's times by
`speed_scale`: a time is reported in seconds at the speed at which this loop
takes `REFERENCE_S`. The loop mixes the three kinds of work the solvers do
(interpreter-bound Python, numpy calls on small arrays, batched 16x16
matrix products) and imports nothing from the package, so a change to the
program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: seconds one loop takes at the reference speed; a fixed constant, about the
#: median loop time on the 2-core Xeon VM the benchmark was defined on
REFERENCE_S = 0.15

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal(400)
_MATS = _rng.standard_normal((1600, 16, 16))
_VECS = _rng.standard_normal((1600, 16, 1))


def _python_work() -> float:
    acc = 0.0
    table = {}
    for i in range(450_000):
        acc += (i % 13) * 0.5
        table[i & 255] = acc
    return acc + len(table)


def _small_array_work() -> float:
    a = _SMALL
    acc = 0.0
    for _ in range(10_000):
        b = np.maximum(a * 1.5 - 0.25, 0.0)
        acc += float(np.sqrt(b + 1.0).sum())
    return acc


def _batched_work() -> float:
    acc = 0.0
    for _ in range(160):
        acc += float(np.matmul(_MATS, _VECS).sum())
    return acc


def loop_seconds() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    _python_work()
    _small_array_work()
    _batched_work()
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two loops into reference seconds."""
    return REFERENCE_S / math.sqrt(before * after)
