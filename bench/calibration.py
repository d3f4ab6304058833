"""Calibration kernels: fixed work that touches no nbspec code.

The machine the benchmark was built on shares its cores with other tenants,
and the speed it gives one process swings by up to ~1.4x over tens of seconds.
A kernel timed next to an op slows with the machine but not with the
program, so ``at_ref`` can express the op's time at the reference machine's
speed.  There are two kernels, for the two kinds of work the ops do:

- ``python``: a pure-Python loop, on one core;
- ``dense``: ``numpy.linalg.eigvals`` of a fixed 300x300 matrix, on the
  process's BLAS threads.
"""

from __future__ import annotations

import time
from typing import Optional

# median seconds of each kernel on the reference machine (2 cores at 2.1 GHz,
# OpenBLAS 0.3.31, no thread variables set)
REF_S = {"python": 0.026, "dense": 0.050}


def _python() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


def _dense() -> float:
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((300, 300))
    t0 = time.perf_counter()
    np.linalg.eigvals(matrix)
    return time.perf_counter() - t0


KERNELS = {"python": _python, "dense": _dense}


def kernel_seconds(kind: str) -> float:
    """Wall seconds of one run of kernel ``kind``."""
    return KERNELS[kind]()


def at_ref(seconds: float, kind: Optional[str], kernel_s: Optional[float]) -> float:
    """``seconds`` measured next to a ``kind`` kernel that took ``kernel_s``,
    scaled to the reference machine's speed; unscaled when ``kind`` is None."""
    return seconds if kind is None else seconds * REF_S[kind] / kernel_s
