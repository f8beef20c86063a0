"""Host-speed calibration: a fixed kernel timed between the program's calls.

The 2-vCPU VM this benchmark was written on switches between a fast and a
slow state, up to 1.8x apart, that last from seconds to minutes; a whole run
can fall in either.  Wall times alone then spread past any useful bound.  So
the worker times the kernel every ``EVERY_S`` seconds of a pass, outside the
timed calls, and ``run.py`` divides each call's latency by the host's
slowness around the call: every reported time is the time the call would
take on the reference host in its fast state.

The kernel has three parts, one for each kind of work the program does:
interpreted Python (argument parsing, the per-row loops), numpy calls on
small arrays (the 2x2 exponentials, the pointer recurrences) and complex
matrix products (the ``2 * dim`` exponential of ``check``).  A slow state
does not slow the three alike (matrix products least), so the slowness of a
workload weighs the parts by ``SHARES``, the weights that tracked the
workload's own speed best over a few minutes of both states (fitted on
passes of one seed, checked on runs of other seeds).  The kernel uses
only numpy and the standard library, never ``modvalsim``, so a change to the
program does not move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

PARTS = ("python", "small_arrays", "matmul")

#: Seconds each part takes on the reference host (Intel Xeon, 2 vCPUs of a
#: shared VM, Python 3.11, numpy 2.4 with one BLAS thread) in its fast state.
REFERENCE_S = (0.00063, 0.00076, 0.00114)

#: Weight of each part in the slowness of a workload; ``setup`` is the
#: set-up time of a fresh interpreter.
SHARES = {
    "figures": (1, 1, 1),
    "point_queries": (1, 3, 0),
    "check": (1, 1, 6),
    "setup": (1, 1, 1),
}

#: Seconds of a pass between two kernel samples.
EVERY_S = 0.25

_VEC = np.linspace(0.0, 1.0, 128) + 0j
_SMALL = np.array([[1.0, 2.0j], [3.0, 4.0]])
_rng = np.random.default_rng(0)
_BIG = (_rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))) / 128


def _python() -> float:
    table: dict = {}
    acc = 0.0
    for i in range(4000):
        acc += math.sqrt(i * 1.5)
        table[i & 255] = acc
        if i % 7 == 0:
            acc -= table.get(i & 127, 0.0) * 1e-9
    return acc


def _small_arrays() -> float:
    acc = 0.0
    for i in range(80):
        acc += abs(np.exp(1j * _VEC * i).sum()) + (_SMALL @ _SMALL)[0, 0].real
    return acc


def _matmul() -> float:
    product = _BIG
    for _ in range(4):
        product = product @ _BIG
    return abs(product[0, 0])


_KERNELS = (_python, _small_arrays, _matmul)


def sample(reps: int = 2) -> list[float]:
    """Seconds of each part of the kernel, the shortest of ``reps`` timings."""
    best = [math.inf] * len(_KERNELS)
    for _ in range(reps):
        for k, kernel in enumerate(_KERNELS):
            t0 = time.perf_counter()
            kernel()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def slowness(parts: list[float], workload: str) -> float:
    """How many times slower than the reference the host ran ``parts``, for ``workload``."""
    shares = SHARES[workload]
    return sum(w * t / ref for w, t, ref in zip(shares, parts, REFERENCE_S)) / sum(shares)
