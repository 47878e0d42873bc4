"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared 2-CPU host the same gencomm batch runs up to 1.7x slower for
stretches of seconds to minutes, because neighbours compete for the
cores, caches and memory. The benchmark times this kernel between
batches and scales each batch's rate by it, so that the reported
throughput follows gencomm's speed, not the neighbours' load.

The kernel is the benchmark's own code and does a fixed amount of work
shaped like gencomm's: a Python loop over a dict of 20 000 entries, as
the arithmetic coder and the BP bookkeeping do; numpy elementwise passes
over 1.6 MB arrays; and a loop of many different small numpy calls on
batch-1 vectors (random draws, concatenation, matrix-vector products,
tanh, clipping, bit packing), as the sampler and the MLP predictor do.
It calls no BLAS routine large enough to use a second thread, so
gencomm's BLAS threads do not change its time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# A round figure for one pass: on a shared host of 2 Xeon vCPUs at 2.1 GHz
# a pass took 3.6-6 ms. A rate scaled by it reads in operations per second
# at the host speed where a pass takes this long.
NOMINAL_S = 0.005


class ReferenceKernel:
    """Fixed work, built once from a fixed seed; `seconds()` times it."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        keys = [int(k) for k in rng.integers(0, 2**40, 20_000)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._order = [keys[i] for i in rng.permutation(len(keys))[:4_000]]
        self._big = rng.standard_normal(200_000)
        self._out = np.empty_like(self._big)
        self._w1 = rng.standard_normal((64, 48))
        self._w2 = rng.standard_normal((16, 64))
        self._x = rng.standard_normal((1, 32))
        self._seed = seed
        for _ in range(5):  # warm caches and the allocator before any timing
            self._run()

    def _run(self) -> int:
        acc = 0
        for key in self._order:
            acc = (acc * 31 + self._table[key]) & 0xFFFFFFFF
        for _ in range(2):
            np.tanh(self._big, out=self._out)
            np.multiply(self._out, self._big, out=self._out)
        rng = np.random.default_rng(self._seed)
        z = rng.standard_normal(16)
        for step in range(60):
            noise = rng.standard_normal(16)
            x = np.concatenate([z, noise, self._x[0, :16]])[None, :]
            h = np.tanh(x @ self._w1.T)
            eps = (h @ self._w2.T)[0]
            z = np.clip(0.9 * z + 0.1 * eps / math.sqrt(1.0 + step), -4.0, 4.0)
            bits = np.unpackbits(np.packbits(z > 0.0))
            acc ^= int(bits.sum()) + int(np.argmax(np.abs(z)))
            acc += len({f"{step}:{i}": float(v) for i, v in enumerate(z[:4])})
        return acc

    def seconds(self) -> float:
        """Mean time of two passes; the first also refills the caches that
        the work before it evicted."""
        start = time.perf_counter()
        self._run()
        self._run()
        return (time.perf_counter() - start) / 2
