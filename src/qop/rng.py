"""Deterministic, portable random streams.

The generator is splitmix64: output k of a stream seeded with s is

    finalize((s + (k + 1) * GAMMA) mod 2^64)

where GAMMA = 0x9E3779B97F4A7C15 and finalize is the standard two-round
xor-multiply scramble (constants 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
Because each output depends only on the seed and the counter, blocks of
outputs vectorize and streams can be split by reseeding.

Per-trial seeds are derived with ``mix_seed(seed, index)``, defined as
output number ``index`` of the stream seeded with ``seed``.  Gaussian
variates come from the Box-Muller transform applied to consecutive
uniform pairs, so the whole chain is reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

_GAMMA_INT, _M1_INT, _M2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _M1, _M2 = np.uint64(_GAMMA_INT), np.uint64(_M1_INT), np.uint64(_M2_INT)
_MASK = (1 << 64) - 1

# 53-bit mantissa scaling for uniforms in [0, 1)
_INV_2_53 = 1.0 / float(1 << 53)


def _finalize(state: np.ndarray) -> np.ndarray:
    z = state
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def mix_seed(seed: int, index: int) -> int:
    """Derive the per-trial seed: splitmix64 output ``index`` of ``seed``."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    # _finalize's steps on a Python integer, each product masked to 64 bits
    z = (int(seed) + (index + 1) * _GAMMA_INT) & _MASK
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based splitmix64 stream with vectorized block draws."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def uint64(self, k: int) -> np.ndarray:
        """Next k raw 64-bit outputs."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        idx = np.arange(self._count + 1, self._count + k + 1, dtype=np.uint64)
        self._count += k
        states = np.uint64(self._seed) + idx * _GAMMA
        return _finalize(states)

    def uniforms(self, k: int) -> np.ndarray:
        """Next k uniforms in [0, 1) with 53-bit resolution."""
        return (self.uint64(k) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def _next_uniform(self) -> float:
        """The next uniform, from one output on Python integers.

        (z >> 11) * 2^-53 is exact, so it is ``uniforms(1)[0]`` bit for bit.
        """
        z = mix_seed(self._seed, self._count)
        self._count += 1
        return (z >> 11) * _INV_2_53

    def uniform(self, lo: float, hi: float) -> float:
        return float(lo + (hi - lo) * self._next_uniform())

    def normals(self, k: int) -> np.ndarray:
        """Next k standard normals via Box-Muller on consecutive pairs."""
        m = (k + 1) // 2
        u = self.uniforms(2 * m)
        u1 = 1.0 - u[0::2]          # (0, 1], keeps log finite
        u2 = u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:k]

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (by scaled uniform; fine for harness use)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + min(span - 1, int(self._next_uniform() * span))
