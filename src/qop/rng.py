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
``block_normals``, ``block_uniforms`` and ``unit_quaternions`` draw from
many streams at once, one row per stream, each row bit for bit the draws
its stream makes alone.
"""

from __future__ import annotations

from typing import Sequence

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


def _outputs(seeds: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """The k outputs after ``counts`` of the stream of each seed, along a new last axis."""
    idx = np.arange(1, k + 1, dtype=np.uint64)
    return _finalize(seeds[..., None] + (counts[..., None] + idx) * _GAMMA)


def _to_uniform(z: np.ndarray) -> np.ndarray:
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from the uniform pairs along the last axis of ``u``, in order."""
    u1 = 1.0 - u[..., 0::2]          # (0, 1], keeps log finite
    u2 = u[..., 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(u.shape, dtype=np.float64)
    out[..., 0::2] = radius * np.cos(theta)
    out[..., 1::2] = radius * np.sin(theta)
    return out


def block_normals(seeds: Sequence[int], k: int) -> np.ndarray:
    """(len(seeds), k): row i is ``SplitMix64(seeds[i]).normals(k)``, from one block."""
    s = np.array([int(seed) & _MASK for seed in seeds], dtype=np.uint64)
    return _box_muller(_to_uniform(_outputs(s, np.uint64(0), 2 * ((k + 1) // 2))))[:, :k]


def block_uniforms(streams: Sequence["SplitMix64"], k: int) -> np.ndarray:
    """(len(streams), k): row i is ``streams[i].uniforms(k)``, from one block."""
    seeds = np.array([s._seed for s in streams], dtype=np.uint64)
    counts = np.array([s._count for s in streams], dtype=np.uint64)
    for s in streams:
        s._count += k
    return _to_uniform(_outputs(seeds, counts, k))


def unit_quaternions(streams: Sequence["SplitMix64"], counts: Sequence[int],
                     extra: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row i: the next counts[i] unit quaternions of streams[i], each followed
    by ``extra`` uniforms, as (k, m, 4) and (k, m, extra) for m = max(counts);
    rows past counts[i] are not the stream's.

    A quaternion is ``normals(4)`` over its norm, drawn again while that norm
    is at most 1e-6.  The streams are drawn as one block; a stream with a
    rejected quaternion draws its quaternions again one at a time.
    """
    width, m = 4 + extra, max(counts, default=0)
    u = block_uniforms(streams, width * m).reshape(len(streams), m, width)
    c = _box_muller(u[..., :4])
    norm = np.sqrt((c ** 2).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        units, extras = c / norm[..., None], u[..., 4:]
    for i, (stream, n) in enumerate(zip(streams, counts)):
        stream._count -= width * (m - n)
        if not (norm[i, :n] > 1e-6).all():
            stream._count -= width * n
            for j in range(n):
                q = stream.normals(4)
                while not (qn := float(np.sqrt((q ** 2).sum()))) > 1e-6:
                    q = stream.normals(4)
                units[i, j], extras[i, j] = q / qn, stream.uniforms(extra)
    return units, extras


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
        self._count += k
        return _outputs(np.uint64(self._seed), np.uint64(self._count - k), k)

    def uniforms(self, k: int) -> np.ndarray:
        """Next k uniforms in [0, 1) with 53-bit resolution."""
        return _to_uniform(self.uint64(k))

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) u for the next uniform u, from one output on Python
        integers: (z >> 11) * 2^-53 is exact, so u is ``uniforms(1)[0]`` bit for bit.
        """
        z = mix_seed(self._seed, self._count)
        self._count += 1
        return float(lo + (hi - lo) * ((z >> 11) * _INV_2_53))

    def normals(self, k: int) -> np.ndarray:
        """Next k standard normals via Box-Muller on consecutive pairs."""
        return _box_muller(self.uniforms(2 * ((k + 1) // 2)))[:k]
