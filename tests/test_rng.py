"""The stream is pinned against a pure-integer reimplementation so a numpy
upgrade or platform change that altered outputs would be caught."""

import math

import numpy as np
import pytest

from qop.rng import SplitMix64, mix_seed

GAMMA = 0x9E3779B97F4A7C15
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB
MASK = (1 << 64) - 1


def _finalize_int(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * M1) & MASK
    z = ((z ^ (z >> 27)) * M2) & MASK
    return (z ^ (z >> 31)) & MASK


def _stream_int(seed: int, count: int) -> list[int]:
    return [_finalize_int((seed + (k + 1) * GAMMA) & MASK) for k in range(count)]


def test_uint64_matches_integer_reimplementation():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK):
        ours = SplitMix64(seed).uint64(64).tolist()
        theirs = _stream_int(seed, 64)
        assert ours == theirs


def test_a_negative_count_is_rejected():
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        SplitMix64(1).uint64(-1)


def test_block_draws_equal_single_draws():
    a = SplitMix64(99)
    b = SplitMix64(99)
    block = a.uint64(10).tolist()
    singles = [int(b.uint64(1)[0]) for _ in range(10)]
    assert block == singles


def test_mix_seed_is_stream_output():
    # the edge seeds wrap modulo 2^64 as the stream's own seed does
    for seed in (1234, 0, 1, MASK, MASK + 1, -1, -1234, -(1 << 63)):
        outs = _stream_int(seed, 8)
        stream = SplitMix64(seed).uint64(8).tolist()
        for idx in range(8):
            assert mix_seed(seed, idx) == outs[idx] == stream[idx]
    with pytest.raises(ValueError):
        mix_seed(1234, -1)


def test_uniform_range_and_resolution():
    u = SplitMix64(7).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit scaling: values times 2^53 are integers
    scaled = u * float(1 << 53)
    assert np.all(scaled == np.round(scaled))


def test_normals_match_box_muller_reimplementation():
    seed = 2024
    u = SplitMix64(seed).uniforms(8)
    expect = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        expect.extend([r * math.cos(2.0 * math.pi * u2),
                       r * math.sin(2.0 * math.pi * u2)])
    got = SplitMix64(seed).normals(8)
    assert np.allclose(got, expect, rtol=0.0, atol=0.0)


def test_normals_odd_count_discards_tail():
    a = SplitMix64(5).normals(3)
    b = SplitMix64(5).normals(4)
    assert np.array_equal(a, b[:3])


def test_normals_block_equals_concatenated_even_chunks():
    # an odd request draws a whole Box-Muller pair and drops its second
    # normal, so only even chunk sizes line up with one block draw
    for k in (2, 4, 16, 64, 256):
        for steps in (1, 7, 64):
            block = SplitMix64(77 + k).normals(2 * steps * k)
            stream = SplitMix64(77 + k)
            chunks = np.concatenate([stream.normals(k) for _ in range(2 * steps)])
            assert np.array_equal(block, chunks), (k, steps)


def test_normals_moments():
    x = SplitMix64(31337).normals(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_streams_with_different_seeds_differ():
    assert SplitMix64(1).uint64(4).tolist() != SplitMix64(2).uint64(4).tolist()


def test_scalar_draws_equal_the_array_path():
    # uniform draws one output on Python integers; (z >> 11) * 2^-53 is exact
    # on both paths, so each of these 10,000 draws is the array path's
    for seed in (0, MASK, 1, 42, *(mix_seed(7, k) for k in range(96))):
        scalar, block = SplitMix64(seed), SplitMix64(seed)
        u = block.uniforms(100)
        for count in range(100):
            assert scalar.uniform(0.2, 2.0) == float(0.2 + (2.0 - 0.2) * u[count]), (seed, count)
        assert scalar.uint64(3).tolist() == block.uint64(3).tolist()
