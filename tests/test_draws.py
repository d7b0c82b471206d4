"""Chunk draws against the per-trial draws of ``draw_reference``.

Every property draws a chunk of trials as stacks; each instance must be the
one its trial draws alone, byte for byte and in the same memory layout,
including where a draw takes one of its fallbacks: a rejected unit
quaternion and a rank-deficient Ginibre draw, and whatever the chunk's size.
"""

import struct

import numpy as np
import pytest

import draw_reference
from qop import _eig, generators, harness, rng
from qop.harness import PROPERTIES, TrialContext, _chunk_trials
from qop.linalg import QMatrix, QVector
from qop.quaternion import Quaternion
from qop.rng import mix_seed

DIMS = (1, 2, 3, 4, 8, 16, 64)


def _layout(p):
    """Shape and the strides that matter: an axis of extent 1 has any stride."""
    return p.shape, [st for st, n in zip(p.strides, p.shape) if n > 1]


def _assert_same(x, y, where):
    assert type(x) is type(y), where
    if isinstance(x, (QMatrix, QVector)):
        for p, q in ((x._a, y._a), (x._b, y._b)):
            assert _layout(p) == _layout(q), where
            assert p.tobytes() == q.tobytes(), where
    elif isinstance(x, dict):
        assert list(x) == list(y), where
        for key in x:
            _assert_same(x[key], y[key], f"{where} {key}")
    elif isinstance(x, (tuple, list)):
        assert len(x) == len(y), where
        for k, (a, b) in enumerate(zip(x, y)):
            _assert_same(a, b, f"{where}[{k}]")
    elif isinstance(x, float):
        assert struct.pack("<d", x) == struct.pack("<d", y), where
    elif isinstance(x, Quaternion):
        _assert_same(x.components(), y.components(), where)
    else:
        assert x == y, where


def _contexts(trials, seed, dim, probe):
    return [TrialContext(mix_seed(seed, idx), idx, dim, 1e-9, probe) for idx in range(trials)]


def _assert_chunks_match(prop, ctxs, size=None):
    """The property's chunk draws, in chunks of ``size`` or else in run_verify's
    chunks, against the reference."""
    size = size or _chunk_trials(ctxs[0].dim)
    for start in range(0, len(ctxs), size):
        chunk = ctxs[start:start + size]
        for ctx, inst in zip(chunk, PROPERTIES[prop].draw(chunk), strict=True):
            _assert_same(inst, draw_reference.DRAWS[prop](ctx),
                         f"{prop} dim {ctx.dim} probe {ctx.probe} trial {ctx.index}")


@pytest.mark.parametrize("dim", DIMS)
def test_chunk_draws_equal_the_per_trial_draws(dim):
    assert sorted(draw_reference.DRAWS) == sorted(PROPERTIES)
    for prop in sorted(PROPERTIES):
        for probe in (False, True):
            _assert_chunks_match(prop, _contexts(37, 3 + dim, dim, probe))


def _planted_box_muller(monkeypatch, plant):
    """Box-Muller with ``plant`` applied to its output, as both draw paths see it."""
    true = rng._box_muller
    monkeypatch.setattr(rng, "_box_muller", lambda u: plant(u, true(u)))


def test_a_rejected_unit_quaternion_is_drawn_again(monkeypatch):
    # a quaternion whose first uniform is small has norm 0: about one draw in six is rejected
    def plant(u, out):
        if u.shape[-1] == 4:
            out = out.copy()
            out[u[..., 0] < 0.15] = 0.0
        return out

    _planted_box_muller(monkeypatch, plant)
    counts = [40, 25, 0, 3]
    streams = [rng.SplitMix64(5 + i) for i in range(len(counts))]
    units, extras = rng.unit_quaternions(streams, counts, extra=1)
    rejected = 0
    for i, (stream, count) in enumerate(zip(streams, counts)):
        ref = rng.SplitMix64(5 + i)
        for j in range(count):
            while True:
                c = ref.normals(4)
                if float(np.sqrt((c ** 2).sum())) > 1e-6:
                    break
                rejected += 1
            assert units[i, j].tolist() == (c / np.sqrt((c ** 2).sum())).tolist()
            assert extras[i, j].tolist() == [ref.uniform(0.0, 1.0)]
        assert stream._count == ref._count
    assert rejected > 3
    for prop in ("chain", "eigenspace-reducing", "kernel-reduction", "tu-star"):
        for dim in (1, 4):
            _assert_chunks_match(prop, _contexts(16, 17, dim, False))


def test_a_rank_deficient_ginibre_draw_is_completed(monkeypatch):
    # half of the dim-4 Ginibre draws get a zero last column
    def plant(u, out):
        if u.shape[-1] == 64 and u[..., :1].size:
            out = out.copy().reshape(u.shape[:-1] + (4, 4, 4))
            out[(u[..., 0] < 0.5), :, 3] = 0.0
            out = out.reshape(u.shape)
        return out

    _planted_box_muller(monkeypatch, plant)
    ranks = [generators.polar(generators.ginibre(4, seed=mix_seed(23, k))).rank for k in range(16)]
    assert 3 in ranks and 4 in ranks
    for prop in ("aluthge", "chain", "gcsi-closure", "conjugation-lemma"):
        _assert_chunks_match(prop, _contexts(16, 23, 4, False))


def test_chunks_of_three_equal_the_per_trial_draws():
    # 16 trials in chunks of 3, 3, 3, 3, 3 and 1
    for prop in sorted(PROPERTIES):
        _assert_chunks_match(prop, _contexts(16, 29, 4, prop == "chain"), size=3)


def test_a_tu_star_chunk_makes_one_svd_per_stack(monkeypatch):
    calls = []
    true = _eig.svd
    monkeypatch.setattr(_eig, "svd", lambda m: calls.append(m.shape) or true(m))
    harness.PROPERTIES["tu-star"].draw(_contexts(16, 31, 4, False))
    assert calls == [(16, 8, 8)]
    # a draw takes its chunk whole, whatever the chunk's size and dim
    for trials, dim in ((2, 64), (3, 4), (1, 4)):
        calls.clear()
        harness.PROPERTIES["tu-star"].draw(_contexts(trials, 31, dim, False))
        assert calls == [(trials, 2 * dim, 2 * dim)]


@pytest.mark.parametrize("n", (1, 2, 4, 16, 64))
def test_public_generators_equal_the_per_draw_generators(n):
    spectrum = [Quaternion(0.5 * k, -1.0, 0.0, k % 3) for k in range(n)]
    for seed in (0, -3, mix_seed(n, 7)):
        for name, args in (("ginibre", (n,)), ("ginibre", (n, max(n // 2, 1))),
                           ("hermitian", (n,)), ("positive", (n,)), ("ordered_pair", (n,)),
                           ("random_unitary", (n,)), ("unit_vector", (n,)),
                           ("near_normal", (n, 0.0)), ("near_normal", (n, 1e-3)),
                           ("normal_with_spectrum", (spectrum,))):
            _assert_same(getattr(generators, name)(*args, seed=seed),
                         getattr(draw_reference, name)(*args, seed=seed), (name, args, seed))


def test_scaled_units_are_the_quaternion_products_signed_zeros_included():
    units = np.array([[-0.0, 0.0, -0.6, 0.8], [0.0, -0.0, 0.6, -0.8],
                      [-0.0, -0.0, -0.0, 1.0], [0.5, -0.5, 0.5, -0.5]])
    moduli = np.array([0.3, 1.7, 2.0, 0.2])
    want = [(Quaternion(*u) * Quaternion(m, 0.0, 0.0, 0.0)).components()
            for u, m in zip(units.tolist(), moduli.tolist())]
    assert harness._scaled_units(units, moduli).tobytes() == np.array(want).tobytes()
    # the plain product differs from it in the sign of a zero
    assert np.signbit(harness._scaled_units(units, moduli)).tolist() != \
        np.signbit(units * moduli[:, None]).tolist()
