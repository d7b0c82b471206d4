"""Stacked evaluators against the per-instance margins of ``margin_reference``.

The seven properties that scored one instance at a time now score a chunk
of instances as stacks; each margin and its witness entries must be the
ones the per-instance evaluator gives, bit for bit, also where a stack
mixes ranks and whatever the chunk's size.
"""

import struct

import pytest

import margin_reference
from qop import generators, linalg, spectral, transforms
from qop.errors import QopError
from qop.harness import _BATCH, PROPERTIES, TrialContext, _chunk_trials
from qop.quaternion import Quaternion
from qop.rng import mix_seed

DIMS = (1, 2, 3, 4, 8, 16, 64)
TOL = 1e-8


def _contexts(trials, seed, dim, probe):
    return [TrialContext(mix_seed(seed, idx), idx, dim, TOL, probe) for idx in range(trials)]


def _reference(prop, inst):
    try:
        return margin_reference.MARGINS[prop](dict(inst), TOL)
    except QopError as exc:
        return type(exc), str(exc)


def _assert_batch_matches(prop, insts, where):
    """The property's evaluate of the batch against the reference instance by
    instance; an instance that fails comes back as its own error, in place."""
    want = [_reference(prop, inst) for inst in insts]
    got = [(type(g), str(g)) if isinstance(g, QopError) else g
           for g in PROPERTIES[prop].evaluate([dict(inst) for inst in insts], TOL)]
    assert len(got) == len(want), where
    for k, (g, w) in enumerate(zip(got, want)):
        if isinstance(w[0], float):
            assert struct.pack("<d", g[0]) == struct.pack("<d", w[0]), (where, k, g, w)
        assert g[0] == w[0] or isinstance(w[0], float), (where, k, g, w)
        assert g[1] == w[1], (where, k)


def _assert_chunks_match(prop, ctxs, size=None):
    """The chunks' margins, in chunks of ``size`` or else in run_verify's chunks."""
    size = size or _chunk_trials(ctxs[0].dim)
    for start in range(0, len(ctxs), size):
        chunk = ctxs[start:start + size]
        _assert_batch_matches(prop, PROPERTIES[prop].draw(chunk),
                              f"{prop} dim {chunk[0].dim} probe {chunk[0].probe} chunk {start}")


# the two of the seven whose draws read the probe flag
PROBED = ("aluthge-gain", "chain")


def _same_instances(x, y):
    return x.keys() == y.keys() and all(
        x[k]._a.tobytes() + x[k]._b.tobytes() == y[k]._a.tobytes() + y[k]._b.tobytes()
        if hasattr(x[k], "_a") else x[k] == y[k] for k in x)


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_margins_equal_the_per_instance_margins(dim):
    for prop in sorted(margin_reference.MARGINS):
        _assert_chunks_match(prop, _contexts(37, 5 + dim, dim, False))
        probing = _contexts(37, 5 + dim, dim, True)
        if prop in PROBED:
            _assert_chunks_match(prop, probing)
        else:
            # the same instances as without the probe, so the same margins
            plain = _contexts(_BATCH, 5 + dim, dim, False)
            assert all(map(_same_instances, PROPERTIES[prop].draw(probing[:_BATCH]),
                           PROPERTIES[prop].draw(plain))), prop


def _normal(values, seed):
    return generators.normal_with_spectrum(values, seed=seed)


def test_stacks_that_mix_ranks():
    # kernel-reduction draws normal operators with 1 to dim - 1 zero eigenvalues
    ctxs = _contexts(16, 41, 4, False)
    ranks = {generators.polar(inst["T"]).rank
             for inst in PROPERTIES["kernel-reduction"].draw(ctxs)}
    assert len(ranks) == 3
    _assert_chunks_match("kernel-reduction", ctxs)
    # partial isometries next to full-rank operators, in one batch
    units = [Quaternion(0.6, 0.8, 0.0, 0.0), Quaternion(0.0, 0.0, 0.6, -0.8),
             Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(1.0, 0.0, 0.0, 0.0)]
    for n in (3, 4, 8):
        isometries = [generators.partial_isometry(n, d, seed=50 + d) for d in (0, 1, n // 2, n)]
        full = [generators.ginibre(n, seed=60 + k) for k in range(3)]
        mixed = [t for pair in zip(isometries, full + [full[0]]) for t in pair]
        x = generators.unit_vector(n, seed=70)
        _assert_batch_matches("tu-star", [{"T": t, "x": x} for t in mixed], ("tu-star", n))
        _assert_batch_matches("kernel-reduction", [{"T": t} for t in mixed], ("kernel", n))
        _assert_batch_matches("spectrum-st-ts",
                              [{"S": s, "T": t} for s, t in zip(mixed, mixed[1:])],
                              ("spectrum-st-ts", n))
        for prop in ("chain", "aluthge-gain"):
            _assert_batch_matches(prop, [{"T": t, "p": 0.3, "probe": True} for t in mixed],
                                  (prop, n))
            # enforced, the operators outside the hypothesis fail in place
            _assert_batch_matches(prop, [{"T": t, "p": 0.3} for t in mixed], (prop, "enforced", n))
        # normal partial isometries and normal operators with zero eigenvalues
        # are p-hyponormal, and the unit of their first eigenvalue is an
        # eigenvalue of their polar unitary
        normals = []
        for k in range(8):
            zeros = k % n
            spectrum = [units[(k + j) % 4] * (1.0 if k % 2 else 0.5 + j) for j in range(n - zeros)]
            normals.append(_normal(spectrum + [0.0] * zeros, seed=80 + k))
        _assert_batch_matches("aluthge", [{"T": t, "p": 0.5 + 0.05 * k}
                                          for k, t in enumerate(normals)], ("aluthge", n))
        # the monotone ladder keeps its exponents above 1e-9: 4, 3, 2 and 0 of them
        ps = (0.7, 3e-9, 1.5e-9, 1e-9)
        _assert_batch_matches("aluthge", [{"T": t, "p": ps[k % 4]} for k, t in enumerate(normals)],
                              ("aluthge ladders", n))
        _assert_batch_matches("chain", [{"T": t} for t in normals], ("chain normal", n))
        _assert_batch_matches("eigenspace-reducing",
                              [{"T": t, "q": units[k % 4]} for k, t in enumerate(normals)],
                              ("eigenspace-reducing", n))


def test_chunks_of_three_equal_the_per_instance_margins():
    # 16 trials in chunks of 3, 3, 3, 3, 3 and 1
    for prop in sorted(margin_reference.MARGINS):
        _assert_chunks_match(prop, _contexts(16, 43, 4, prop in PROBED), size=3)


def _layout(p):
    """Shape and the strides that matter: an axis of extent 1 has any stride."""
    return p.shape, [st for st, n in zip(p.strides, p.shape) if n > 1]


def _same_array(x, y, where):
    assert _layout(x) == _layout(y) and x.tobytes() == y.tobytes(), where


@pytest.mark.parametrize("n", (1, 3, 8, 16))
def test_stacked_factorizations_equal_the_per_operator_ones(n):
    # a stack of every rank, adjoints among them, and the zero operator
    ops = [generators.partial_isometry(n, d, seed=90 + d) for d in range(n + 1)]
    ops += [generators.ginibre(n, seed=91), generators.ginibre(n, seed=92).H]
    ops.append(generators.ginibre(n, seed=93) * 0.0)
    a, b = linalg._stack_pairs(ops)
    for k, (got, t) in enumerate(zip(transforms._polars(ops), ops)):
        want = margin_reference.polar(t)
        assert (got.rank, got.sigmas) == (want.rank, want.sigmas), k
        for field in ("_v", "_w", "_s", "_ker_v"):
            _same_array(getattr(got, field), getattr(want, field), (k, field))
        for x, y in ((got.u._a, want.u._a), (got.u._b, want.u._b)):
            _same_array(x, y, (k, "u"))
            assert x.base is not None and x.base.shape == (n, 2 * n), k
    for rtol in (1e-8, 1e-6):
        for k, ((ka, kb), t) in enumerate(zip(spectral._kernel_bases(a, b, rtol)[0], ops)):
            want = margin_reference.kernel_basis(t, rtol=rtol)
            assert len(ka) == len(kb) == len(want), k
            for x, y, z in zip(ka, kb, want):
                _same_array(x, z._a, k)
                _same_array(y, z._b, k)
    for got, t in zip(spectral._standard_eigenvalues(a, b), ops):
        assert repr(got) == repr(margin_reference.standard_eigenvalues(t))
