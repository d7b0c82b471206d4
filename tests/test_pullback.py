"""The argument for forming internal pull-backs from their top block row
and for checking self-adjointness once, where a public entry point
receives an operator.

The full 2n x 2n products W_r V_r*, V_r S_r^s V_r*, V S^{-1} W* and
V f(w) V* must stay on the embedded subalgebra far inside the old
unembedding tolerances, so the lower blocks that are no longer formed
carry nothing the top row lacks.  Symmetrizing on the pair before an
eigensolve must change no bit of what the solver sees.
"""

import numpy as np
import pytest

import qop
from qop import _eig, harness, linalg, oracles, spectral, transforms
from qop.generators import (ginibre, hermitian, near_normal, ordered_pair, partial_isometry,
                            positive, random_unitary)
from qop.linalg import _pair_eigvalsh, embed_chi
from qop.spectral import _spectra, eigh_q
from qop.transforms import RANK_RTOL, polar

FAMILIES = {
    "ginibre": lambda n, seed: ginibre(n, seed=seed),
    "hermitian": lambda n, seed: hermitian(n, seed=seed),
    "positive": lambda n, seed: positive(n, seed=seed),
    "random_unitary": lambda n, seed: random_unitary(n, seed=seed),
    "near_normal": lambda n, seed: near_normal(n, 1e-3, seed=seed),
    "partial_isometry": lambda n, seed: partial_isometry(n, n // 4, seed=seed),
}
SIZES = (1, 2, 3, 4, 8, 16, 32, 64)


def _structure_residual(m):
    """Distance of a full embedded product from the embedded subalgebra,
    relative to max(1, ||m||_F), by the rule of ``unembed_chi``'s check."""
    n = m.shape[0] // 2
    d1 = m[n:, :n] + np.conj(m[:n, n:])
    d2 = m[n:, n:] - np.conj(m[:n, :n])
    return (np.linalg.norm(d1) + np.linalg.norm(d2)) / max(1.0, np.linalg.norm(m))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_full_pair_products_stay_structured(family):
    for n in SIZES:
        for seed in range(3):
            t = FAMILIES[family](n, seed)
            w, sigma, vh = spectral._chi_svds(t._a[None], t._b[None])
            w, sigma, v = w[0], sigma[0], vh[0].conj().T
            rank = int(np.count_nonzero(sigma > RANK_RTOL * float(sigma[0])))
            w_r, v_r = w[:, :2 * rank], v[:, :2 * rank]
            assert _structure_residual(w_r @ v_r.conj().T) <= 1e-12
            for s in (0.5, 1.0, 2.0):
                s_r = np.repeat(sigma[:rank], 2) ** s
                assert _structure_residual((v_r * s_r) @ v_r.conj().T) <= 1e-12
            w_full, sing, vh = _eig.svd(embed_chi(t))
            if sing[-1] > 1e-10 * sing[0]:
                assert _structure_residual((vh.conj().T / sing) @ w_full.conj().T) <= 1e-10
            # the Gram matrix of a partial isometry has a round-off kernel
            # cluster, which sqrt lifts to weights near 1e-8
            gram = eigh_q(t.H @ t)
            for f, tol in ((lambda x: x, 1e-12), (lambda x: x * x, 1e-12),
                           (lambda x: np.sqrt(np.maximum(x, 0.0)), 1e-7)):
                m = (gram._v2 * f(gram._w2)) @ gram._v2.conj().T
                assert _structure_residual(m) <= tol, (family, n, seed)


def _count(monkeypatch, owner, name):
    """Record every call of ``owner.name`` from any qop module that imports it."""
    calls = []
    real = getattr(owner, name)
    for mod in (qop, linalg, spectral, transforms, oracles, harness):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name,
                                lambda *a, **k: calls.append(name) or real(*a, **k))
    return calls


def test_internal_pull_backs_neither_unembed_nor_recheck(monkeypatch):
    t = ginibre(4, seed=1201)
    system = eigh_q(positive(4, seed=1202))
    unembeds = _count(monkeypatch, linalg, "unembed_chi")
    checks = _count(monkeypatch, spectral, "_require_selfadjoint")
    parts = polar(t)
    parts.abs_t
    parts.abs_power(0.5)
    parts.abs_power(2.0)
    system.apply(np.exp)
    oracles.invert(t)
    oracles.is_p_hyponormal(t, 0.5)
    oracles.is_p_hyponormal(partial_isometry(4, 1, seed=1203).H, 1.0)
    assert unembeds == [] and checks == []


def test_ordered_pair_oracles_check_their_two_operators_once(monkeypatch):
    # S - T and T, each by one stacked check of its batch
    a, b = ordered_pair(4, seed=1204)
    unembeds = _count(monkeypatch, linalg, "unembed_chi")
    checks = _count(monkeypatch, spectral, "_require_selfadjoint")
    screens = _count(monkeypatch, spectral, "_selfadjoint_errors")
    for call in (lambda: oracles.check_lowner_heinz(a, b, (0.5,)),
                 lambda: oracles.check_lowner_heinz(a, b, harness.LH_R_GRID),
                 lambda: oracles.check_furuta(a, b, 2.0, 2.0, 1.0)):
        checks.clear()
        screens.clear()
        call()
        assert checks == [] and len(screens) == 2
    assert unembeds == []


def test_symmetrizing_on_the_pair_is_exact_on_the_embedded_side():
    for n in (1, 4, 16, 64):
        for seed in range(1210, 1213):
            x = ginibre(n, seed=seed)
            h = 0.5 * (x + x.H)
            assert np.array_equal(_pair_eigvalsh(x._a, x._b), _pair_eigvalsh(h._a, h._b))
            w_x, v_x = _spectra(x._a[None], x._b[None])
            w_h, v_h = _spectra(h._a[None], h._b[None])
            assert np.array_equal(w_x, w_h)
            assert np.array_equal(v_x, v_h)
