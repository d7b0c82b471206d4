"""Margins, kernel dimensions and spectrum classes must not depend on which
correct Hermitian eigensolver produced them: the LAPACK seam and the
test-side Jacobi reference have to agree."""

import numpy as np
import pytest

import jacobi_reference
from qop import _eig
from qop.generators import ginibre, near_normal, normal_with_spectrum, partial_isometry
from qop.harness import DEFAULT_TOL, PROPERTIES, TrialContext, run_verify
from qop.oracles import check_kernel_reduction, is_p_hyponormal, is_paranormal
from qop.quaternion import I, J, K, Quaternion
from qop.rng import mix_seed
from qop.spectral import spherical_eigenspace, spherical_point_spectrum

PROPS = ("lowner-heinz", "furuta", "aluthge", "kernel-reduction", "conjugation-lemma")
SEED = 42


@pytest.fixture
def use_jacobi(monkeypatch):
    """Call it to route ``_eig.eigh``, ``_eig.eigvalsh`` and ``_eig.svd``
    through the Jacobi reference for the rest of the test."""
    def swap():
        monkeypatch.setattr(_eig, "eigh", jacobi_reference.eigh)
        monkeypatch.setattr(_eig, "eigvalsh", jacobi_reference.eigvalsh)
        monkeypatch.setattr(_eig, "svd", jacobi_reference.svd)
    return swap


def _observe():
    margins = {p: [m for _, m in run_verify(p, trials=4, seed=SEED, dim=4).per_trial]
               for p in PROPS}
    kernels = []
    for idx in range(4):
        ctx = TrialContext(mix_seed(SEED, idx), idx, 4, DEFAULT_TOL, False)
        report = check_kernel_reduction(PROPERTIES["kernel-reduction"]([ctx])[0].instance["T"])
        kernels.append((report.dim_ker, report.dim_ker_sq))
    two = Quaternion.from_real(2.0)
    spectra = []
    for vals in ([I, J, K * two], [two, two, I, Quaternion(0.0, 0.0, 3.0, 0.0)]):
        t = normal_with_spectrum(vals, seed=SEED)
        spec = spherical_point_spectrum(t)
        dims = tuple(len(spherical_eigenspace(t, c)) for c in spec.classes)
        spectra.append((spec.classes, spec.multiplicities, dims))
    return margins, kernels, spectra


def test_lapack_and_jacobi_give_the_same_answers(use_jacobi):
    lapack = _observe()
    use_jacobi()
    jacobi = _observe()
    for prop in PROPS:
        assert jacobi[0][prop] == pytest.approx(lapack[0][prop], rel=0.0, abs=1e-9), prop
    assert jacobi[1] == lapack[1]
    for (c_l, m_l, d_l), (c_j, m_j, d_j) in zip(lapack[2], jacobi[2]):
        assert c_j == pytest.approx(c_l, abs=1e-9)
        assert (m_j, d_j) == (m_l, d_l)


def _witnesses():
    """The witness vectors of ``is_p_hyponormal(T, 0.5)`` and ``is_paranormal``
    on four operators that violate both, as (n, 4) arrays."""
    ops = (ginibre(4, seed=1), ginibre(6, seed=2), near_normal(4, 0.1, seed=0),
           partial_isometry(4, 1, seed=0))
    out = []
    for t in ops:
        for margin in (is_p_hyponormal(t, 0.5), is_paranormal(t)):
            out.append(np.array(margin.witness["vector"]["entries"]))
    return out


def test_witness_vectors_do_not_depend_on_the_solver(use_jacobi):
    # each bottom eigenvalue is simple, so its unit vector is fixed up to a
    # right unit factor, which the largest-entry rule removes
    lapack = _witnesses()
    use_jacobi()
    for got, want in zip(_witnesses(), lapack, strict=True):
        assert np.abs(got - want).max() <= 1e-12
