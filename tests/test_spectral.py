import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qop import _eig, spectral
from qop.errors import DomainError, PreconditionError, StructureError
from qop.generators import ginibre, hermitian, normal_with_spectrum, positive, random_unitary
from qop.linalg import QMatrix, QVector, embed_chi
from qop.quaternion import I, J, K, Quaternion
from qop.spectral import (CLUSTER_TOL, delta_q, eigh_q, fun_calc, is_psd, kernel_basis,
                          min_eigenvalue, power_psd, rayleigh_bounds,
                          spherical_eigenspace, spherical_point_spectrum,
                          spherical_spectrum, standard_eigenvalues,
                          verify_point_spectrum)


def test_eigh_q_matches_numpy_on_embedding():
    for n in (2, 3, 5):
        t = hermitian(n, seed=400 + n)
        sys = eigh_q(t)
        ref = np.linalg.eigvalsh(embed_chi(t))
        # the embedding doubles every eigenvalue
        doubled = np.repeat(np.array(sys.eigenvalues), 2)
        assert np.allclose(np.sort(doubled), ref,
                           atol=1e-10 * max(1.0, np.abs(ref).max()))


def test_eigh_q_invariants():
    t = hermitian(4, seed=410)
    sys = eigh_q(t)
    v = sys.vectors
    scale = max(1.0, t.frobenius())
    recon = sys.reconstruct()
    assert (recon - t).frobenius() <= 1e-9 * scale
    gram = v.H @ v
    assert (gram - QMatrix.identity(4)).frobenius() <= 1e-8
    # columns are genuine right eigenvectors for real eigenvalues
    for idx, lam in enumerate(sys.eigenvalues):
        col = v.column(idx)
        assert ((t @ col) - col * Quaternion.from_real(lam)).norm() <= 1e-8 * scale


def test_eigh_q_rejects_nonhermitian():
    with pytest.raises(PreconditionError):
        eigh_q(ginibre(3, seed=420))


def test_eigh_q_diagonal_exact():
    t = QMatrix.diag([2.0, -1.0, 7.0])
    sys = eigh_q(t)
    assert sys.eigenvalues == (-1.0, 2.0, 7.0)


def test_not_selfadjoint_message_is_unchanged():
    a = ginibre(3, seed=421)
    with pytest.raises(PreconditionError) as err:
        eigh_q(a)
    assert str(err.value) == (
        f"operator is not self-adjoint (deviation {(a - a.H).frobenius():.3e})")


def _eager_eigensystem(a):
    """The eager construction the lazy ``vectors`` replaced, kept as the reference."""
    n = a.rows
    m = embed_chi(a)
    w2, v2 = _eig.eigh(0.5 * (m + m.conj().T))
    mids = spectral._pair_real(w2, pair_tol=spectral.PAIR_TOL)
    scale = max(1.0, float(np.abs(mids).max(initial=0.0)))
    clusters = [[0]]
    for t in range(1, n):
        if mids[t] - mids[clusters[-1][-1]] <= CLUSTER_TOL * scale:
            clusters[-1].append(t)
        else:
            clusters.append([t])
    eigenvalues, columns = [], []
    for cluster in clusters:
        lam = float(np.mean([mids[t] for t in cluster]))
        eigenvalues.extend([lam] * len(cluster))
        columns.extend(spectral._quaternionic_basis(
            v2[:, 2 * cluster[0]:2 * cluster[-1] + 2], len(cluster)))
    return tuple(eigenvalues), QMatrix.from_columns(columns)


def _near_tolerance_spectrum():
    """Gaps of 0.5, 0.9 and 1.1 CLUSTER_TOL at scale 2: a cluster of three, then a split."""
    tol = CLUSTER_TOL * 2.0
    return [1.0, 1.0 + 0.5 * tol, 1.0 + 1.4 * tol, 1.0 + 2.5 * tol, 2.0]


def test_lazy_vectors_match_the_eager_construction():
    u = random_unitary(5, seed=437)
    cases = [QMatrix.identity(5), QMatrix.diag([1.0, 1.0, 2.0]),
             QMatrix.diag(_near_tolerance_spectrum()),
             u @ QMatrix.diag(_near_tolerance_spectrum()) @ u.H]
    cases += [hermitian(n, seed=438 + n) for n in (1, 4, 16, 64)]
    for a in cases:
        a = 0.5 * (a + a.H)
        eigenvalues, vectors = _eager_eigensystem(a)
        sys = eigh_q(a)
        assert sys.eigenvalues == eigenvalues
        assert sys.vectors.equals_exact(vectors)
    # the near-tolerance spectrum exercises both sides of the cluster test
    lam = eigh_q(QMatrix.diag(_near_tolerance_spectrum())).eigenvalues
    assert lam[0] == lam[1] == lam[2] != lam[3] != lam[4]


def test_vectors_are_pulled_back_on_first_read_only(monkeypatch):
    calls = []
    real = spectral._quaternionic_basis
    monkeypatch.setattr(spectral, "_quaternionic_basis",
                        lambda v, need: calls.append(need) or real(v, need))
    t = 0.5 * (positive(4, seed=439) + QMatrix.identity(4))
    a = QMatrix.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    sys_t, sys_a = eigh_q(t), eigh_q(a)
    sys_t.power_psd(0.5)
    power_psd(t, 2.0, system=sys_t)
    is_psd(t, system=sys_t)
    fun_calc(a, np.exp, system=sys_a)
    sys_a.reconstruct()
    assert calls == []
    # one pull-back per cluster on the first read, none on the next
    v = sys_a.vectors
    assert calls == [2, 1, 3]
    assert sys_a.vectors is v
    assert calls == [2, 1, 3]


def test_power_psd_cube_root_roundtrip():
    t = positive(4, seed=430)
    r = power_psd(t, 1.0 / 3.0)
    cubed = r @ r @ r
    assert (cubed - t).frobenius() <= 1e-7 * max(1.0, t.frobenius())


def test_power_psd_zero_power_is_identity():
    t = positive(3, seed=431)
    assert (power_psd(t, 0.0) - QMatrix.identity(3)).frobenius() <= 1e-12


def test_power_psd_domain_errors():
    t = positive(3, seed=432)
    with pytest.raises(DomainError):
        power_psd(t, -0.5)
    neg = QMatrix.diag([1.0, -2.0])
    with pytest.raises(DomainError):
        power_psd(neg, 0.5)


def test_power_psd_clamps_roundoff_negatives():
    eps = 1e-12
    t = QMatrix.diag([1.0, -eps])
    r = power_psd(t, 0.5)
    assert abs(r.entry(0, 0).w - 1.0) <= 1e-12
    assert abs(r.entry(1, 1).w) <= 1e-6


def test_fun_calc_square_matches_product():
    t = hermitian(4, seed=433)
    sq = fun_calc(t, lambda x: x * x)
    assert (sq - t @ t).frobenius() <= 1e-10 * max(1.0, t.frobenius() ** 2)


def test_fun_calc_rejects_nonfinite_values():
    t = QMatrix.diag([1.0, 0.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(DomainError):
            fun_calc(t, lambda x: 1.0 / x)


def test_is_psd_and_rayleigh_bounds():
    t = positive(4, seed=434)
    ok, lo = is_psd(t)
    assert ok and lo >= -1e-10
    s = hermitian(4, seed=435)
    lo_s, hi_s = rayleigh_bounds(s)
    ref = np.linalg.eigvalsh(embed_chi(s))
    assert abs(lo_s - ref[0]) <= 1e-9 * max(1.0, abs(ref[0]))
    assert abs(hi_s - ref[-1]) <= 1e-9 * max(1.0, abs(ref[-1]))
    shifted = s - QMatrix.identity(4) * (lo_s - 1.0)
    ok2, _ = is_psd(shifted)
    assert ok2


def test_min_eigenvalue_agrees_with_bounds():
    s = hermitian(5, seed=436)
    assert min_eigenvalue(s) == rayleigh_bounds(s)[0]


def test_delta_q_formula():
    t = ginibre(3, seed=437)
    q = Quaternion(0.5, 1.0, -2.0, 0.25)
    d = delta_q(t, q)
    expect = t @ t - t * (2.0 * q.w) + QMatrix.identity(3) * q.norm_squared()
    assert (d - expect).frobenius() <= 1e-12 * max(1.0, expect.frobenius())


def test_standard_eigenvalues_of_quaternion_diagonal():
    t = QMatrix.diag([Quaternion(1.0, 1.0, 0.0, 0.0), Quaternion(0.0, 0.0, 2.0, 0.0)])
    reps = standard_eigenvalues(t)
    got = sorted(reps, key=lambda z: (z.real, z.imag))
    assert got[0] == pytest.approx(0.0 + 2.0j, abs=1e-10)
    assert got[1] == pytest.approx(1.0 + 1.0j, abs=1e-10)


def test_spherical_spectrum_merges_classes():
    # i and j generate the same similarity class; 2k is a different sphere
    t = QMatrix.diag([I, J, K * Quaternion.from_real(2.0)])
    spec = spherical_spectrum(t)
    assert spec.classes == pytest.approx([1.0j, 2.0j], abs=1e-10)
    assert spec.multiplicities == (2, 1)
    assert spec.radius == pytest.approx(2.0, abs=1e-10)


def test_spectrum_of_antidiagonal_j_example():
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    t = QMatrix.from_quaternions([[zero, J], [-J, zero]])
    spec = spherical_spectrum(t)
    assert spec.classes == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_spherical_point_spectrum_verifies_kernels():
    vals = [Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(0.0, 3.0, 0.0, 0.0)]
    t = normal_with_spectrum(vals, seed=440)
    spec = spherical_point_spectrum(t)
    reps = sorted(spec.classes, key=lambda z: (z.real, z.imag))
    assert reps[0] == pytest.approx(0.0 + 3.0j, abs=1e-8)
    assert reps[1] == pytest.approx(2.0 + 0.0j, abs=1e-8)


def test_verify_point_spectrum_reports_gaps():
    t = QMatrix.diag([1.0, 5.0])
    for check in verify_point_spectrum(t):
        assert check.verified
        assert check.kernel_gap <= 1e-12


def test_spherical_eigenspace_of_block_diagonal():
    t = QMatrix.diag([I, J * Quaternion.from_real(2.0)])
    vecs = spherical_eigenspace(t, 1.0j)
    assert len(vecs) == 1
    v = vecs[0]
    # supported on the first coordinate
    assert v[1].norm() <= 1e-8
    assert abs(v.norm() - 1.0) <= 1e-8


def test_spherical_eigenspace_wrong_count_raises():
    t = QMatrix.diag([I, J * Quaternion.from_real(2.0)])
    with pytest.raises(StructureError):
        spherical_eigenspace(t, 1.0j, count=2)


def test_spherical_eigenspace_defective_sphere_is_polynomial_kernel():
    # real Jordan block: delta_2 = (T - 2I)^2 = 0, so the kernel is everything
    t = QMatrix.from_quaternions([[2.0, 1.0], [0.0, 2.0]])
    vecs = spherical_eigenspace(t, 2.0 + 0.0j)
    assert len(vecs) == 2


def test_kernel_basis_dimensions():
    t = QMatrix.diag([0.0, 3.0, 0.0])
    ker = kernel_basis(t)
    assert len(ker) == 2
    for v in ker:
        assert (t @ v).norm() <= 1e-10
    assert kernel_basis(QMatrix.identity(3)) == []


def test_eigenvalue_pairing_on_random_hermitian_embeddings():
    for seed in range(441, 447):
        t = hermitian(3, seed=seed)
        sys = eigh_q(t)
        assert len(sys.eigenvalues) == 3
        ref = np.linalg.eigvalsh(embed_chi(t))
        assert np.allclose(ref[0::2], ref[1::2], atol=1e-8 * max(1.0, np.abs(ref).max()))


# Spheres are drawn from a coarse grid of real parts and radii, so two
# eigenvalues share a sphere exactly or sit at least 1 apart; random axes
# make the same sphere show up as different quaternions (i and j, say).
_SPHERE = st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),   # real part
                    st.sampled_from([0.0, 1.0, 2.0]),         # radius
                    st.tuples(*[st.floats(-1.0, 1.0)] * 3))   # axis


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spheres=st.lists(_SPHERE, min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spherical_spectrum_of_rotated_sphere_spectra(spheres, seed):
    vals, want = [], {}
    for w, r, axis in spheres:
        norm = float(np.linalg.norm(axis))
        ux, uy, uz = (a / norm for a in axis) if norm > 1e-3 else (1.0, 0.0, 0.0)
        vals.append(Quaternion(w, r * ux, r * uy, r * uz))
        want[complex(w, r)] = want.get(complex(w, r), 0) + 1
    spec = spherical_spectrum(normal_with_spectrum(vals, seed=seed))
    got = dict(zip(spec.classes, spec.multiplicities))
    assert len(got) == len(want)
    for rep, mult in want.items():
        match = [c for c in got if abs(c - rep) <= 1e-8]
        assert len(match) == 1 and got[match[0]] == mult
    # ordered by real part, then imaginary part, with round-off tied
    for a, b in zip(spec.classes, spec.classes[1:]):
        assert a.real < b.real - 0.5 or (abs(a.real - b.real) <= 1e-8 and a.imag < b.imag)


def test_sphere_spectrum_i_j_2k_on_every_seed():
    vals = [I, J, K * Quaternion.from_real(2.0)]
    for seed in range(40):
        spec = spherical_spectrum(normal_with_spectrum(vals, seed=seed))
        assert spec.classes == pytest.approx([1.0j, 2.0j], abs=1e-10)
        assert spec.multiplicities == (2, 1)
