"""The eigensolver seam ``qop._eig`` and the test-side Jacobi reference.

The Jacobi solver in ``jacobi_reference`` is held against numpy.linalg on
random inputs; the general eigensolver is checked through invariants that
do not reuse it (trace, determinant, singularity of A - lambda I), and the
seam's SVD against the reference SVD built on the Jacobi solver.  A LAPACK
failure must reach callers as ``ConvergenceError``.
"""

import numpy as np
import pytest

import jacobi_reference
from jacobi_reference import eigh_jacobi
from qop import _eig
from qop.cli import main
from qop.errors import ConvergenceError
from qop.generators import ginibre, hermitian
from qop.linalg import QMatrix, operator_norm
from qop.matio import save_matrix
from qop.quaternion import I, J
from qop.rng import SplitMix64
from qop.oracles import invert
from qop.spectral import eigh_q, kernel_basis, standard_eigenvalues
from qop.transforms import polar


def _random_hermitian(n, seed):
    s = SplitMix64(seed)
    re = s.normals(n * n).reshape(n, n)
    im = s.normals(n * n).reshape(n, n)
    a = re + 1j * im
    return 0.5 * (a + a.conj().T)


def _random_complex(n, seed):
    s = SplitMix64(seed)
    re = s.normals(n * n).reshape(n, n)
    im = s.normals(n * n).reshape(n, n)
    return re + 1j * im


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_jacobi_eigenvalues_match_numpy(n):
    a = _random_hermitian(n, seed=100 + n)
    w, _ = eigh_jacobi(a)
    ref = np.linalg.eigvalsh(a)
    assert np.allclose(w, ref, rtol=0.0, atol=1e-11 * max(1.0, np.abs(ref).max()))


def test_jacobi_vectors_diagonalize():
    for n in (2, 4, 7):
        a = _random_hermitian(n, seed=200 + n)
        w, v = eigh_jacobi(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-9 * max(1.0, scale)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-11


def test_jacobi_on_diagonal_and_zero_input():
    d = np.diag([3.0, -1.0, 2.0]).astype(complex)
    w, v = eigh_jacobi(d)
    assert np.array_equal(w, [-1.0, 2.0, 3.0])
    w0, _ = eigh_jacobi(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(w0, np.zeros(4))


def test_jacobi_near_diagonal_with_tiny_offdiag():
    # regression: exactly representable diagonal plus one epsilon pivot
    a = np.diag([0.017, -0.248, 0.017, -0.248]).astype(complex)
    a[0, 1] = 1e-320
    a[1, 0] = 1e-320
    w, _ = eigh_jacobi(a)
    assert np.allclose(sorted(w), sorted([0.017, -0.248, 0.017, -0.248]))


def test_jacobi_degenerate_spectrum():
    # repeated eigenvalues with a rotation mixing the blocks
    q, _ = np.linalg.qr(_random_complex(6, seed=7))
    a = q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 5.0]) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    w, v = eigh_jacobi(a)
    assert np.allclose(w, [-1.0, -1.0, 2.0, 2.0, 2.0, 5.0], atol=1e-10)
    assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-9 * np.linalg.norm(a)


def test_jacobi_rejects_nonsquare():
    with pytest.raises(ValueError):
        eigh_jacobi(np.zeros((2, 3), dtype=complex))


def test_seam_eigh_solves_a_stack_one_matrix_at_a_time():
    # the stacked eigensystems of qop.spectral rest on this, for either solver
    stack = np.array([_random_hermitian(6, seed=260 + k) for k in range(5)])
    for solve in (_eig.eigh, jacobi_reference.eigh):
        w, v = solve(stack)
        assert w.shape == (5, 6) and v.shape == (5, 6, 6)
        for wk, vk, a in zip(w, v, stack):
            w1, v1 = solve(a)
            assert np.array_equal(wk, w1) and np.array_equal(vk, v1)


def test_seam_eigvalsh_solves_a_stack_like_the_reference():
    stack = np.array([_random_hermitian(6, seed=250 + k) for k in range(5)])
    w = _eig.eigvalsh(stack)
    assert w.shape == (5, 6)
    for wk, a in zip(w, stack):
        ref, _ = eigh_jacobi(a, want_vectors=False)
        assert np.allclose(wk, ref, rtol=0.0, atol=1e-11 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("shape,rank", [((6, 6), 6), ((6, 6), 2), ((8, 5), 5), ((8, 5), 3)])
def test_seam_svd_matches_the_reference(shape, rank):
    p, q = shape
    m = _random_complex(p, seed=260)[:, :rank] @ _random_complex(q, seed=261)[:rank, :]
    w, s, vh = _eig.svd(m)
    k = min(p, q)
    assert w.shape == (p, k) and s.shape == (k,) and vh.shape == (k, q)
    assert np.all(np.diff(s) <= 0.0)
    for got_w, got_s, got_vh in ((w, s, vh), jacobi_reference.svd(m)):
        assert np.linalg.norm(got_w @ np.diag(got_s) @ got_vh - m) <= 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(got_w.conj().T @ got_w - np.eye(k)) <= 1e-12
        assert np.linalg.norm(got_vh @ got_vh.conj().T - np.eye(k)) <= 1e-12
        assert np.allclose(got_s, s, rtol=0.0, atol=1e-12 * s[0])


def _sorted_pairs(z):
    return sorted((round(float(x.real), 9), round(float(x.imag), 9)) for x in z)


# The general eigensolver behind _eig.eigvals is LAPACK's shifted
# Hessenberg QR; these cases pin what the seam must return.


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11])
def test_qr_eigenvalues_match_numpy(n):
    a = _random_complex(n, seed=300 + n)
    w = _eig.eigvals(a)
    assert w.shape == (n,) and w.dtype == np.complex128
    scale = max(1.0, float(np.linalg.norm(a)))
    assert abs(w.sum() - np.trace(a)) <= 1e-10 * scale
    assert abs(np.prod(w) - np.linalg.det(a)) <= 1e-10 * scale ** n
    for lam in w:
        sigma_min = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
        assert sigma_min <= 1e-12 * scale


def test_qr_on_defective_jordan_block():
    j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]], dtype=complex)
    w = _eig.eigvals(j)
    assert np.allclose(sorted(w.real), [2.0, 2.0, 2.0], atol=1e-5)
    assert np.abs(w.imag).max() <= 1e-5


def test_qr_on_normal_matrix_recovers_exact_spectrum():
    q, _ = np.linalg.qr(_random_complex(5, seed=9))
    spec = np.array([1.0 + 2.0j, 1.0 - 2.0j, -3.0, 0.5j, 4.0])
    a = q @ np.diag(spec) @ q.conj().T
    w = _eig.eigvals(a)
    assert _sorted_pairs(w) == pytest.approx(_sorted_pairs(spec), abs=1e-8)


def test_qr_triangular_and_zero():
    t = np.triu(_random_complex(6, seed=11))
    w = _eig.eigvals(t)
    assert _sorted_pairs(w) == pytest.approx(_sorted_pairs(np.diag(t)), abs=1e-9)
    assert np.array_equal(_eig.eigvals(np.zeros((3, 3), dtype=complex)),
                          np.zeros(3, dtype=complex))


def test_qr_rotation_with_imaginary_pairs():
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    w = _eig.eigvals(rot)
    got = _sorted_pairs(w)
    want = _sorted_pairs([complex(c, s), complex(c, -s)])
    assert got == pytest.approx(want, abs=1e-12)


@pytest.fixture
def lapack_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for name in ("eigh", "eigvalsh", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, fail)


def test_lapack_failure_is_convergence_error(lapack_fails):
    t = hermitian(3, seed=1)
    with pytest.raises(ConvergenceError):
        eigh_q(t)
    with pytest.raises(ConvergenceError):
        operator_norm(t)
    with pytest.raises(ConvergenceError):
        standard_eigenvalues(t)


def test_lapack_failure_exits_two_from_cli(tmp_path, capsys, lapack_fails):
    path = tmp_path / "t.json"
    save_matrix(str(path), QMatrix.diag([I, J]))
    assert main(["spectrum", str(path)]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_svd_failure_is_convergence_error(lapack_fails):
    t = ginibre(3, seed=2)
    with pytest.raises(ConvergenceError):
        polar(t)
    with pytest.raises(ConvergenceError):
        kernel_basis(QMatrix.diag([1.0, 0.0, 2.0]))
    with pytest.raises(ConvergenceError):
        invert(t)


def test_svd_failure_exits_two_from_polar_cli(tmp_path, capsys, lapack_fails):
    path = tmp_path / "t.json"
    save_matrix(str(path), QMatrix.diag([I, J]))
    assert main(["polar", str(path)]) == 2
    assert "did not converge" in capsys.readouterr().err
