import numpy as np
import pytest

from qop import _eig, spectral, transforms
from qop.errors import DomainError, ShapeError
from qop.generators import (ginibre, normal_with_spectrum, partial_isometry, positive,
                            random_unitary)
from qop.linalg import MAX_DIM, QMatrix, _from_chi_top, operator_norm
from qop.quaternion import Quaternion
from qop.spectral import eigh_q, is_psd
from qop.transforms import (RANK_RTOL, abs_star_power, aluthge, duggal, furuta_sr,
                            lambda_aluthge, polar, unitary_completion)

ZERO_Q = Quaternion(0.0, 0.0, 0.0, 0.0)


def _jordan():
    return QMatrix.from_quaternions([[0.0, 1.0], [0.0, 0.0]])


def test_polar_reconstruction_random():
    for seed in range(10):
        n = 2 + seed % 4
        t = ginibre(n, seed=500 + seed)
        parts = polar(t)
        scale = max(1.0, t.frobenius())
        assert (parts.u @ parts.abs_t - t).frobenius() <= 1e-9 * scale
        ok, _ = is_psd(parts.abs_t, 1e-8)
        assert ok


def test_polar_partial_isometry_and_kernel():
    t = _jordan()
    parts = polar(t)
    assert parts.rank == 1
    assert len(parts.kernel) == 1
    assert len(parts.cokernel) == 1
    # U vanishes on the kernel and U*U acts as identity on the range support
    for k in parts.kernel:
        assert (parts.u @ k).norm() <= 1e-9
    uu = parts.u.H @ parts.u
    assert (uu @ uu - uu).frobenius() <= 1e-9


def test_polar_on_invertible_gives_unitary_factor():
    t = ginibre(3, seed=510)
    shifted = t.H @ t + QMatrix.identity(3)  # positive definite
    parts = polar(shifted)
    assert parts.rank == 3
    ident = QMatrix.identity(3)
    assert (parts.u.H @ parts.u - ident).frobenius() <= 1e-8
    assert (unitary_completion(parts) - parts.u).frobenius() <= 1e-12


def test_polar_adjoint_gauge_relation():
    for seed in (511, 512):
        t = ginibre(3, seed=seed)
        parts = polar(t)
        scale = max(1.0, t.frobenius())
        abs_star = abs_star_power(t, 1.0)
        co = polar(t.H)
        assert (co.u @ co.abs_t - t.H).frobenius() <= 1e-9 * scale
        assert (co.abs_t - parts.u @ parts.abs_t @ parts.u.H).frobenius() <= 1e-8 * scale
        assert (abs_star - co.abs_t).frobenius() <= 1e-8 * scale


def test_unitary_completion_of_jordan_block():
    parts = polar(_jordan())
    w = unitary_completion(parts)
    expect = QMatrix.from_quaternions([[0.0, 1.0], [1.0, 0.0]])
    assert (w - expect).frobenius() <= 1e-12
    ident = QMatrix.identity(2)
    assert (w.H @ w - ident).frobenius() <= 1e-12


def test_abs_power_examples():
    t = QMatrix.from_quaternions([[ZERO_Q, Quaternion(0.0, 2.0, 0.0, 0.0)],
                                  [ZERO_Q, ZERO_Q]])
    parts = polar(t)
    sq = parts.abs_power(2.0)
    assert (sq - t.H @ t).frobenius() <= 1e-9
    one = parts.abs_power(1.0)
    assert (one - parts.abs_t).frobenius() <= 1e-12
    star = abs_star_power(t, 1.0)
    expect = QMatrix.diag([2.0, 0.0])
    assert (star - expect).frobenius() <= 1e-9
    with pytest.raises(DomainError):
        abs_star_power(t, -1.0)


def test_transforms_reject_nonfinite_exponents():
    t = ginibre(3, seed=521)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        for call in (lambda: abs_star_power(t, bad), lambda: furuta_sr(t, bad)):
            with pytest.raises(DomainError, match="exponent must be positive and finite"):
                call()


def test_abs_star_power_identity_random():
    t = ginibre(4, seed=520)
    co_abs = polar(t.H).abs_t
    co_sys_half = abs_star_power(t, 0.5)
    ref = polar(t.H)
    half = ref.abs_power(0.5)
    assert (co_sys_half - half).frobenius() <= 1e-7 * max(1.0, t.frobenius())
    assert (abs_star_power(t, 1.0) - co_abs).frobenius() <= 1e-8 * max(
        1.0, t.frobenius())


def test_aluthge_on_jordan_block_is_zero():
    assert aluthge(_jordan()).frobenius() <= 1e-12


def test_aluthge_fixes_normal_operators():
    vals = [Quaternion(1.0, 2.0, 0.0, 0.0), Quaternion(-0.5, 0.0, 1.0, 0.0),
            Quaternion(3.0, 0.0, 0.0, 0.0)]
    t = normal_with_spectrum(vals, seed=530)
    assert (aluthge(t) - t).frobenius() <= 1e-9 * max(1.0, t.frobenius())
    u = random_unitary(3, seed=531)
    assert (aluthge(u) - u).frobenius() <= 1e-9


def test_aluthge_norm_nonincreasing():
    for seed in (532, 533, 534):
        t = ginibre(3, seed=seed)
        assert operator_norm(aluthge(t)) <= operator_norm(t) * (1.0 + 1e-9)


def test_lambda_aluthge_family():
    t = ginibre(3, seed=540)
    assert lambda_aluthge(t, 0.0).equals_exact(t)
    half = lambda_aluthge(t, 0.5)
    assert (half - aluthge(t)).frobenius() <= 1e-10 * max(1.0, t.frobenius())
    assert (lambda_aluthge(t, 1.0) - duggal(t)).frobenius() <= 1e-10 * max(
        1.0, t.frobenius())
    with pytest.raises(DomainError):
        lambda_aluthge(t, -0.1)
    with pytest.raises(DomainError):
        lambda_aluthge(t, 1.5)


def test_lambda_aluthge_on_jordan_block():
    n = _jordan()
    assert lambda_aluthge(n, 0.5).frobenius() <= 1e-12
    assert lambda_aluthge(n, 1.0).frobenius() <= 1e-12


def test_duggal_is_abs_times_isometry():
    t = ginibre(3, seed=541)
    parts = polar(t)
    assert (duggal(t) - parts.abs_t @ parts.u).frobenius() <= 1e-12


def test_furuta_sr_examples():
    u = random_unitary(3, seed=550)
    for r in (0.5, 1.0, 2.0):
        assert (furuta_sr(u, r) - u @ u).frobenius() <= 1e-9
    p = positive(3, seed=551) + QMatrix.identity(3)
    assert (furuta_sr(p, 1.0) - p).frobenius() <= 1e-8 * max(1.0, p.frobenius())
    assert furuta_sr(_jordan(), 0.5).frobenius() <= 1e-12
    with pytest.raises(DomainError):
        furuta_sr(u, 0.0)


def test_polar_rejects_nonsquare():
    with pytest.raises(ShapeError):
        polar(ginibre(2, 3, seed=560))


@pytest.mark.parametrize("n,defect", [(16, 4), (24, 6), (32, 8)])
def test_polar_of_partial_isometry_reconstructs_to_working_precision(n, defect):
    # T* T is a projector: two repeated eigenvalues, each returned by the
    # solver in an arbitrary basis that eigh_q must make orthonormal
    for seed in range(5):
        t = partial_isometry(n, defect, seed=seed)
        parts = polar(t)
        v = eigh_q(t.H @ t).vectors
        assert (v.H @ v - QMatrix.identity(n)).frobenius() <= 1e-12 * n
        assert parts.rank == n - defect and len(parts.kernel) == defect
        assert (parts.reconstruct() - t).frobenius() <= 1e-12 * t.frobenius()


@pytest.mark.parametrize("defect", [0, 16])
def test_polar_at_max_dim(defect):
    n = MAX_DIM
    t = ginibre(n, seed=570) if defect == 0 else partial_isometry(n, defect, seed=571)
    parts = polar(t)
    assert (parts.reconstruct() - t).frobenius() <= 1e-12 * t.frobenius()
    assert parts.rank == n - defect and len(parts.kernel) == defect
    uu = parts.u.H @ parts.u
    assert (uu @ uu - uu).frobenius() <= 1e-12 * n
    for k in parts.kernel:
        assert (parts.u @ k).norm() <= 1e-12


def test_polar_is_one_svd(solver_calls):
    t = partial_isometry(8, 2, seed=572).H
    solver_calls.clear()  # the draw's own polar
    parts = polar(t)
    assert solver_calls.kinds() == ["svd"]
    assert (parts.rank, len(parts.kernel), len(parts.cokernel)) == (6, 2, 2)


def _eager_polar(t):
    """The eager construction the lazy ``abs_t``, ``kernel`` and ``cokernel``
    replaced, kept as the reference."""
    w, sigma, vh = spectral._chi_svds(t._a[None], t._b[None])
    w, sigma, v = w[0], sigma[0], vh[0].conj().T
    rank = int(np.count_nonzero(sigma > RANK_RTOL * float(sigma[0])))
    r2 = 2 * rank
    v_r, s_r = v[:, :r2], np.repeat(sigma[:rank], 2)
    return (_from_chi_top(w[:t.rows, :r2] @ v_r.conj().T),
            spectral._hermitian_matrix(v_r, s_r),
            spectral._null_basis(v[:, r2:], t.rows - rank),
            spectral._null_basis(w[:, r2:], t.rows - rank))


def test_lazy_polar_fields_match_the_eager_construction():
    cases = [ginibre(n, seed=580 + n) for n in (1, 4, 16, 64)]
    cases += [partial_isometry(n, defect, seed=581) for n, defect in
              ((16, 4), (32, 8), (64, 16))]
    cases.append(QMatrix.zeros(5, 5))
    for t in cases:
        u, abs_t, kernel, cokernel = _eager_polar(t)
        parts = polar(t)
        assert parts.u.equals_exact(u)
        assert parts.abs_t.equals_exact(abs_t)
        assert len(parts.kernel) == len(kernel) == len(parts.cokernel) == len(cokernel)
        for got, want in zip(parts.kernel + parts.cokernel, kernel + cokernel):
            assert np.array_equal(got.to_array(), want.to_array())


def test_polar_fields_are_built_on_first_read_only(monkeypatch):
    t = partial_isometry(8, 2, seed=582)
    calls = []
    for name in ("_null_basis", "_hermitian_matrix"):
        real = getattr(transforms, name)
        monkeypatch.setattr(transforms, name, lambda *a, _real=real, _name=name:
                            calls.append(_name) or _real(*a))
    real_svd = _eig.svd
    monkeypatch.setattr(_eig, "svd", lambda m: calls.append("svd") or real_svd(m))
    parts = polar(t)
    assert calls == ["svd"]
    for field, built in (("abs_t", "_hermitian_matrix"), ("kernel", "_null_basis"),
                         ("cokernel", "_null_basis")):
        calls.clear()
        first = getattr(parts, field)
        assert calls == [built]
        assert getattr(parts, field) is first
        assert calls == [built]


def test_polar_keeps_its_own_copy_of_the_range_vectors():
    parts = polar(partial_isometry(32, 8, seed=1))
    assert parts._v.flags.owndata and parts._v.shape == (64, 48)
    assert parts._ker_v.flags.owndata


def test_polar_parts_abs_power_rejects_negative_and_nonfinite_exponents():
    parts = polar(partial_isometry(4, 1, seed=2))
    for bad in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="exponent must be nonnegative and finite"):
            parts.abs_power(bad)
    assert parts.abs_power(1.0).equals_exact(parts.abs_t)


def test_abs_power_zero_does_not_build_the_modulus():
    parts = polar(ginibre(3, seed=583))
    assert parts.abs_power(0.0).equals_exact(QMatrix.identity(3))
    assert "abs_t" not in vars(parts)


def test_abs_star_power_of_a_near_singular_normal_operator_is_its_abs_power():
    # T is normal, so |T*|^s = |T|^s, and both come from one SVD of T; the
    # sandwich U |T|^s U* differed by 6.6e-7 at s = 0.1, seed 0
    for seed in (0, 1):
        t = normal_with_spectrum([1.0, 0.5, 1e-12, 0.3], seed=seed)
        parts = polar(t)
        for s in (0.1, 0.2, 0.5):
            assert (abs_star_power(t, s) - parts.abs_power(s)).frobenius() <= 1e-14, (seed, s)
