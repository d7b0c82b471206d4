"""Inputs on both sides of a module-constant cutoff.

T(d) = W diag(d) W*, with W = random_unitary(3, seed=1), is self-adjoint
with eigenvalues d, and T_s = T(1, 0.5, s) has sigma_min / sigma_max = s.
Each test puts one entry of d a factor of 10 on either side of where one
cutoff decides and asserts literal results, reading no constant, so moving
the cutoff 1e3-fold either way fails it.  The kernel-gap and Gram-Schmidt
cutoffs decide only where a solver errs, and the pencil's real-root and
bisection cutoffs only where a root's imaginary part, or a piece's bound,
is of their size, so their tests feed the error in: a stubbed eigenvalue
solve, and a basis given by hand.  The default tolerance is met by a margin
built in closed form.
"""

import math

import numpy as np
import pytest

from qop import _eig, spectral
from qop.errors import DomainError, StructureError
from qop.generators import normal_with_spectrum, random_unitary
from qop.linalg import QMatrix
from qop.oracles import check_kernel_reduction, invert, is_p_hyponormal, is_paranormal
from qop.spectral import (eigh_q, kernel_basis, power_psd, spherical_eigenspace,
                          spherical_point_spectrum, spherical_spectrum)
from qop.transforms import polar


def _op(d):
    w = random_unitary(3, seed=1)
    return w @ QMatrix.diag(d) @ w.H


def _t(s):
    return _op([1.0, 0.5, s])


def test_polar_rank_cutoff_lies_between_1e_13_and_1e_11():
    assert polar(_t(1e-11)).rank == 3
    assert polar(_t(1e-13)).rank == 2


def test_invert_cutoff_lies_between_1e_11_and_1e_9():
    invert(_t(1e-9))
    with pytest.raises(DomainError, match="singular"):
        invert(_t(1e-11))


def test_kernel_cutoff_lies_between_1e_9_and_1e_7():
    assert len(kernel_basis(_t(1e-7))) == 0
    assert check_kernel_reduction(_t(1e-7)).dim_ker == 0
    assert len(kernel_basis(_t(1e-9))) == 1
    assert check_kernel_reduction(_t(1e-9)).dim_ker == 1


def test_clamp_cutoff_lies_between_1e_9_and_1e_7():
    power_psd(_op([1.0, 0.5, -1e-9]), 0.5)
    with pytest.raises(DomainError, match="not positive semidefinite"):
        power_psd(_op([1.0, 0.5, -1e-7]), 0.5)


def test_cluster_cutoff_lies_between_1e_9_and_1e_7():
    assert len(set(eigh_q(_op([1.0, 1.0 + 1e-9, 0.5])).eigenvalues)) == 2
    assert len(set(eigh_q(_op([1.0, 1.0 + 1e-7, 0.5])).eigenvalues)) == 3


def test_merge_cutoff_lies_between_1e_7_and_1e_5():
    spectrum = lambda d: spherical_spectrum(normal_with_spectrum([1.0, 1.0 + d, 0.5], seed=1))
    assert spectrum(1e-7).multiplicities == (1, 2)
    assert spectrum(1e-5).multiplicities == (1, 1, 1)


def test_eigenspace_cutoff_lies_between_1e_4_and_1e_2():
    assert len(spherical_eigenspace(_op([1.0 + 1e-4, 2.0, 3.0]), 1 + 0j)) == 1
    assert len(spherical_eigenspace(_op([1.0 + 1e-2, 2.0, 3.0]), 1 + 0j)) == 0


def test_kernel_gap_cutoff_lies_between_1e_7_and_1e_5(monkeypatch):
    # the eigenvalues near 1 of diag(1, 3) moved by delta: Delta_c of the
    # class 1 + delta has the kernel gap delta^2 / ||Delta_c||_F
    real = _eig.eigvals
    for delta, ok in ((6.3e-4, True), (6.3e-3, False)):
        def moved(m, delta=delta):
            w = real(m)
            return np.where(abs(w - 1.0) < 0.5, w + delta, w)

        monkeypatch.setattr(_eig, "eigvals", moved)
        t = QMatrix.diag([1.0, 3.0])
        gap = spectral._kernel_gaps(t, [1.0 + delta + 0j])[0]
        assert gap == pytest.approx(delta ** 2 / 4.0, rel=0.01)
        if ok:
            assert spherical_point_spectrum(t).classes[0] == pytest.approx(1.0 + delta)
        else:
            with pytest.raises(StructureError, match=r"class \(1\.0063\+0j\) reported but "
                               "Delta has no kernel"):
                spherical_point_spectrum(t)


def test_gram_schmidt_cutoff_lies_between_1e_7_and_1e_5():
    # psi(e_1), and psi(e_1 j) + eps psi(e_2) normalised: once e_1's line is
    # removed, the second column keeps a norm of about eps
    for eps, ok in ((1e-5, True), (1e-7, False)):
        v = np.zeros((6, 2), dtype=np.complex128)
        v[0, 0], v[3, 1], v[1, 1] = 1.0, -1.0, eps
        v[:, 1] /= np.linalg.norm(v[:, 1])
        if ok:
            assert spectral._quaternionic_bases(v[None], 2).shape == (1, 2, 6)
        else:
            with pytest.raises(StructureError, match="produced 1 of 2 vectors"):
                spectral._quaternionic_bases(v[None], 2)


def test_real_root_cutoff_lies_between_1e_6_and_1e_4(monkeypatch, solver_calls):
    # T = I, so ||T|| = 1 and g(lam) = (lam - 1)^2; the pencil roots are stubbed
    # as 2 +- i delta, each twice, as chi doubles them.  A kept root adds the
    # knot 2 and the midpoint 1, where g reads 0; a dropped one leaves lam = 0
    for delta, lams, value in ((1e-6, 3, 0.0), (1e-4, 1, 1.0)):
        solver_calls.clear()
        roots = np.array([2 + delta * 1j, 2 - delta * 1j] * 2)
        monkeypatch.setattr(_eig, "eigvals", lambda m, roots=roots: roots)
        assert is_paranormal(QMatrix.identity(2)).value == value
        assert [shape for kind, shape in solver_calls if kind == "eigvalsh"][1] == (lams,)


def test_pencil_bisection_cutoff_lies_between_1e_11_and_1e_9(monkeypatch):
    # T = I, so the scale max(1, ||T||^4) is 1.  The pencil roots are stubbed
    # as the double root r, so [0, r] is split at r / 2 into two pieces of
    # width w = r / 2, and g is stubbed to -1 at every lam: a piece's bound
    # then lies w^2 / 4 below the least g found.  At w^2 / 4 = 1e-11 no piece
    # is split; at 1e-9 every piece is split twice, until w^2 / 4 = 6.25e-11
    real = _eig.eigvalsh
    for gap, solves in ((1e-11, [(3,)]), (1e-9, [(3,), (2,), (4,)])):
        r, shapes = 4.0 * math.sqrt(gap), []
        monkeypatch.setattr(_eig, "eigvals", lambda m, r=r: np.array([r, r], dtype=complex))
        monkeypatch.setattr(_eig, "eigvalsh", lambda m: real(m) if m.ndim == 2 else
                            shapes.append(m.shape[:-2]) or np.full(m.shape[:-1], -1.0))
        assert is_paranormal(QMatrix.identity(2)).value == -1.0
        assert shapes == solves


def test_default_tolerance_lies_between_1e_9_and_1e_7():
    # T = 10 (+) [[0, e], [0, 0]] has ||T||^2 = 100, the scale, and
    # T*T - TT* = diag(0, -e^2, e^2): its margin at p = 1 is -e^2, which
    # holds at 1e-9 of the scale and carries a witness at 1e-7
    for rel, witnessed in ((1e-9, False), (1e-7, True)):
        e = math.sqrt(rel * 100.0)
        m = is_p_hyponormal(QMatrix.from_quaternions([[10.0, 0.0, 0.0], [0.0, 0.0, e],
                                                      [0.0, 0.0, 0.0]]), 1.0)
        assert m.details["scale"] == 100.0
        assert m.value == pytest.approx(-rel * 100.0, rel=1e-12)
        assert m.violated == witnessed
