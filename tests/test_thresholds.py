"""Inputs on both sides of a module-constant cutoff.

T(d) = W diag(d) W*, with W = random_unitary(3, seed=1), is self-adjoint
with eigenvalues d, and T_s = T(1, 0.5, s) has sigma_min / sigma_max = s.
Each test puts one entry of d a factor of 10 on either side of where one
cutoff decides and asserts literal results, reading no constant, so moving
the cutoff 1e3-fold either way fails it.
"""

import pytest

from qop.errors import DomainError
from qop.generators import normal_with_spectrum, random_unitary
from qop.linalg import QMatrix
from qop.oracles import check_kernel_reduction, invert
from qop.spectral import eigh_q, kernel_basis, power_psd, spherical_eigenspace, spherical_spectrum
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
