"""Inputs on both sides of a module-constant cutoff.

T_s = W diag(1, 0.5, s) W*, with W = random_unitary(3, seed=1), has
sigma_min / sigma_max = s.  Each test sets s a factor of 10 on either side
of one cutoff and asserts literal results, reading no constant, so moving
the cutoff 1e3-fold either way fails it.
"""

import pytest

from qop.errors import DomainError
from qop.generators import random_unitary
from qop.linalg import QMatrix
from qop.oracles import check_kernel_reduction, invert
from qop.spectral import kernel_basis
from qop.transforms import polar


def _t(s):
    w = random_unitary(3, seed=1)
    return w @ QMatrix.diag([1.0, 0.5, s]) @ w.H


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
