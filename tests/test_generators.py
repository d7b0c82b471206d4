import numpy as np
import pytest

from qop import generators
from qop.errors import DomainError, ShapeError
from qop.generators import (ginibre, hermitian, near_normal, normal_with_spectrum,
                            ordered_pair, partial_isometry, positive,
                            random_unitary, unit_vector)
from qop.linalg import QMatrix
from qop.quaternion import Quaternion
from qop.spectral import is_psd, rayleigh_bounds, spherical_spectrum


def test_determinism():
    a = ginibre(4, seed=900)
    b = ginibre(4, seed=900)
    assert a.equals_exact(b)
    assert not a.equals_exact(ginibre(4, seed=901))


def test_hermitian_is_selfadjoint():
    h = hermitian(5, seed=902)
    assert (h - h.H).frobenius() <= 1e-14


def test_positive_is_psd_always():
    for seed in range(903, 933):
        t = positive(3, seed=seed)
        ok, lo = is_psd(t)
        assert ok, f"seed {seed} gave min eigenvalue {lo}"


def test_ordered_pair_dominance_by_construction():
    for seed in range(933, 963):
        a, b = ordered_pair(3, seed=seed)
        assert rayleigh_bounds(0.5 * ((a - b) + (a - b).H))[0] >= -1e-10
        ok, _ = is_psd(b)
        assert ok


def test_random_unitary():
    u = random_unitary(4, seed=963)
    ident = QMatrix.identity(4)
    assert (u.H @ u - ident).frobenius() <= 1e-9
    assert (u @ u.H - ident).frobenius() <= 1e-9


def test_normal_with_spectrum_roundtrip():
    vals = [Quaternion(2.0, 0.0, 0.0, 0.0), Quaternion(3.0, 0.0, 0.0, 0.0)]
    t = normal_with_spectrum(vals, seed=964)
    spec = spherical_spectrum(t)
    assert spec.classes == pytest.approx([2.0 + 0.0j, 3.0 + 0.0j], abs=1e-8)
    comm = t.H @ t - t @ t.H
    assert comm.frobenius() <= 1e-9 * max(1.0, t.frobenius() ** 2)


def test_partial_isometry_defect():
    v = partial_isometry(4, 2, seed=965)
    gram = v.H @ v
    # projection of rank 2
    assert (gram @ gram - gram).frobenius() <= 1e-9
    assert abs(gram.trace().w - 2.0) <= 1e-9


def test_partial_isometry_rejects_a_non_integer_defect_before_drawing(monkeypatch):
    monkeypatch.setattr(generators, "block_normals", lambda *a: pytest.fail("drew"))
    with pytest.raises(DomainError, match=r"^defect must be an integer, got 1\.5$"):
        partial_isometry(4, 1.5, seed=1)
    for defect in (-1, 5):
        with pytest.raises(DomainError, match=rf"^defect must lie in \[0, 4\], got {defect}$"):
            partial_isometry(4, defect, seed=1)


def test_normal_with_spectrum_takes_an_array():
    t = normal_with_spectrum(np.array([1.0, 2.0]), seed=1)
    assert t.to_array().tobytes() == normal_with_spectrum([1.0, 2.0], seed=1).to_array().tobytes()


def test_near_normal_perturbation_size():
    t0 = near_normal(3, 0.0, seed=966)
    t1 = near_normal(3, 1e-3, seed=966)
    diff = (t1 - t0).frobenius()
    assert 0.0 < diff <= 1e-3 * 10.0


def test_near_normal_rejects_a_nonfinite_perturbation_size():
    for eps in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(DomainError, match="perturbation size must be finite and nonnegative"):
            near_normal(3, eps, seed=966)


def test_unit_vector_norm_and_determinism():
    v = unit_vector(6, seed=967)
    w = unit_vector(6, seed=967)
    assert abs(v.norm() - 1.0) <= 1e-12
    assert v.allclose(w, tol=0.0)


def test_dimension_bounds():
    with pytest.raises(ShapeError):
        ginibre(0, seed=1)
    with pytest.raises(ShapeError):
        ginibre(65, seed=1)
    with pytest.raises(ShapeError, match=r"dimension must be an integer, got 2\.0$"):
        ginibre(2.0, seed=1)


def test_normal_with_spectrum_names_a_long_spectrum_as_every_generator_does():
    with pytest.raises(ShapeError, match=r"^dimension must lie in \[1, 64\], got 65$"):
        normal_with_spectrum([1.0] * 65, seed=1)
