import numpy as np
import pytest

from qop.errors import PreconditionError, ShapeError, StructureError
from qop.generators import ginibre, random_unitary, unit_vector
from qop.linalg import (MAX_DIM, QMatrix, QVector, _selfadjoint_residual, embed_chi, inner,
                        left_scalar_mul, operator_norm, outer, unembed_chi,
                        verify_hilbert_basis)
from qop.quaternion import I, J, K, Quaternion
from qop.rng import SplitMix64
from quaternion_reference import conjugate, hamilton, matmul_components


def _rand_vec(n, seed):
    return QVector(SplitMix64(seed).normals(4 * n).reshape(n, 4))


def test_inner_is_conjugate_symmetric_and_right_linear():
    u = _rand_vec(5, 1)
    v = _rand_vec(5, 2)
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert inner(u, v).conjugate().isclose(inner(v, u), tol=1e-12)
    # right slot: <u, v q> = <u, v> q
    lhs = inner(u, v * q)
    rhs = inner(u, v) * q
    assert lhs.isclose(rhs, tol=1e-12)
    # left slot picks up the conjugate: <u q, v> = conj(q) <u, v>
    lhs2 = inner(u * q, v)
    rhs2 = q.conjugate() * inner(u, v)
    assert lhs2.isclose(rhs2, tol=1e-12)


def test_inner_norm_consistency():
    u = _rand_vec(6, 3)
    assert abs(inner(u, u).w - u.norm() ** 2) <= 1e-12 * max(1.0, u.norm() ** 2)


def test_left_scalar_mul_is_basis_dependent_left_action():
    u = _rand_vec(4, 4)
    q = Quaternion(1.0, 2.0, -0.5, 0.25)
    w = left_scalar_mul(q, u)
    for i in range(4):
        assert w[i].isclose(q * u[i], tol=1e-13)


def test_outer_matches_rank_one_action():
    u = _rand_vec(3, 5)
    v = _rand_vec(3, 6)
    x = _rand_vec(3, 7)
    m = outer(u, v)
    # (u v*) x = u <v, x>
    lhs = m @ x
    rhs = u * inner(v, x)
    assert lhs.allclose(rhs, tol=1e-12)


def test_adjoint_moves_across_inner_product():
    a = ginibre(4, seed=8)
    u = _rand_vec(4, 9)
    v = _rand_vec(4, 10)
    lhs = inner(a @ u, v)
    rhs = inner(u, a.H @ v)
    assert lhs.isclose(rhs, tol=1e-11)


def test_matmul_matches_complex_embedding():
    for seed in range(6):
        a = ginibre(3, seed=2 * seed)
        b = ginibre(3, seed=2 * seed + 1)
        lhs = embed_chi(a @ b)
        rhs = embed_chi(a) @ embed_chi(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_embedding_is_star_homomorphism():
    a = ginibre(4, seed=21)
    assert np.allclose(embed_chi(a.H), embed_chi(a).conj().T, atol=1e-13)
    assert np.allclose(embed_chi(a + a), 2.0 * embed_chi(a), atol=1e-13)


def test_embedding_symplectic_symmetry():
    a = ginibre(3, seed=22)
    m = embed_chi(a)
    n = a.rows
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    assert np.allclose(j @ m.conj() @ np.linalg.inv(j), m, atol=1e-12)


def test_unembed_roundtrip_is_exact():
    a = ginibre(5, seed=23)
    assert unembed_chi(embed_chi(a)).equals_exact(a)


def test_unembed_rejects_structure_violations():
    m = embed_chi(ginibre(2, seed=24))
    m[0, 0] += 1e-3
    with pytest.raises(StructureError):
        unembed_chi(m)
    with pytest.raises(ShapeError):
        unembed_chi(np.zeros((3, 3), dtype=complex))


def test_operator_norm_matches_svd_of_embedding():
    for seed in (31, 32, 33):
        a = ginibre(4, seed=seed)
        ours = operator_norm(a)
        ref = np.linalg.svd(embed_chi(a), compute_uv=False)[0]
        assert abs(ours - ref) <= 1e-9 * max(1.0, ref)


def test_right_scalar_action_on_vectors():
    v = QVector.from_quaternions([I, J])
    w = v * J
    assert w[0] == I * J
    assert w[1] == J * J


def test_matrix_vector_entrywise_hamilton():
    a = QMatrix.from_quaternions([[I, J], [K, Quaternion(1.0, 0.0, 0.0, 0.0)]])
    x = QVector.from_quaternions([J, K])
    y = a @ x
    assert y[0] == I * J + J * K
    assert y[1] == K * J + K


def test_shape_errors():
    a = ginibre(2, seed=40)
    b = ginibre(3, seed=41)
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        a @ _rand_vec(3, 42)


def test_verify_hilbert_basis_accepts_unitary_columns():
    u = random_unitary(4, seed=50)
    cols = [u.column(j) for j in range(4)]
    report = verify_hilbert_basis(cols, n_samples=32, seed=1)
    assert report.is_basis
    assert report.complete
    assert report.max_decomposition_residual <= 1e-10
    assert report.max_parseval_deviation <= 1e-10


def test_verify_hilbert_basis_flags_incomplete_family():
    u = random_unitary(4, seed=51)
    cols = [u.column(j) for j in range(3)]
    report = verify_hilbert_basis(cols, n_samples=16, seed=2)
    assert not report.complete
    assert not report.is_basis
    assert report.max_decomposition_residual > 1e-3


def test_verify_hilbert_basis_rejects_skewed_family():
    v1 = QVector.from_quaternions([Quaternion(1.0, 0, 0, 0), Quaternion(0.2, 0, 0, 0)])
    v2 = QVector.basis(2, 1)
    with pytest.raises(PreconditionError):
        verify_hilbert_basis([v1, v2])


def test_nonsquare_embedding():
    a = ginibre(2, 4, seed=60)
    m = embed_chi(a)
    assert m.shape == (4, 8)
    assert unembed_chi(m).equals_exact(a)


def test_unit_vector_generator_normalized():
    v = unit_vector(5, seed=61)
    assert abs(v.norm() - 1.0) <= 1e-12


def _assert_close(got, want, what):
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    assert err <= 1e-12 * max(1.0, float(np.abs(want).max())), (what, err)


@pytest.mark.parametrize("n", [1, 4, MAX_DIM])
def test_pair_arithmetic_matches_the_hamilton_reference(n):
    k, m = max(n - 1, 1), min(n + 1, MAX_DIM)
    a = ginibre(n, k, seed=70 + n)
    b = ginibre(k, m, seed=71 + n)
    x = _rand_vec(k, 72 + n)
    u, v = _rand_vec(n, 73 + n), _rand_vec(n, 74 + n)
    q = Quaternion(0.3, -1.2, 0.5, 2.0)
    qc = np.array(q.components())
    ac, uc, vc = a.to_array(), u.to_array(), v.to_array()
    _assert_close((a @ b).to_array(), matmul_components(ac, b.to_array()), "QMatrix @ QMatrix")
    _assert_close((a @ x).to_array(), matmul_components(ac, x.to_array()[:, None, :])[:, 0], "QMatrix @ QVector")
    _assert_close(a.H.to_array(), conjugate(ac.transpose(1, 0, 2)), ".H")
    _assert_close(inner(u, v).components(), hamilton(conjugate(uc), vc).sum(axis=0), "inner")
    _assert_close(outer(u, v).to_array(), hamilton(uc[:, None, :], conjugate(vc)[None, :, :]), "outer")
    _assert_close(left_scalar_mul(q, u).to_array(), hamilton(qc[None, :], uc), "left_scalar_mul")
    _assert_close((u * q).to_array(), hamilton(uc, qc[None, :]), "QVector * q")
    _assert_close(a.trace().components(), ac[np.arange(min(n, k)), np.arange(min(n, k))].sum(axis=0), "trace")
    _assert_close(a.frobenius(), np.sqrt((ac ** 2).sum()), "frobenius")


def test_public_boundary_checks():
    for bad in (0, MAX_DIM + 1):
        with pytest.raises(ShapeError):
            QVector(np.zeros((bad, 4)))
        with pytest.raises(ShapeError):
            QMatrix(np.zeros((bad, 2, 4)))
        with pytest.raises(ShapeError):
            QMatrix(np.zeros((2, bad, 4)))
        with pytest.raises(ShapeError):
            QMatrix.zeros(bad)
        with pytest.raises(ShapeError):
            QMatrix.identity(bad)
        with pytest.raises(ShapeError):
            QVector.zeros(bad)
    for value in (np.nan, np.inf, -np.inf):
        c = np.zeros((2, 2, 4))
        c[1, 0, 3] = value
        with pytest.raises(StructureError):
            QMatrix(c)
        with pytest.raises(StructureError):
            QVector(c[1])
    with pytest.raises(ShapeError):
        unembed_chi(np.zeros((130, 130)))
    with pytest.raises(StructureError):
        unembed_chi(np.full((4, 4), np.nan))
    with pytest.raises(StructureError):
        unembed_chi(np.full((4, 4), np.nan), check=False)
    big = QMatrix(np.full((2, 2, 4), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StructureError):
            big @ big
        with pytest.raises(StructureError):
            big @ QVector(np.full((2, 4), 1e200))


@pytest.mark.parametrize("n", [1, 4, 64])
def test_selfadjoint_residual_is_the_frobenius_of_a_minus_adjoint(n):
    g = ginibre(n, seed=250 + n)
    for a in (g, g + g.H, g @ g.H, QMatrix.identity(n), g * 1e150):
        assert _selfadjoint_residual(a) == (a - a.H).frobenius()
    # an overflowing difference raises as the subtraction does
    c = np.zeros((2, 2, 4))
    c[0, 1, 0], c[1, 0, 0] = 1.5e308, -1.5e308
    big = QMatrix(c)
    with np.errstate(over="ignore"):
        with pytest.raises(StructureError):
            big - big.H
        with pytest.raises(StructureError):
            _selfadjoint_residual(big)


def test_constructors_and_to_array_copy():
    c = np.ones((2, 3, 4))
    a = QMatrix(c)
    c[0, 0] = 5.0
    assert a.entry(0, 0) == Quaternion(1.0, 1.0, 1.0, 1.0)
    a.to_array()[0, 0] = 7.0
    assert a.entry(0, 0) == Quaternion(1.0, 1.0, 1.0, 1.0)
    vc = np.ones((2, 4))
    v = QVector(vc)
    vc[1] = -3.0
    assert v[1] == Quaternion(1.0, 1.0, 1.0, 1.0)
    # signed zeros survive the round trip through the pair
    z = np.array([[-0.0, 0.0, -0.0, 1.0]])
    assert np.array_equal(np.signbit(QVector(z).to_array()), np.signbit(z))
