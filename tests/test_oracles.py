import math

import numpy as np
import pytest

import gcsi_reference

from qop import _eig, harness
from qop.errors import DomainError, PreconditionError
from qop.generators import (ginibre, normal_with_spectrum, positive, random_unitary,
                            unit_vector)
from qop.linalg import QMatrix, QVector
from qop.matio import json_to_vector
from qop.oracles import (check_aluthge_theorems, check_chain_semihypo,
                         check_eigenspace_reducing, check_furuta,
                         check_gcsi_closure, check_gcsi_implies,
                         check_holder_mccarthy, check_kernel_reduction,
                         check_lowner_heinz, check_tu_star, classify_basic,
                         gcsi_margin, gcsi_sweep, invert, is_p_hyponormal,
                         is_paranormal)
from qop.quaternion import I, J, Quaternion
from qop.spectral import eigh_q, is_psd
from qop.transforms import aluthge, polar


def _shift():
    return QMatrix.from_quaternions([[0.0, 1.0], [0.0, 0.0]])


def _pair():
    a = QMatrix.from_quaternions([[2.0, 1.0], [1.0, 1.0]])
    b = QMatrix.from_quaternions([[1.0, 0.0], [0.0, 0.0]])
    return a, b


def _is_basis_vector(payload, n, index):
    v = json_to_vector(payload)
    return v.allclose(QVector.basis(n, index), tol=1e-12)


# ---------------------------------------------------------------- classify


def test_classify_identity():
    c = classify_basic(QMatrix.identity(3))
    assert c.selfadjoint and c.positive and c.normal and c.unitary
    assert c.positive_margin is not None and c.positive_margin >= 1.0 - 1e-12


def test_classify_shift_fails_everything():
    c = classify_basic(_shift())
    assert not (c.selfadjoint or c.positive or c.normal or c.unitary)
    assert c.positive_margin is None
    assert c.normal_residual > 1.0


def test_classify_imaginary_unit():
    c = classify_basic(QMatrix.from_quaternions([[I]]))
    assert c.normal and c.unitary
    assert not c.selfadjoint and not c.positive


def test_classify_rejects_nonsquare():
    with pytest.raises(DomainError):
        classify_basic(QMatrix.zeros(2, 3))


# ----------------------------------------------------------- p-hyponormal


def test_hyponormal_margin_of_shift_is_minus_one():
    m = is_p_hyponormal(_shift(), 1.0)
    assert m.value == pytest.approx(-1.0, abs=1e-12)
    assert m.violated
    assert m.witness["p"] == 1.0
    # minimizing direction is the first basis vector up to phase
    v = json_to_vector(m.witness["vector"])
    assert abs(v[0].norm() - 1.0) <= 1e-8 and abs(v[1].norm()) <= 1e-8


def test_hyponormal_accepts_normal_and_unitary():
    u = random_unitary(3, seed=301)
    t = positive(3, seed=302)
    for p in (0.25, 0.5, 1.0):
        assert is_p_hyponormal(u, p).value >= -1e-10
        assert is_p_hyponormal(t, p).value >= -1e-10
        assert not is_p_hyponormal(u, p).violated


def test_hyponormal_exponent_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            is_p_hyponormal(QMatrix.identity(2), bad)


# ------------------------------------------------------------- paranormal


def test_paranormal_identity_and_positive():
    assert is_paranormal(QMatrix.identity(2)).value >= -1e-12
    m = is_paranormal(positive(3, seed=303), samples=200)
    assert m.value >= -1e-8
    assert not m.violated


def test_paranormal_shift_certified_violation():
    m = is_paranormal(_shift())
    assert m.value == pytest.approx(-1.0, abs=1e-10)
    assert m.violated and "vector" in m.witness
    assert _is_basis_vector(m.witness["vector"], 2, 1)
    assert m.details["grid_margin"] <= -0.99


# ------------------------------------------------------------------- gcsi


def test_gcsi_shift_exact_witness():
    m = gcsi_margin(_shift(), 0.5, budget=64, seed=5)
    assert m.value == pytest.approx(-1.0, abs=1e-12)
    assert m.witness["beta"] == 0.5
    assert _is_basis_vector(m.witness["x"], 2, 1)
    assert _is_basis_vector(m.witness["y"], 2, 0)


def test_gcsi_unitary_passes():
    u = random_unitary(3, seed=304)
    m = gcsi_margin(u, 0.5, budget=200, seed=1)
    assert m.value >= -1e-10
    assert m.witness is None


def test_gcsi_beta_domain():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(DomainError):
            gcsi_margin(QMatrix.identity(2), bad)
    with pytest.raises(DomainError):
        gcsi_margin(QMatrix.identity(2), 0.5, budget=0)
    with pytest.raises(DomainError):
        gcsi_margin(QMatrix.identity(2), 0.5, refine_steps=-1)


def test_gcsi_sweep_shift_violates_every_beta():
    out = gcsi_sweep(_shift(), budget=64, seed=5)
    assert set(out) == {round(0.1 * k, 1) for k in range(1, 11)}
    assert all(m.violated for m in out.values())
    # beta = 0.5 reproduces the single-beta scan on the shared samples
    assert out[0.5].value == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------------- Holder-McCarthy


def test_holder_mccarthy_diagonal_both_branches():
    t = QMatrix.diag([1.0, 4.0])
    x = QVector.from_quaternions([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    up = check_holder_mccarthy(t, x, 2.0)
    assert up.value == pytest.approx(2.25, abs=1e-10)
    assert up.details["lhs"] == pytest.approx(8.5, abs=1e-10)
    down = check_holder_mccarthy(t, x, 0.5)
    assert down.value == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-10)
    assert not up.violated and not down.violated


def test_holder_mccarthy_identity_is_equality():
    x = unit_vector(3, seed=305)
    for r in (0.5, 2.0, 3.0):
        m = check_holder_mccarthy(QMatrix.identity(3), x, r)
        assert abs(m.value) <= 1e-10


def test_holder_mccarthy_domain_errors():
    t = QMatrix.identity(2)
    x = QVector.basis(2, 0)
    for bad in (0.0, -1.0, 1.0):
        with pytest.raises(DomainError):
            check_holder_mccarthy(t, x, bad)
    with pytest.raises(DomainError):
        check_holder_mccarthy(t, QVector.zeros(2), 2.0)


def test_holder_mccarthy_rejects_nonreal_form():
    t = QMatrix.from_quaternions([[I, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        check_holder_mccarthy(t, QVector.basis(2, 0), 2.0)


# ---------------------------------------------------------- Lowner-Heinz


def test_lowner_heinz_holds_inside_band():
    a, b = _pair()
    m = check_lowner_heinz(a, b, 0.5)
    assert m.value == pytest.approx(0.09230287663076098, abs=1e-10)
    assert not m.violated
    for r in (0.0, 0.25, 1.0):
        assert check_lowner_heinz(a, b, r).value >= -1e-10


def test_lowner_heinz_probe_fails_at_two():
    a, b = _pair()
    m = check_lowner_heinz(a, b, 2.0, probe=True)
    assert m.value == pytest.approx(3.0 - math.sqrt(10.0), abs=1e-10)
    assert m.violated
    assert m.witness == {"r": 2.0, "probe": True}


def test_lowner_heinz_guards():
    a, b = _pair()
    with pytest.raises(DomainError):
        check_lowner_heinz(a, b, 2.0)
    with pytest.raises(DomainError):
        check_lowner_heinz(a, b, -0.5)
    with pytest.raises(PreconditionError):
        check_lowner_heinz(b, a, 0.5)


def test_lowner_heinz_reads_t_positivity_from_the_supplied_system(monkeypatch):
    a, b = _pair()
    ssys, tsys = eigh_q(a), eigh_q(b)
    calls = []
    real = _eig.eigvalsh
    monkeypatch.setattr(_eig, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    given = check_lowner_heinz(a, b, 0.5, s_system=ssys, t_system=tsys)
    # S - T >= 0 and the margin itself; T >= 0 comes from t_system
    assert len(calls) == 2
    assert given.value == check_lowner_heinz(a, b, 0.5, s_system=ssys).value
    # the precondition is not weakened: negative T and non-self-adjoint T still fail
    neg = b * -1.0
    with pytest.raises(PreconditionError, match="lower operator is not positive"):
        check_lowner_heinz(a, neg, 0.5, t_system=eigh_q(neg))
    skew = QMatrix.from_quaternions([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionError, match="not self-adjoint"):
        check_lowner_heinz(a, skew, 0.5, t_system=tsys)
    for t in (b, neg, a - b):
        ok, lo = is_psd(t, system=eigh_q(t))
        assert ok == is_psd(t)[0]
        assert lo == pytest.approx(is_psd(t)[1], abs=1e-14)


def test_lowner_heinz_reads_the_order_from_a_supplied_difference_system(monkeypatch):
    a, b = _pair()
    ssys, tsys, dsys = eigh_q(a), eigh_q(b), eigh_q(a - b)
    calls = []
    real = _eig.eigvalsh
    monkeypatch.setattr(_eig, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    given = check_lowner_heinz(a, b, 0.5, s_system=ssys, t_system=tsys, diff_system=dsys)
    # only the margin itself: both halves of the order come from the systems
    assert len(calls) == 1
    assert given.value == check_lowner_heinz(a, b, 0.5).value
    # the order is still proved: a reversed pair fails on its own difference system
    with pytest.raises(PreconditionError, match="operators are not ordered"):
        check_lowner_heinz(b, a, 0.5, s_system=tsys, t_system=ssys,
                           diff_system=eigh_q(b - a))
    # one S - T solve per pair: the nine-exponent grid costs one eigvalsh per exponent
    calls.clear()
    harness.run_verify("lowner-heinz", trials=4, seed=1, dim=4)
    assert len(calls) == 4 * len(harness.LH_R_GRID)


# ----------------------------------------------------------------- Furuta


def test_furuta_bracket_margins_frozen():
    a, b = _pair()
    m1, m2 = check_furuta(a, b, 2.0, 2.0, 1.0)
    assert m1.value == pytest.approx(0.0, abs=1e-9)
    # A B^2 A = 5 v v^T for v = (2,1)/sqrt(5), so the bracket root is
    # sqrt(5) v v^T and the margin is the closed-form minimum eigenvalue.
    # The bracket's exact zero eigenvalue is computed with ~eps * lambda_max
    # smear and enters the margin through a square root, so the oracle sits
    # a few 1e-9 off the closed form; 1e-8 is its honest floor here.
    tr = 7.0 - math.sqrt(5.0)
    det = 1.0 - 1.0 / math.sqrt(5.0)
    exact = (tr - math.sqrt(tr * tr - 4.0 * det)) / 2.0
    assert exact == pytest.approx(0.11900872613606772, abs=1e-15)
    assert m2.value == pytest.approx(exact, abs=1e-8)
    assert not m1.violated and not m2.violated


def test_furuta_degenerate_cases():
    a, b = _pair()
    m1, m2 = check_furuta(a, a, 2.0, 2.0, 1.0)
    assert m1.value >= -1e-9 and m2.value >= -1e-9
    # p=1, q=1, r=0 collapses both displays to the raw order A >= B
    m1, m2 = check_furuta(a, b, 1.0, 1.0, 0.0)
    assert m1.value >= -1e-10 and m2.value >= -1e-10


def test_furuta_guards():
    a, b = _pair()
    with pytest.raises(PreconditionError):
        check_furuta(a, b, 3.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        check_furuta(a, b, -1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        check_furuta(a, b, 1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        check_furuta(a, b, 1.0, 1.0, -1.0)
    with pytest.raises(PreconditionError):
        check_furuta(b, a, 1.0, 1.0, 0.0)


# ------------------------------------------------------------------ chain


def test_chain_unitary_is_tight():
    u = random_unitary(3, seed=306)
    m1, m2 = check_chain_semihypo(u)
    assert abs(m1.value) <= 1e-9 and abs(m2.value) <= 1e-9


def test_chain_enforces_membership():
    with pytest.raises(PreconditionError):
        check_chain_semihypo(_shift())
    m1, m2 = check_chain_semihypo(_shift(), enforce=False)
    assert m1.value == pytest.approx(-1.0, abs=1e-10)
    assert m2.value == pytest.approx(-1.0, abs=1e-10)
    assert m1.violated and m2.violated


# ---------------------------------------------------------------- Aluthge


def test_aluthge_theorems_on_normal():
    t = QMatrix.diag([Quaternion(1.0, 1.0, 0.0, 0.0), Quaternion(0.0, 0.0, 2.0, 0.0)])
    rep = check_aluthge_theorems(t, 0.75)
    assert rep.transform_margin.value >= -1e-9
    assert all(m.value >= -1e-9 for _, m in rep.monotone)
    assert [q for q, _ in rep.monotone] == [0.75, 0.5625, 0.375, 0.1875]
    assert rep.double_reading_a is not None
    assert rep.double_reading_a.value >= -1e-9
    assert rep.double_reading_b.value >= -1e-9


def test_aluthge_small_exponent_reading():
    u = random_unitary(2, seed=307)
    rep = check_aluthge_theorems(u, 0.25)
    # below 1/2 the strong double-transform reading does not apply
    assert rep.double_reading_a is None
    assert rep.double_reading_b.value >= -1e-9
    assert rep.transform_margin.value >= -1e-9


def test_aluthge_guards():
    u = random_unitary(2, seed=308)
    with pytest.raises(DomainError):
        check_aluthge_theorems(u, 0.0)
    with pytest.raises(DomainError):
        check_aluthge_theorems(u, 1.5)
    with pytest.raises(DomainError):
        check_aluthge_theorems(u, 0.5, q_grid=[0.75])
    with pytest.raises(PreconditionError):
        check_aluthge_theorems(_shift(), 0.5)


def test_enforced_oracles_factor_each_operator_once(monkeypatch):
    # one SVD each for T, its transform and the double transform: the
    # hypothesis checks and the monotone ladder reuse the polar parts
    t = normal_with_spectrum([1.0, 2j, 3.0, 1 + 1j], seed=3)
    parts = polar(t)
    assert is_p_hyponormal(t, 0.3, parts=parts).value == is_p_hyponormal(t, 0.3).value
    real = _eig.svd
    calls = []
    monkeypatch.setattr(_eig, "svd", lambda m: calls.append(m.shape) or real(m))
    check_aluthge_theorems(t, 0.75)
    assert len(calls) == 3
    calls.clear()
    check_chain_semihypo(t)
    assert len(calls) == 1
    # the report carries the transform, so the aluthge trial's fixed-point
    # margin does not factor T again: per trial one SVD in the generator and
    # three in the oracle
    assert check_aluthge_theorems(t, 0.75).transform.equals_exact(aluthge(t))
    calls.clear()
    harness.run_verify("aluthge", trials=4, seed=1, dim=4)
    assert len(calls) == 16


# ------------------------------------------------------------- eigenspace


def test_eigenspace_reducing_scalar_and_diagonal():
    m = check_eigenspace_reducing(QMatrix.from_quaternions([[I]]), I)
    assert m.value == pytest.approx(0.0, abs=1e-12)
    assert m.details["kernel_dim"] == 1

    t = QMatrix.diag([I, Quaternion(0.0, 0.0, 0.0, 3.0)])
    m = check_eigenspace_reducing(t, I)
    # the polar unitary is diag(i, k) and i, k share a similarity
    # sphere, so the eigensphere kernel is the whole space
    assert m.details["kernel_dim"] == 2
    assert m.value >= -1e-9


def test_eigenspace_reducing_proper_subspace():
    t = QMatrix.diag([I, Quaternion(3.0, 0.0, 0.0, 0.0)])
    m = check_eigenspace_reducing(t, I)
    assert m.details["kernel_dim"] == 1
    assert m.value >= -1e-9
    assert not m.violated


def test_eigenspace_reducing_guards():
    t = QMatrix.diag([I, Quaternion(3.0, 0.0, 0.0, 0.0)])
    with pytest.raises(DomainError):
        check_eigenspace_reducing(t, Quaternion(0.0, 2.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        check_eigenspace_reducing(t, Quaternion(0.6, 0.8, 0.0, 0.0))


# ---------------------------------------------------------------- closure


def test_closure_identity_fixed_points():
    t = QMatrix.identity(2)
    rep = check_gcsi_closure(t, "scalar", scalar=2.0, budget=64, seed=9)
    assert rep.base.value >= -1e-12 and rep.transformed.value >= -1e-12
    rep = check_gcsi_closure(t, "inverse", budget=64, seed=9)
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)
    rep = check_gcsi_closure(t, "unitary-equiv", unitary=QMatrix.identity(2),
                             budget=64, seed=9)
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)
    rep = check_gcsi_closure(t, "compression", projector=QMatrix.identity(2),
                             budget=64, seed=9)
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)


def test_closure_guards():
    t = QMatrix.identity(2)
    with pytest.raises(PreconditionError):
        check_gcsi_closure(_shift(), "scalar", budget=64)
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "unitary-equiv", budget=64)
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "compression", budget=64)
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "transpose", budget=64)
    flip = QMatrix.from_quaternions([[0.0, 1.0], [1.0, 0.0]])
    proj = QMatrix.diag([1.0, 0.0])
    with pytest.raises(PreconditionError):
        check_gcsi_closure(flip, "compression", projector=proj, budget=64)


def test_invert_round_trip_and_singular():
    a, _ = _pair()
    ainv = invert(a)
    assert (a @ ainv - QMatrix.identity(2)).frobenius() <= 1e-10
    with pytest.raises(DomainError):
        invert(_shift() @ _shift())


# ----------------------------------------------------------------- kernel


def test_kernel_reduction_shift_fails():
    rep = check_kernel_reduction(_shift())
    assert not rep.passes
    assert rep.dim_ker == 1 and rep.dim_ker_sq == 2
    assert rep.subset_residual == pytest.approx(1.0, abs=1e-12)


def test_kernel_reduction_normal_passes():
    rep = check_kernel_reduction(QMatrix.diag([0.0, Quaternion(0.0, 0.0, 3.0, 0.0)]))
    assert rep.passes
    assert (rep.dim_ker, rep.dim_ker_star, rep.dim_ker_sq) == (1, 1, 1)
    assert rep.subset_residual <= rep.threshold
    rep = check_kernel_reduction(QMatrix.identity(3))
    assert rep.passes and rep.dim_ker == 0


# ---------------------------------------------------------------- TU-star


def test_tu_star_shift_violates():
    m = check_tu_star(_shift(), QVector.basis(2, 0))
    assert m.value == pytest.approx(-1.0, abs=1e-12)
    assert m.violated and "x" in m.witness


def test_tu_star_kernel_and_unitary():
    m = check_tu_star(_shift(), QVector.basis(2, 1))
    assert m.value == pytest.approx(0.0, abs=1e-12)
    assert check_tu_star(QMatrix.identity(2), QVector.basis(2, 0)).value == pytest.approx(0.0, abs=1e-12)
    u = random_unitary(3, seed=309)
    m = check_tu_star(u, unit_vector(3, seed=310))
    assert abs(m.value) <= 1e-10


def _reference_operators():
    """About forty operators of four kinds, dimensions cycling 1, 2, 4, 16."""
    kinds = (random_unitary, ginibre, positive,
             lambda n, seed: invert(ginibre(n, seed=seed)))
    for kind, make in enumerate(kinds):
        for k in range(10):
            n = (1, 2, 4, 16)[k % 4]
            yield f"{kind}:{n}:{k}", make(n, seed=6100 + 10 * kind + k)


def _assert_same_witness(got, want, name):
    assert (got is None) == (want is None), name
    if got is not None:
        for key in ("x", "y"):
            diff = np.abs(json_to_vector(got[key]).to_array()
                          - json_to_vector(want[key]).to_array()).max()
            assert diff <= 1e-10, (name, key, diff)


def test_gcsi_margin_matches_the_per_pair_reference():
    # the complex-side hill-climb against the quaternion-side one it replaced:
    # same stream, same steps, same accept/shrink rule, so the same result
    cases = [(name, t, beta, 400) for name, t in _reference_operators()
             for beta in (0.25, 0.5, 0.75, 1.0)]
    cases.append(("ginibre:64", ginibre(64, seed=6199), 0.5, 1000))
    witnessed = 0
    for name, t, beta, budget in cases:
        got = gcsi_margin(t, beta, budget=budget, seed=17)
        want = gcsi_reference.gcsi_margin(t, beta, budget=budget, seed=17)
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value)), (name, beta)
        _assert_same_witness(got.witness, want.witness, (name, beta))
        witnessed += want.witness is not None
    # both outcomes are exercised
    assert 0 < witnessed < len(cases)


def test_gcsi_sweep_and_paranormal_vectors_match_the_reference():
    for name, t in _reference_operators():
        got = gcsi_sweep(t, budget=300, seed=23)
        want = gcsi_reference.gcsi_sweep(t, budget=300, seed=23)
        for beta, m in want.items():
            assert abs(got[beta].value - m.value) <= 1e-12 * max(1.0, abs(m.value)), (name, beta)
            _assert_same_witness(got[beta].witness, m.witness, (name, beta))
        xs, margins = gcsi_reference.paranormal_vector_margins(t, 300, 29)
        para = is_paranormal(t, grid=16, samples=300, seed=29)
        want_val = float(margins.min())
        assert abs(para.details["vector_margin"] - want_val) <= 1e-12 * max(1.0, abs(want_val)), name
        if para.witness is not None and "vector" in para.witness:
            got_x = json_to_vector(para.witness["vector"]).to_array()
            assert np.array_equal(got_x, xs[int(np.argmin(margins))]), name


def test_vector_oracles_work_on_chi_only(monkeypatch):
    from qop import linalg
    calls = []
    real = linalg._product
    monkeypatch.setattr(linalg, "_product",
                        lambda *args: calls.append(args[0].shape) or real(*args))
    t = ginibre(3, seed=6200)
    gcsi_margin(t, 0.5, budget=40, seed=1)
    gcsi_sweep(t, budget=40, seed=1)
    is_paranormal(t, grid=8, samples=40, seed=1)
    assert calls == []
    t @ t  # the seam is the one quaternionic product
    assert calls == [(3, 3)]


# ------------------------------------------------------------ consistency


def test_gcsi_implies_unitary_consistent():
    rep = check_gcsi_implies(random_unitary(2, seed=311), budget=64,
                             grid=32, samples=64)
    assert not rep.hard_violation and not rep.flagged
    assert rep.p_hyponormal.value >= -1e-10
    assert rep.gcsi.value >= -1e-10
    assert rep.paranormal.value >= -1e-8


def test_gcsi_implies_shift_fails_coherently():
    rep = check_gcsi_implies(_shift(), budget=64, grid=32, samples=64)
    assert rep.p_hyponormal.violated
    assert rep.gcsi.violated
    assert rep.paranormal.violated
    # every stage fails, so neither inconsistency flag may fire
    assert not rep.hard_violation and not rep.flagged
