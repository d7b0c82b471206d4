import math

import numpy as np
import pytest

import gcsi_reference
import margin_reference

from qop import _eig, generators, harness, linalg, oracles
from qop.errors import DomainError, PreconditionError, ShapeError, StructureError
from qop.generators import (ginibre, near_normal, normal_with_spectrum, partial_isometry,
                            positive, random_unitary, unit_vector)
from qop.linalg import (QMatrix, QVector, _pair_eigvalsh, _selfadjoint_residual, embed_chi,
                        inner, operator_norm, unembed_chi)
from qop.matio import json_to_vector, vector_to_json
from qop.oracles import (check_aluthge_theorems, check_chain_semihypo,
                         check_eigenspace_reducing, check_furuta,
                         check_gcsi_closure, check_gcsi_implies,
                         check_holder_mccarthy, check_kernel_reduction,
                         check_lowner_heinz, check_tu_star, classify_basic,
                         gcsi_margin, gcsi_sweep, invert, is_p_hyponormal,
                         is_paranormal)
from qop.quaternion import I, Quaternion
from qop.spectral import _hermitian_matrix, eigh_q, is_psd, spherical_spectrum
from qop.transforms import aluthge, polar, unitary_completion


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


def _classify_two_products(t, tol=oracles.DEFAULT_TOL):
    """classify_basic with its threshold from operator_norm, which forms T*T
    on its own before the gram product below forms it again."""
    thr = tol * max(1.0, operator_norm(t)) ** 2
    sa_res = _selfadjoint_residual(t._a, t._b)
    gram = t.H @ t
    normal_res = (gram - t @ t.H).frobenius()
    unitary_res = (gram - QMatrix.identity(t.rows)).frobenius()
    pos_margin = float(_pair_eigvalsh(t._a, t._b)[0]) if sa_res <= thr else None
    return oracles.BasicClasses(
        selfadjoint=sa_res <= thr, positive=pos_margin is not None and pos_margin >= -thr,
        normal=normal_res <= thr, unitary=unitary_res <= thr, selfadjoint_residual=sa_res,
        positive_margin=pos_margin, normal_residual=normal_res, unitary_residual=unitary_res,
        threshold=thr)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
def test_classify_forms_the_gram_product_once_with_the_same_fields(n):
    # repr compares every field, float bits included
    for t in (ginibre(n, seed=480 + n), random_unitary(n, seed=480 + n),
              positive(n, seed=480 + n), generators.hermitian(n, seed=480 + n),
              near_normal(n, 1e-3, seed=480 + n), partial_isometry(n, n // 3, seed=480 + n),
              QMatrix.identity(n)):
        assert repr(classify_basic(t)) == repr(_classify_two_products(t))
    # T*T overflows: the same product raises first
    big = ginibre(n, seed=480 + n) * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (classify_basic, _classify_two_products):
            with pytest.raises(StructureError, match="QMatrix entries must be finite"):
                fn(big)


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
    m = is_paranormal(positive(3, seed=303))
    assert m.value >= -1e-8
    assert not m.violated


def test_paranormal_shift_certified_violation():
    m = is_paranormal(_shift())
    assert m.value == pytest.approx(-1.0, abs=1e-10)
    assert m.violated and m.witness["lambda"] == pytest.approx(1.0)
    assert _is_basis_vector(m.witness["vector"], 2, 1)


def _tangent_shift(eps, seed):
    """W (S + diag(2, sqrt(512/255))) W*, S the 6x6 cyclic shift with weight 3
    lowered to 1 - eps: the pencil dips to -2 eps at lambda = 1, between the
    roots 1 -+ sqrt(2 eps), and touches 0 at the normal part's tangencies."""
    s = np.zeros((8, 8))
    for i in range(6):
        s[(i + 1) % 6, i] = 1.0 - eps if i == 2 else 1.0
    s[6, 6], s[7, 7] = 2.0, math.sqrt(64 * 8 / 255)
    w = random_unitary(8, seed=seed)
    return w @ QMatrix.from_quaternions(s.tolist()) @ w.H


def _pencil_scan(t):
    """min over 40,001 points of [0, 2 ||T||^2] of the pencil's least eigenvalue."""
    c = embed_chi(t)
    a, b = c.conj().T @ c, (c @ c).conj().T @ (c @ c)
    lams = np.linspace(0.0, 2.0 * operator_norm(t) ** 2, 40001)[:, None, None]
    # 20 stacks of about 2,000 pencils each
    return min(np.linalg.eigvalsh(b - 2.0 * lam * a + lam * lam * np.eye(len(a)))[:, 0].min()
               for lam in np.array_split(lams, 20))


def _assert_paranormal_witness(t, m):
    x = json_to_vector(m.witness["vector"])
    tx = t @ QMatrix.from_columns([x])
    assert (t @ tx).frobenius() * x.norm() - tx.frobenius() ** 2 < 0.0


@pytest.mark.parametrize("eps", [5e-6, 2e-6, 0.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paranormal_finds_the_dip_between_two_close_roots(eps, seed):
    t = _tangent_shift(eps, seed)
    m = is_paranormal(t)
    if eps:
        assert m.violated and m.value <= -1.9 * eps
        assert m.witness["lambda"] == pytest.approx(1.0, abs=1e-3)
        _assert_paranormal_witness(t, m)
    else:
        assert not m.violated and abs(m.value) <= 1e-12 * m.details["scale"]


_FAMILIES = {
    "unitary": lambda n, seed: random_unitary(n, seed=seed),
    "normal": lambda n, seed: normal_with_spectrum(
        [Quaternion(1.0 + k, 0.5 * k, -1.0, 0.25 * seed) for k in range(n)], seed=seed),
    "positive": lambda n, seed: positive(n, seed=seed),
    "ginibre": lambda n, seed: ginibre(n, seed=seed),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n, seeds", [(1, range(3)), (2, range(3)), (4, range(3)), (8, [0])])
def test_paranormal_margin_is_the_pencil_minimum(family, n, seeds):
    # the gcsi-implies families; the margin may lie below a dense scan of the
    # pencil, never above it by more than the refinement's precision
    for seed in seeds:
        t = _FAMILIES[family](n, seed)
        m = is_paranormal(t)
        assert m.value <= _pencil_scan(t) + 1e-9 * m.details["scale"], seed
        if m.violated:
            _assert_paranormal_witness(t, m)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_a_paranormal_matrix_is_normal(n):
    for eps in (1e-1, 1e-2, 1e-3):
        for seed in range(4):
            t = near_normal(n, eps, seed=seed)
            m = is_paranormal(t)
            assert m.violated, (eps, seed)
            _assert_paranormal_witness(t, m)
    for seed in range(4):
        spectrum = [Quaternion(*unit_vector(1, seed=seed + k).to_array()[0]) * (k + 1.0)
                    for k in range(n)]
        for t in (random_unitary(n, seed=seed), positive(n, seed=seed),
                  normal_with_spectrum(spectrum, seed=seed)):
            assert not is_paranormal(t).violated, seed


# ------------------------------------------------------------------- gcsi


def test_gcsi_shift_exact_witness():
    m = gcsi_margin(_shift(), 0.5)
    assert m.value == pytest.approx(-1.0, abs=1e-12)
    assert m.witness["beta"] == 0.5
    assert _is_basis_vector(m.witness["x"], 2, 1)
    assert _is_basis_vector(m.witness["y"], 2, 0)


def test_gcsi_unitary_passes():
    u = random_unitary(3, seed=304)
    m = gcsi_margin(u, 0.5)
    assert m.value >= -1e-10
    assert m.witness is None


def test_gcsi_beta_domain():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(DomainError):
            gcsi_margin(QMatrix.identity(2), bad)


def test_gcsi_sweep_shift_violates_every_beta():
    out = gcsi_sweep(_shift())
    assert set(out) == {round(0.1 * k, 1) for k in range(1, 11)}
    assert all(m.violated for m in out.values())
    # beta = 0.5 reproduces the single-beta search on the shared pairs
    assert out[0.5].value == pytest.approx(-1.0, abs=1e-12)


# ------------------------------------------------------- Holder-McCarthy


def test_holder_mccarthy_diagonal_both_branches():
    t = QMatrix.diag([1.0, 4.0])
    x = QVector.from_quaternions([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    up = check_holder_mccarthy(t, x, (2.0,))
    assert up.value == pytest.approx(2.25, abs=1e-10)
    assert up.details["lhs"] == pytest.approx(8.5, abs=1e-10)
    down = check_holder_mccarthy(t, x, (0.5,))
    assert down.value == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-10)
    assert not up.violated and not down.violated


def test_holder_mccarthy_identity_is_equality():
    x = unit_vector(3, seed=305)
    for r in (0.5, 2.0, 3.0):
        m = check_holder_mccarthy(QMatrix.identity(3), x, (r,))
        assert abs(m.value) <= 1e-10


def test_holder_mccarthy_domain_errors():
    t = QMatrix.identity(2)
    x = QVector.basis(2, 0)
    for bad in (0.0, -1.0, 1.0):
        with pytest.raises(DomainError):
            check_holder_mccarthy(t, x, (bad,))
    with pytest.raises(DomainError):
        check_holder_mccarthy(t, QVector.zeros(2), (2.0,))


def test_holder_mccarthy_rejects_nonreal_form():
    t = QMatrix.from_quaternions([[I, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError):
        check_holder_mccarthy(t, QVector.basis(2, 0), (2.0,))


def test_holder_mccarthy_names_a_form_that_is_not_real():
    # T passes the self-adjointness check, relative to ||T||, but its skew
    # part of 3e-9 meets a vector of norm 1000 in T's near-kernel, where
    # <Tx, x> is about 1e-3: the form's imaginary part is not round-off
    w = random_unitary(3, seed=1)
    arr = (w @ QMatrix.diag([1.0, 0.5, 1e-6]) @ w.H).to_array()
    arr[0, 1, 1] += 3e-9
    arr[1, 0, 1] += 3e-9
    with pytest.raises(PreconditionError, match="^quadratic form is not real"):
        check_holder_mccarthy(QMatrix(arr), w.column(2) * 1000.0, [0.5])


def test_margin_witnesses_strictly_below_the_scaled_tolerance():
    tol, scale = 1e-8, 3.0
    edge = -tol * scale
    calls = []
    witness = lambda: calls.append(1) or {"at": "edge"}
    m = oracles._margin(edge, tol, scale, witness, r=0.5)
    assert m.witness is None and calls == []
    assert m.details == {"r": 0.5, "scale": scale} and list(m.details) == ["r", "scale"]
    below = oracles._margin(float(np.nextafter(edge, -np.inf)), tol, scale, witness)
    assert below.witness == {"at": "edge"} and calls == [1]
    assert below.details == {"scale": scale} and below.tolerance == tol


# ---------------------------------------------------------- Lowner-Heinz


def test_lowner_heinz_holds_inside_band():
    a, b = _pair()
    m = check_lowner_heinz(a, b, (0.5,))
    assert m.value == pytest.approx(0.09230287663076098, abs=1e-10)
    assert not m.violated
    for r in (0.0, 0.25, 1.0):
        assert check_lowner_heinz(a, b, (r,)).value >= -1e-10


def test_lowner_heinz_probe_fails_at_two():
    a, b = _pair()
    m = check_lowner_heinz(a, b, (2.0,), probe=True)
    assert m.value == pytest.approx(3.0 - math.sqrt(10.0), abs=1e-10)
    assert m.violated
    assert m.witness == {"r": 2.0, "probe": True}


def test_lowner_heinz_guards():
    a, b = _pair()
    with pytest.raises(DomainError):
        check_lowner_heinz(a, b, (2.0,))
    with pytest.raises(DomainError):
        check_lowner_heinz(a, b, (-0.5,))
    with pytest.raises(PreconditionError):
        check_lowner_heinz(b, a, (0.5,))


def test_lowner_heinz_checks_the_order_before_solving_either_operator():
    a, b = _pair()
    neg = b * -1.0
    with pytest.raises(PreconditionError, match="lower operator is not positive"):
        check_lowner_heinz(a, neg, (0.5,))
    with pytest.raises(PreconditionError, match="operators are not ordered"):
        check_lowner_heinz(b, a, (0.5,))
    # a pair failing both T >= 0 and S >= T is reported as unordered
    with pytest.raises(PreconditionError, match="operators are not ordered"):
        check_lowner_heinz(neg * 2.0, neg, (0.5,))
    # T is checked for self-adjointness even when S - T passes
    skew = QMatrix.from_quaternions([[1.0, 1.0], [0.0, 0.0]])
    for s, t in ((a, skew), (a + skew, b + skew)):
        with pytest.raises(PreconditionError, match="not self-adjoint"):
            check_lowner_heinz(s, t, (0.5,))


def test_rejected_shrink_candidate_makes_no_eigensolve(solver_calls):
    a, b = generators.ordered_pair(4, seed=17)
    arr = a.to_array()
    arr[0, 1] = 0.0  # the shrinker's move: S - T is no longer self-adjoint
    for prop, inst in (("lowner-heinz", {"A": QMatrix(arr), "B": b, "r": 0.5}),
                       ("furuta", {"A": QMatrix(arr), "B": b, "p": 2.0, "q": 2.0, "r": 1.0})):
        with pytest.raises(PreconditionError, match="not self-adjoint"):
            harness.evaluate_instance(prop, inst)
    assert solver_calls == []


def test_hermitian_pair_oracles_solve_each_operator_once(solver_calls):
    # each operator role of a chunk of trials, 4 or 16, is solved once in one
    # stacked call: lowner-heinz eigh of S and T, eigvalsh of S - T and of
    # the differences at every exponent of the grid; furuta eigh of A, B and
    # the bracket, eigvalsh of A - B and of the differences; holder-mccarthy
    # eigh of T
    for prop, eigh, eigvalsh in (("lowner-heinz", 2, 2), ("furuta", 3, 2),
                                 ("holder-mccarthy", 1, 0)):
        for trials in (4, 16):
            solver_calls.clear()
            harness.run_verify(prop, trials=trials, seed=1, dim=4)
            calls = solver_calls.kinds("eigh", "eigvalsh")
            assert (calls.count("eigh"), calls.count("eigvalsh")) == (eigh, eigvalsh), (
                prop, trials)


def test_a_lone_broken_pair_fails_its_first_check_before_any_eigh(solver_calls):
    # a batch of one meets the checks in the per-pair order: S - T
    # self-adjoint, its eigenvalues, then T's eigensystem; S is never solved
    a, b = generators.ordered_pair(4, seed=17)
    arr = a.to_array()
    arr[0, 1] = 0.0
    skewed = QMatrix(arr)
    diff = skewed - b
    dev = _selfadjoint_residual(diff._a, diff._b)
    cases = (
        (skewed, b, PreconditionError, f"operator is not self-adjoint (deviation {dev:.3e})", []),
        (QMatrix.diag([1.0, 0.0]), QMatrix.diag([2.0, 0.0]), PreconditionError,
         "operators are not ordered (min eigenvalue -1.000e+00)", ["eigvalsh"]),
        (QMatrix.diag([2.0, 1.0]), QMatrix.diag([1.0, -0.5]), PreconditionError,
         "lower operator is not positive (min eigenvalue -5.000e-01)", ["eigvalsh", "eigh"]),
    )
    for s, t, err, msg, solves in cases:
        for run in (lambda: check_lowner_heinz(s, t, harness.LH_R_GRID),
                    lambda: check_furuta(s, t, 2.0, 2.0, 1.0),
                    lambda: harness.evaluate_instance("lowner-heinz", {"A": s, "B": t, "r": 2.5}),
                    lambda: harness.evaluate_instance(
                        "furuta", {"A": s, "B": t, "p": 3.0, "q": 1.0, "r": 0.2})):
            solver_calls.clear()
            with pytest.raises(err) as info:
                run()
            assert str(info.value) == msg
            assert solver_calls.kinds("eigh", "eigvalsh") == solves, msg


def test_exponent_sequence_returns_the_least_scaled_margin():
    a, b = generators.ordered_pair(4, seed=23)
    t, x = positive(4, seed=24), unit_vector(4, seed=25)
    rs = (0.2, 0.9, 0.5, 0.7)
    for check in (lambda rs: check_lowner_heinz(a, b, rs),
                  lambda rs: check_holder_mccarthy(t, x, rs)):
        singles = [check((r,)) for r in rs]
        worst = min(singles, key=lambda m: m.value / m.details["scale"])
        grid = check(rs)
        assert grid.value == worst.value and grid.details == worst.details
        assert grid.details["r"] == worst.details["r"] in rs
    # ties go to the first exponent: with S = T every difference is exactly 0
    tie = check_lowner_heinz(a, a, (0.7, 0.3, 0.5))
    assert tie.value == 0.0 and tie.details["r"] == 0.7
    e = QMatrix.identity(3)
    tie = check_holder_mccarthy(e, QVector.basis(3, 0), (3.0, 1.5, 2.0))
    assert tie.value == 0.0 and tie.details["r"] == 3.0
    for check in (lambda: check_lowner_heinz(a, b, ()),
                  lambda: check_holder_mccarthy(t, x, ())):
        with pytest.raises(DomainError, match="at least one exponent"):
            check()


# ---------------------------------------------------- stacked exponent grids


_GRID_DIMS = (1, 2, 3, 4, 8, 16, 64)


def _family_operators(n):
    return {"ginibre": ginibre(n, seed=900 + n),
            "random_unitary": random_unitary(n, seed=901 + n),
            "positive": positive(n, seed=902 + n),
            "near_normal": near_normal(n, 1e-2, seed=903 + n),
            "partial_isometry": partial_isometry(n, n // 2, seed=904 + n)}


def _hyponormal_reference(t, p, parts, tol=oracles.DEFAULT_TOL):
    """``is_p_hyponormal`` one exponent at a time, on whole operators: the
    per-exponent path the stacked grid replaced, kept as the reference."""
    star = _hermitian_matrix(parts._w[:, :2 * parts.rank], parts._s ** (2.0 * p))
    diff = parts.abs_power(2.0 * p) - star
    value = float(_pair_eigvalsh(diff._a, diff._b)[0])
    scale = max(1.0, max(parts.sigmas) ** (2.0 * p))
    witness = None
    if value < -tol * scale:
        witness = {"p": p, "vector": vector_to_json(margin_reference.bottom_vector(diff))}
    return oracles.Margin(value=value, tolerance=tol, witness=witness,
                          details={"p": p, "scale": scale})


def _lowner_heinz_reference(s, t, r, probe, tol=oracles.DEFAULT_TOL):
    ssys, tsys = eigh_q(s), eigh_q(t)
    diff = ssys.power_psd(r) - tsys.power_psd(r)
    value = float(_pair_eigvalsh(diff._a, diff._b)[0])
    # the top pair mean of S, not the mean of a top cluster
    scale = max(1.0, max(float(ssys._w2[-1]), 0.0) ** r)
    witness = {"r": r, "probe": probe} if value < -tol * scale else None
    return oracles.Margin(value=value, tolerance=tol, witness=witness,
                          details={"r": r, "scale": scale})


def _collapse_reference(t, tol=oracles.DEFAULT_TOL):
    gram, co = t.H @ t, t @ t.H
    scale = max(1.0, operator_norm(t)) ** 2
    parts = polar(t) if (gram - co).frobenius() > 1e-4 * scale else None
    vals = []
    for p in harness.HYP_P_GRID:
        tr_g = eigh_q(gram).power_psd(p).trace().w
        tr_c = eigh_q(co).power_psd(p).trace().w
        vals.append(-abs(tr_g - tr_c) / max(1.0, abs(tr_g), abs(tr_c)))
        if parts is not None and _hyponormal_reference(t, p, parts, tol).value >= 0.0:
            vals.append(-1.0)
    return min(vals)


@pytest.mark.parametrize("n", _GRID_DIMS)
def test_stacked_grids_equal_one_solve_per_exponent(n):
    ps = (1.0, 0.75, 0.5, 0.3, 0.1)
    g = ginibre(n, seed=905 + n)
    for name, t in _family_operators(n).items():
        parts = polar(t)
        want = [_hyponormal_reference(t, p, parts) for p in ps]
        assert oracles._p_hyponormal_grid([parts], [ps], oracles.DEFAULT_TOL) == [want], name
        assert [is_p_hyponormal(t, p) for p in ps] == want, name
        rep = check_aluthge_theorems(t, 0.8, enforce=False)
        qs = [q for q, _ in rep.monotone]
        assert rep.monotone == tuple((q, _hyponormal_reference(t, q, parts)) for q in qs), name
        assert harness.evaluate_instance("collapse", {"T": t}) == _collapse_reference(t), name
        # an ordered pair S >= T >= 0 built on the family's operator
        lower = t.H @ t
        upper = lower + g.H @ g
        for rs, probe in ((harness.LH_R_GRID, False), ((0.0, 0.5, 1.0), False),
                          ((1.5, 3.0, 2.0), True)):
            want = min((_lowner_heinz_reference(upper, lower, r, probe) for r in rs),
                       key=lambda m: m.value / m.details["scale"])
            assert check_lowner_heinz(upper, lower, rs, probe=probe) == want, (name, rs)


def test_order_scales_read_the_top_pair_mean_of_a_clustered_top():
    # S = U diag(2, 2, 2, 1) U*: its top pair means differ by round-off, so
    # the cluster mean that eigh_q reports is not the top pair mean
    u = random_unitary(4, seed=0)
    s = u @ QMatrix(np.diag([2.0, 2.0, 2.0, 1.0])[:, :, None] * [1.0, 0.0, 0.0, 0.0]) @ u.H
    system = eigh_q(s)
    top = float(system._w2[-1])
    assert system.eigenvalues[-1] != top
    lh = check_lowner_heinz(s, s * 0.5, [0.5])
    assert lh.details["scale"] == max(1.0, top ** 0.5)
    for margin in check_furuta(s, s * 0.5, 1.0, 2.0, 0.5):
        assert margin.details["scale"] == max(1.0, top ** 1.0)


def test_stacked_grids_raise_the_per_exponent_errors():
    a, b = generators.ordered_pair(4, seed=23)
    # a non-finite exponent is named before any eigenvalue solve, and a
    # finite one whose weights overflow is caught on its weights
    for rs, probe in (((math.nan,), False), ((0.5, math.nan), False), ((math.inf,), True)):
        with pytest.raises(DomainError, match="exponent r must be finite"):
            check_lowner_heinz(a, b, rs, probe=probe)
    with pytest.raises(DomainError, match="finite reals on the spectrum"), \
            np.errstate(over="ignore"):
        check_lowner_heinz(QMatrix.diag([2.0, 0.0]), QMatrix.diag([1.0, 0.0]), (2000.0,),
                           probe=True)
    # the checks run in the order of one S^r and one T^r per exponent: the
    # clamp on T at r = 0.5 comes before the overflowing weights of r = 2000
    s, t = QMatrix.diag([2.0, 0.0]), QMatrix.diag([1.0, -1e-6])
    with pytest.raises(DomainError, match="not positive semidefinite"):
        check_lowner_heinz(s, t, (0.5, 2000.0), tol=1e-3, probe=True)
    # |T|^2 overflows on the stacked pull-back
    with pytest.raises(StructureError), np.errstate(over="ignore", invalid="ignore"):
        is_p_hyponormal(ginibre(4, seed=1) * 1e160, 1.0)


def test_nonfinite_exponents_raise_on_the_pair_oracles(solver_calls):
    # a NaN exponent passes every sign check, and an infinite one passes in
    # probe mode and in Holder-McCarthy: each is named before any solve, not
    # left to the weigher's "finite reals on the spectrum"
    eye, zero = QMatrix.identity(2), QMatrix.zeros(2, 2)
    a, b = generators.ordered_pair(3, seed=1)
    bad = (math.nan, math.inf, -math.inf)
    for s, t in ((eye, eye), (zero, zero), (a, b)):
        for r in bad:
            for probe in (False, True):
                with pytest.raises(DomainError, match=f"exponent r must be finite, got {r}"):
                    check_lowner_heinz(s, t, (0.5, r), probe=probe)
    for r in bad:
        with pytest.raises(DomainError, match=f"exponent r must be finite, got {r}"):
            check_holder_mccarthy(eye, QVector.basis(2, 0), (2.0, r))
    for value in bad:
        for name, (p, q, r) in (("p", (value, 1.0, 0.5)), ("q", (1.0, value, 0.5)),
                                ("r", (1.0, 1.0, value))):
            for probe in (False, True):
                with pytest.raises(DomainError,
                                   match=f"exponent {name} must be finite, got {value}"):
                    check_furuta(a, b, p, q, r, probe=probe)
    assert solver_calls == []


def test_lazy_report_parts_check_their_arguments_at_the_call():
    u = random_unitary(3, seed=906)
    for tol in (math.nan, -1.0):
        with pytest.raises(DomainError, match="tol must be finite"):
            check_gcsi_implies(u, tol=tol)


def test_exponent_grids_make_one_eigenvalue_solve(solver_calls):
    # per chunk of trials, 4 or 16: the p-hyponormal hypotheses read their
    # margin's verdict, with no ||T|| solve, and every exponent grid of the
    # chunk is one eigenvalue solve.  aluthge: T's hypotheses, T~'s margins,
    # the ladders and the double transforms, with ||T|| read from T's SVD; its
    # SVDs are the unitary draws, T, T~ and T~~.  collapse: T*T and TT*, whose
    # spectrum gives ||T||, and the p grid, and its non-normal T in one SVD;
    # conjugation-lemma the shifts, S and U S U*, and its unitary draws in one SVD
    for prop, counts in (("aluthge", (0, 4, 4)), ("aluthge-gain", (0, 2, 3)),
                         ("gcsi-implies", (1, 1, 2)), ("collapse", (1, 1, 1)),
                         ("conjugation-lemma", (1, 1, 1))):
        for trials in (4, 16):
            solver_calls.clear()
            harness.run_verify(prop, trials=trials, seed=1, dim=4)
            calls = solver_calls.kinds("eigh", "eigvalsh", "svd")
            assert tuple(calls.count(k) for k in ("eigh", "eigvalsh", "svd")) == counts, \
                (prop, trials)


# solver calls of one dim-4 chunk, (eigh, eigvalsh, eigvals, svd): the draws'
# unitaries are one SVD, and each operator role of the chunk is one stacked call
_CHUNK_SOLVES = {
    "aluthge": (0, 4, 0, 4),
    "aluthge-gain": (0, 2, 0, 3),
    "chain": (0, 2, 0, 2),
    "tu-star": (0, 0, 0, 2),
    "eigenspace-reducing": (0, 1, 0, 3),
    "kernel-reduction": (0, 0, 0, 2),
    "spectrum-st-ts": (0, 0, 1, 0),
    "gcsi-implies": (1, 1, 0, 2),
    "collapse": (1, 1, 0, 1),
    # the base Ts in one SVD, which gives each ||T||, V*TV and PTP in one
    # more, and every compression's ||(I - P) T P|| in one eigvalsh; cT and
    # T^-1 take their singular vectors from T's SVD
    "gcsi-closure": (0, 1, 0, 5),
}


@pytest.mark.parametrize("prop", sorted(_CHUNK_SOLVES))
def test_stacked_properties_make_a_fixed_number_of_solves_per_chunk(solver_calls, prop):
    for trials in (4, 16):
        solver_calls.clear()
        harness.run_verify(prop, trials=trials, seed=1, dim=4)
        calls = solver_calls.kinds()
        counts = tuple(calls.count(k) for k in ("eigh", "eigvalsh", "eigvals", "svd"))
        assert counts == _CHUNK_SOLVES[prop], trials
    assert not hasattr(harness, "_run_chunk")


def _holder_mccarthy_reference(t, x, r, tol=oracles.DEFAULT_TOL):
    """``check_holder_mccarthy`` at one exponent, T^r x on a whole operator:
    the per-exponent path the stacked grid replaced, kept as the reference."""
    lhs = inner(eigh_q(t).power_psd(r) @ x, x)
    base = inner(t @ x, x)
    rhs = max(base.w, 0.0) ** r * x.norm() ** (2.0 * (1.0 - r))
    value = lhs.w - rhs if r > 1.0 else rhs - lhs.w
    scale = max(1.0, abs(lhs.w), abs(rhs))
    witness = {"r": r, "x": vector_to_json(x)} if value < -tol * scale else None
    return oracles.Margin(value=value, tolerance=tol, witness=witness,
                          details={"r": r, "lhs": lhs.w, "rhs": rhs, "scale": scale})


@pytest.mark.parametrize("n", (16, 32, 63, 64))
def test_holder_mccarthy_grid_equals_one_product_per_exponent(n):
    # T^r x is taken on a copy of each slice of the stacked grid, so it is
    # the product on a whole matrix bit for bit, also where the slices of
    # the stack sit off the alignment of a fresh array
    for seed in range(3):
        t, x = positive(n, seed=950 + n + seed), unit_vector(n, seed=951 + n + seed)
        want = min((_holder_mccarthy_reference(t, x, r) for r in harness.HM_R_GRID),
                   key=lambda m: m.value / m.details["scale"])
        assert repr(check_holder_mccarthy(t, x, harness.HM_R_GRID)) == repr(want), seed
        inst = {"T": t, "x": x, "r": harness.HM_R_GRID}
        assert harness.evaluate_instance("holder-mccarthy", inst) == want.value / want.details[
            "scale"]


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
    with pytest.raises(PreconditionError):
        check_aluthge_theorems(_shift(), 0.5)


def test_enforced_oracles_factor_each_operator_once(monkeypatch):
    # one SVD each for T, its transform and the double transform: the
    # hypothesis checks and the monotone ladder reuse the polar parts, and
    # the double transform is factored only when a reading of it is read
    t = normal_with_spectrum([1.0, 2j, 3.0, 1 + 1j], seed=3)
    real = _eig.svd
    calls = []
    monkeypatch.setattr(_eig, "svd", lambda m: calls.append(m.shape) or real(m))
    rep = check_aluthge_theorems(t, 0.75)
    rep.monotone
    assert len(calls) == 2
    rep.double_reading_b
    assert len(calls) == 3
    rep.double_reading_a
    assert len(calls) == 3
    calls.clear()
    check_chain_semihypo(t)
    assert len(calls) == 1
    # the report carries the transform, so the aluthge trial's fixed-point
    # margin does not factor T again: a chunk's unitary draws are one SVD,
    # and its Ts, T~s and T~~s one SVD each
    assert check_aluthge_theorems(t, 0.75).transform.equals_exact(aluthge(t))
    calls.clear()
    harness.run_verify("aluthge", trials=4, seed=1, dim=4)
    assert calls == [(4, 8, 8)] * 4
    # collapse factors its non-normal Ts in one SVD and scores every exponent on them
    calls.clear()
    harness.run_verify("collapse", trials=4, seed=1, dim=4)
    assert calls == [(4, 8, 8)]


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
    # |q| = nan fails the unit check, not a structure check further in
    with pytest.raises(DomainError, match="unit quaternion expected"):
        check_eigenspace_reducing(t, Quaternion(math.nan, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------- closure


def test_closure_identity_fixed_points():
    t = QMatrix.identity(2)
    rep = check_gcsi_closure(t, "scalar", scalar=2.0)
    assert rep.base.value >= -1e-12 and rep.transformed.value >= -1e-12
    rep = check_gcsi_closure(t, "inverse")
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)
    rep = check_gcsi_closure(t, "unitary-equiv", unitary=QMatrix.identity(2))
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)
    rep = check_gcsi_closure(t, "compression", projector=QMatrix.identity(2))
    assert rep.transformed.value == pytest.approx(rep.base.value, abs=1e-12)


def test_a_non_finite_closure_scalar_is_named_before_any_solve(solver_calls):
    # an argument error, as an unknown operation is: T is never factored
    u = random_unitary(3, seed=1)
    solver_calls.clear()
    for scalar in (math.inf, -math.inf, math.nan, None, I):
        with pytest.raises(DomainError) as err:
            check_gcsi_closure(u, "scalar", scalar=scalar)
        assert str(err.value) == f"scalar closure needs a finite real scalar, got {scalar!r}"
    assert solver_calls == []
    # a finite real multiple is still factored and searched
    check_gcsi_closure(u, "scalar", scalar=-3)
    assert solver_calls.kinds() == ["svd"]


def test_closure_guards():
    t = QMatrix.identity(2)
    with pytest.raises(PreconditionError):
        check_gcsi_closure(_shift(), "scalar")
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "unitary-equiv")
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "compression")
    with pytest.raises(DomainError):
        check_gcsi_closure(t, "transpose")
    flip = QMatrix.from_quaternions([[0.0, 1.0], [1.0, 0.0]])
    proj = QMatrix.diag([1.0, 0.0])
    with pytest.raises(PreconditionError):
        check_gcsi_closure(flip, "compression", projector=proj)


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
    assert (rep.dim_ker, rep.dim_ker_sq) == (1, 1)
    assert rep.subset_residual <= rep.threshold
    rep = check_kernel_reduction(QMatrix.identity(3))
    assert rep.passes and rep.dim_ker == 0


@pytest.mark.parametrize("check", [check_kernel_reduction, classify_basic, is_paranormal])
@pytest.mark.parametrize("shape", [(4, 3), (3, 4)])
def test_kernel_reduction_needs_a_square_operator(check, shape):
    with pytest.raises(ShapeError) as exc:
        check(ginibre(*shape, seed=1))
    assert str(exc.value) == f"square operator required, got {shape}"


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
    # the basis vectors psi^-1(e_k) and psi^-1(e_{n+k}), and the two singular
    # vectors of one singular value of chi(T), are x and x q for a unit
    # quaternion q, with the same margin: either may come first by round-off
    assert (got is None) == (want is None), name
    if got is not None:
        for key in ("x", "y"):
            overlap = inner(json_to_vector(got[key]), json_to_vector(want[key])).norm()
            assert overlap >= 1.0 - 1e-10, (name, key, overlap)


def test_gcsi_margin_matches_the_per_pair_reference():
    # the stacked complex-side scoring against the candidate set built from
    # its own SVD call and scored a pair at a time on the quaternion side
    cases = [(name, t, beta) for name, t in _reference_operators()
             for beta in (0.25, 0.5, 0.75, 1.0)]
    cases.append(("ginibre:64", ginibre(64, seed=6199), 0.5))
    witnessed = 0
    for name, t, beta in cases:
        got = gcsi_margin(t, beta)
        want = gcsi_reference.gcsi_margin(t, beta)
        assert abs(got.value - want.value) <= 1e-12 * max(1.0, abs(want.value)), (name, beta)
        _assert_same_witness(got.witness, want.witness, (name, beta))
        witnessed += want.witness is not None
    # both outcomes are exercised
    assert 0 < witnessed < len(cases)


def _rotated_nilpotent():
    w = random_unitary(4, seed=1)
    e = np.zeros((4, 4, 4))
    e[0, 1, 0] = 1.0
    return w @ QMatrix(e) @ w.H


@pytest.mark.parametrize("beta, parent", [(0.25, -0.12455207556195896),
                                          (0.5, -0.37009182813905617),
                                          (0.75, -0.4588036905407887),
                                          (1.0, -0.5448214217212162)])
def test_gcsi_margin_nears_the_rotated_nilpotent_minimum(beta, parent):
    """T = W e1 e2* W*, W = random_unitary(4, seed=1), has least margin exactly -1.

    |<Tx, y>| <= ||Tx|| ||y|| <= ||T|| = 1 bounds the margin below by -1, and
    x = W e2, y = W e1 attain it: Tx = W e1, so |<Tx, y>| = 1, while
    Ty = W e1 <e2, e1> = 0 makes ||Tx||^(1 - beta) ||Ty||^beta = 0.  W e2 is
    a right singular vector of T, so a candidate pair reads -1 but for the
    round-off in ||Ty||, about 1e-16, raised to beta: -0.99986 at beta =
    0.25.  A random climb read ``parent`` (budget 1000, seed 0).
    """
    m = gcsi_margin(_rotated_nilpotent(), beta)
    assert -1.0 - 1e-12 <= m.value <= -0.9998
    assert m.violated


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 1.0])
def test_gcsi_margin_finds_the_zero_minimum_of_a_unitary(beta):
    """For a unitary U, ||Ux|| = ||Uy|| = 1, so the margin is 1 - |<Ux, y>| >= 0,
    and y = Ux attains 0.  A random climb read 0.084."""
    m = gcsi_margin(random_unitary(4, seed=2), beta)
    assert -1e-12 <= m.value <= 1e-6
    assert m.witness is None


def test_gcsi_margin_finds_more_near_normal_witnesses_than_the_climb():
    """Every near_normal(n, eps, seed) is not normal, so it has a witness at
    each beta, and a right singular vector of chi(T) gives one.  A random
    climb found none for 36, 34, 31 and 23 of these 36 at beta = 0.25, 0.5,
    0.75 and 1 (budget 1000), and a projected-gradient refinement of a
    sampled scan 20, 12, 21 and 5."""
    ops = [near_normal(n, eps, seed=seed) for n in (2, 4, 8)
           for eps in (1e-1, 1e-2, 1e-3) for seed in range(4)]
    missed = [sum(gcsi_margin(t, beta).witness is None for t in ops)
              for beta in (0.25, 0.5, 0.75, 1.0)]
    assert missed == [0, 0, 0, 0]


def test_gcsi_margin_catches_a_shift_at_its_basis_pair():
    # S e_{i+1} = e_i and S e0 = 0: x = e1 and y = S e1 = e0 give
    # |<Sx, y>| = 1 and Sy = 0, the first pair that reads -1
    a = np.zeros((4, 4, 4))
    a[[0, 1, 2], [1, 2, 3], 0] = 1.0
    for beta in (0.25, 0.5, 1.0):
        m = gcsi_margin(QMatrix(a), beta)
        assert m.value == -1.0 and m.violated
        assert _is_basis_vector(m.witness["x"], 4, 1) and _is_basis_vector(m.witness["y"], 4, 0)


def _commutator_identity(t):
    """(sum_i sigma_i^4 - ||chi(T)^2 v_i||^2, ||chi(T)* chi(T) - chi(T) chi(T)*||_F^2 / 2)
    over the right singular vectors v_i of chi(T) above the cutoff of ``polar``."""
    chi, pp = embed_chi(t), polar(t)
    images = chi @ (chi @ pp._v)
    lhs = float((pp._s ** 4).sum() - (np.abs(images) ** 2).sum())
    gram = chi.conj().T @ chi - chi @ chi.conj().T
    return lhs, float((np.abs(gram) ** 2).sum() / 2.0)


def _rotated_jordan(n, lam, seed):
    """W (lam I + N) W*, with N the shift N e_{i+1} = e_i and W = random_unitary(n, seed)."""
    w = random_unitary(n, seed=seed)
    a = np.zeros((n, n, 4))
    a[np.arange(n - 1), np.arange(1, n), 0] = 1.0
    a[np.arange(n), np.arange(n), 0] = lam
    return w @ QMatrix(a) @ w.H


_IDENTITY_PANEL = {
    **{f"ginibre:{n}": lambda n=n: ginibre(n, seed=6701 + n) for n in (2, 4, 16)},
    **{f"near_normal:6:{seed}": lambda seed=seed: near_normal(6, 1e-3, seed=seed)
       for seed in range(4)},
    "rotated_jordan:5": lambda: _rotated_jordan(5, 0.5, 6700),
    "rotated_nilpotent:4": lambda: _rotated_nilpotent(),
}


@pytest.mark.parametrize("name", sorted(_IDENTITY_PANEL))
def test_the_singular_vectors_carry_the_commutator_identity(name):
    # sum_i (sigma_i^4 - ||T^2 v_i||^2) = ||T*T||_F^2 - ||T^2||_F^2, and
    # ||T^2||_F^2 = <T*T, TT*>_F with ||TT*||_F = ||T*T||_F, so the sum is
    # ||T*T - TT*||_F^2 / 2; kernel vectors add 0 to both sides
    lhs, rhs = _commutator_identity(_IDENTITY_PANEL[name]())
    assert abs(lhs - rhs) <= 1e-9 * rhs, (lhs, rhs)


def test_the_commutator_sum_vanishes_at_normal_operators():
    # a normal operator's commutator is round-off, and so is the sum
    for t in (random_unitary(6, seed=6702), ginibre(1, seed=6702), positive(5, seed=6702)):
        scale = operator_norm(t) ** 4
        lhs, rhs = _commutator_identity(t)
        assert abs(lhs) <= 1e-12 * scale and rhs <= 1e-24 * scale


@pytest.mark.parametrize("n", [4, 8, 16])
def test_gcsi_margin_witnesses_every_non_normal_family(n):
    # every operator below is not normal, so some right singular vector of
    # chi(T) gives a witness at every beta
    w = random_unitary(n, seed=6900 + n)
    shift = np.zeros((n, n, 4))
    shift[np.arange(n - 1), np.arange(1, n), 0] = np.arange(1.0, n)
    shift[np.arange(n), np.arange(n), 0] = 0.25
    block = np.zeros((n, n, 4))
    block[:n // 2, :n // 2] = random_unitary(n // 2, seed=6901 + n).to_array()
    block[n // 2:, n // 2:] = 0.5 * _rotated_jordan(n - n // 2, 0.3, 6902 + n).to_array()
    family = {"ginibre": ginibre(n, seed=6903 + n),
              "near_normal": near_normal(n, 1e-2, seed=6904 + n),
              "rotated_jordan": _rotated_jordan(n, 1.0, 6905 + n),
              "weighted_shift": w @ QMatrix(shift) @ w.H,
              "unitary_plus_contraction": QMatrix(block)}
    for name, t in family.items():
        assert not classify_basic(t).normal, name
        for beta, m in gcsi_sweep(t).items():
            assert m.violated, (name, beta, m.value)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
def test_gcsi_margin_has_no_witness_at_a_normal_operator(n):
    # |<Tx, y>| <= ||Tx|| and |<Tx, y>| = |<x, T*y>| <= ||T*y|| = ||Ty||
    spectrum = [Quaternion(*unit_vector(1, seed=6800 + k).to_array()[0]) * (0.2 + k % 3)
                for k in range(n)]
    for t in (random_unitary(n, seed=6801 + n), positive(n, seed=6802 + n),
              normal_with_spectrum(spectrum, seed=6803 + n)):
        for beta, m in gcsi_sweep(t).items():
            assert m.witness is None and m.value >= -1e-10 * max(1.0, operator_norm(t)), beta


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_stacked_search_equals_one_operator_at_a_time(n):
    # one stack mixes betas 0.5, 1.0, 0.75 and 0.25, where numpy would take
    # x ** 0.5 as sqrt(x) for a scalar exponent, and an operator with a
    # kernel, which has fewer singular vectors above the cutoff; every margin
    # and witness is bit for bit its operator's alone
    kinds = (ginibre, random_unitary, positive, lambda n, seed: near_normal(n, 0.05, seed=seed))
    for k in (1, 2, 5, 8):
        ts = []
        for c in range(k):
            t = kinds[c % 4](n, seed=7000 + 10 * n + k + c)
            if c == 1:
                a = t.to_array()
                a[:, 0] = 0.0
                t = QMatrix(a)
            ts.append(t)
        grids = [((0.5, 1.0, 0.75, 0.25)[c % 4],) for c in range(k)]
        vs = [pp._v for pp in oracles._polars(ts)]
        with np.errstate(divide="raise", invalid="raise"):
            got = oracles._gcsi_search(ts, vs, grids, oracles.DEFAULT_TOL)
        assert len(got) == k
        for t, grid, margins in zip(ts, grids, got):
            alone = oracles._gcsi_search([t], [polar(t)._v], [grid], oracles.DEFAULT_TOL)
            assert alone == [margins], (n, k)


@pytest.mark.parametrize("n", [2, 4, 8, 18, 32, 64])
def test_gathered_basis_images_equal_the_product(n, monkeypatch):
    # a basis vector's image is a column of chi(T); gathering it gives the
    # bits of the one product of every candidate x with chi(T)^T
    seen = []
    real = oracles._gcsi_parts
    monkeypatch.setattr(oracles, "_gcsi_parts", lambda *s: seen.append(s) or real(*s))
    for name, make in _FAMILIES.items():
        t = make(n, 6600 + n)
        chi_t = embed_chi(t)
        gcsi_margin(t, 0.5)
        tx, ty, ys = seen.pop()
        xs = np.concatenate([np.eye(2 * n, dtype=np.complex128), polar(t)._v.T])
        assert np.array_equal(tx, xs @ chi_t.T), name
        assert np.array_equal(ty, ys @ chi_t.T), name


def test_gcsi_implies_checks_every_argument_before_any_solve(monkeypatch):
    calls = []
    for name in ("_gcsi_parts", "_polars"):
        real = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    u = random_unitary(3, seed=908)
    for kw in ({"p": 0.0}, {"p": 1.5}, {"p": math.nan}, {"tol": math.nan}, {"tol": -1.0}):
        with pytest.raises(DomainError):
            check_gcsi_implies(u, **kw)
        assert calls == [], kw
    check_gcsi_implies(u)
    assert calls == ["_polars", "_gcsi_parts"]


def _closure_cases():
    u = random_unitary(4, seed=6500)
    block, proj = harness._block_unitaries(4, [6501])[0]
    yield "scalar", u, {"scalar": 1.5}, u * 1.5
    yield "inverse", u, {}, invert(u)
    v = random_unitary(4, seed=6502)
    yield "unitary-equiv", u, {"unitary": v}, v.H @ u @ v
    yield "compression", block, {"projector": proj}, proj @ block @ proj
    # on a unitary every candidate pair reads 0; on a normal operator with
    # distinct moduli only the singular vectors reach the least margin
    for n in (2, 4, 16):
        t = normal_with_spectrum([complex(0.4 + 0.3 * k, 0.5 - 0.1 * k) for k in range(n)],
                                 seed=6510 + n)
        for scalar in (1.5, -0.75):
            yield "scalar", t, {"scalar": scalar}, t * scalar
        yield "inverse", t, {}, invert(t)


def test_closure_factors_once_and_matches_two_margins(monkeypatch):
    calls = []
    real = oracles._polars
    monkeypatch.setattr(oracles, "_polars", lambda ops: calls.append(len(ops)) or real(ops))
    for which, t, kwargs, s in _closure_cases():
        calls.clear()
        rep = check_gcsi_closure(t, which, **kwargs)
        # the base in one call and V*TV or PTP in one more, which factors
        # nothing for cT and T^-1: they are searched on T's right or
        # reversed left singular vectors
        derived = {"scalar": polar(t)._v, "inverse": polar(t)._w[:, ::-1]}
        assert calls == [1, 0 if which in derived else 1], which
        assert rep.base == gcsi_margin(t, 0.5), which
        vs = [derived[which] if which in derived else polar(s)._v]
        assert [[rep.transformed]] == oracles._gcsi_search([s], vs, [(0.5,)],
                                                           oracles.DEFAULT_TOL), which
        fresh = gcsi_margin(s, 0.5)
        assert abs(rep.transformed.value - fresh.value) <= 1e-13 * max(1.0, operator_norm(s)), \
            which
        assert (rep.transformed.witness is None) == (fresh.witness is None), which
    # argument errors come before any operator is factored, and before the
    # base precondition
    calls.clear()
    u = random_unitary(2, seed=6503)
    for kwargs in ({"beta": 0.0}, {"beta": 1.5}, {"beta": math.nan}):
        with pytest.raises(DomainError):
            check_gcsi_closure(u, "scalar", **kwargs)
    for t in (u, _shift()):
        for which in ("transpose", "unitary-equiv", "compression"):
            with pytest.raises(DomainError):
                check_gcsi_closure(t, which)
            assert not any(calls), which


def test_gcsi_sweep_matches_the_reference():
    for name, t in _reference_operators():
        got = gcsi_sweep(t)
        want = gcsi_reference.gcsi_sweep(t)
        for beta, m in want.items():
            assert abs(got[beta].value - m.value) <= 1e-12 * max(1.0, abs(m.value)), (name, beta)
            _assert_same_witness(got[beta].witness, m.witness, (name, beta))


def test_vector_oracles_work_on_chi_only(monkeypatch):
    from qop import linalg
    calls = []
    real = linalg._product
    monkeypatch.setattr(linalg, "_product",
                        lambda *args: calls.append(args[0].shape) or real(*args))
    t = ginibre(3, seed=6200)
    gcsi_margin(t, 0.5)
    gcsi_sweep(t)
    is_paranormal(t)
    assert calls == []
    t @ t  # the seam is the one quaternionic product
    assert calls == [(3, 3)]


def _tol_calls():
    u, pos, x = random_unitary(3, seed=990), positive(3, seed=991), unit_vector(3, seed=992)
    a, b = generators.ordered_pair(3, seed=993)
    return {
        "classify_basic": lambda tol: classify_basic(u, tol=tol),
        "is_p_hyponormal": lambda tol: is_p_hyponormal(u, 0.5, tol=tol),
        "is_paranormal": lambda tol: is_paranormal(u, tol=tol),
        "gcsi_margin": lambda tol: gcsi_margin(u, 0.5, tol=tol),
        "gcsi_sweep": lambda tol: gcsi_sweep(u, tol=tol),
        "check_holder_mccarthy": lambda tol: check_holder_mccarthy(pos, x, (2.0,), tol=tol),
        "check_lowner_heinz": lambda tol: check_lowner_heinz(a, b, (0.5,), tol=tol),
        "check_furuta": lambda tol: check_furuta(a, b, 1.0, 1.0, 0.0, tol=tol),
        "check_chain_semihypo": lambda tol: check_chain_semihypo(u, tol=tol),
        "check_aluthge_theorems": lambda tol: check_aluthge_theorems(u, 0.5, tol=tol),
        "check_eigenspace_reducing": lambda tol: check_eigenspace_reducing(
            u, Quaternion(1.0, 0.0, 0.0, 0.0), tol=tol),
        "check_gcsi_closure": lambda tol: check_gcsi_closure(u, "scalar", tol=tol),
        "check_kernel_reduction": lambda tol: check_kernel_reduction(u, tol=tol),
        "check_tu_star": lambda tol: check_tu_star(u, x, tol=tol),
        "check_gcsi_implies": lambda tol: check_gcsi_implies(u, tol=tol),
        "is_psd": lambda tol: is_psd(pos, tol),
        "unembed_chi": lambda tol: unembed_chi(embed_chi(u), tol=tol),
    }


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(_tol_calls()))
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_rejected_before_any_solve(
        name, tol, solver_calls):
    # a NaN tolerance compares false with every margin, so it used to switch
    # verdicts off; a negative one counted small margins as violations
    call = _tol_calls()[name]
    solver_calls.clear()  # the operands' draws
    with pytest.raises(DomainError, match="tol must be finite and nonnegative, got"):
        call(tol)
    assert solver_calls == []


# ------------------------------------------------------------ consistency


def test_gcsi_implies_unitary_consistent():
    rep = check_gcsi_implies(random_unitary(2, seed=311))
    assert not rep.hard_violation
    assert rep.p_hyponormal.value >= -1e-10
    assert rep.gcsi.value >= -1e-10


def test_gcsi_implies_shift_fails_coherently():
    rep = check_gcsi_implies(_shift())
    assert rep.p_hyponormal.violated
    assert rep.gcsi.violated
    # both stages fail, so the implication is not contradicted
    assert not rep.hard_violation


def test_no_solver_call_gets_an_empty_stack(solver_calls):
    # a chunk that draws no operator of a role makes no solve for it, as a
    # gcsi-closure chunk without unitary-equiv or compression trials
    for dim in (1, 4, 64):
        for prop in sorted(harness.PROPERTIES):
            harness.run_verify(prop, trials=4, seed=3, dim=dim)
    assert len(solver_calls) > 100
    assert [call for call in solver_calls if 0 in call[1]] == []


@pytest.mark.parametrize("seed", (0, 1))
def test_near_singular_normal_operator_carries_no_p_hyponormal_witness(seed):
    # (TT*)^p is pulled back from W_r, as (T*T)^p is from V_r; the sandwich
    # U |T|^{2p} U* took U's error near sigma = 1e-12 into the margin, and read
    # -2.95e-8 with a witness at p = 0.1, seed 0
    t = normal_with_spectrum([1.0, 0.5, 1e-12, 0.3], seed=seed)
    for p in (0.1, 0.05, 0.01):
        m = is_p_hyponormal(t, p)
        assert m.witness is None and abs(m.value) <= 1e-14, (p, m.value)


@pytest.mark.parametrize("n", (4, 16))
def test_norm_scales_are_the_largest_singular_value(n):
    # tu-star, eigenspace-reducing and kernel-reduction read ||T|| from the
    # SVD that factors T; it must agree with the Gram route of operator_norm
    # (a ||T|| above 1 and a sigma_min below it make the wrong end of the
    # spectrum fail here)
    panel = {"ginibre": ginibre(n, seed=n), "near_normal": near_normal(n, 0.1, seed=n),
             "partial_isometry": partial_isometry(n, n // 4, seed=n),
             "random_unitary": random_unitary(n, seed=n)}
    x = unit_vector(n, seed=n)
    for name, t in panel.items():
        want = max(1.0, operator_norm(t))
        z = spherical_spectrum(unitary_completion(polar(t))).classes[0]
        q = Quaternion(z.real, z.imag, 0.0, 0.0)
        got = (check_tu_star(t, x).details["scale"] / want ** 2,
               check_eigenspace_reducing(t, q).details["scale"] / want,
               check_kernel_reduction(t).threshold / oracles.DEFAULT_TOL / want)
        assert all(abs(g - 1.0) <= 1e-13 for g in got), (name, got)
