"""Per-case results of the stacked oracles.

Each batch mixes cases that pass, cases that fail one check and cases that
fail two; every case must come back as what its lone public call gives:
the same margins, or the same error class and message, in place.
"""

import pytest

from qop import harness, oracles
from qop.errors import DomainError, QopError, StructureError
from qop.generators import (ginibre, hermitian, normal_with_spectrum, ordered_pair, positive,
                            random_unitary, unit_vector)
from qop.linalg import QMatrix, QVector
from qop.oracles import (check_aluthge_theorems, check_chain_semihypo, check_eigenspace_reducing,
                         check_furuta, check_gcsi_closure, check_holder_mccarthy,
                         check_lowner_heinz)
from qop.quaternion import Quaternion
from qop.transforms import polar

TOL = oracles.DEFAULT_TOL


def _lone(call):
    try:
        return call()
    except QopError as exc:
        return exc


def _same(got, want):
    if isinstance(want, QopError):
        return isinstance(got, QopError) and (type(got), str(got)) == (type(want), str(want))
    return not isinstance(got, QopError) and repr(got) == repr(want)


def _assert_per_case(results, lones, expected):
    """Each result is its lone call's; ``expected`` names, per case, the
    start of the lone error's message, or None for a pass."""
    assert len(results) == len(lones) == len(expected)
    for k, (got, want, msg) in enumerate(zip(results, lones, expected)):
        assert _same(got, want), (k, got, want)
        if msg is None:
            assert not isinstance(want, QopError), (k, want)
        else:
            assert isinstance(want, QopError) and str(want).startswith(msg), (k, want)


def _skewed(m):
    arr = m.to_array()
    arr[0, 1] = 0.0
    return QMatrix(arr)


def _diag(*values):
    return QMatrix.diag(list(values))


def _ordered_cases():
    """(S, T, message) pairs of one size for the ordered-pair checks."""
    a, b = ordered_pair(4, seed=17)
    a2, b2 = ordered_pair(4, seed=18)
    not_positive = _diag(1.0, 1.0, 1.0, -0.5)
    return [
        (a, b, None),
        (_skewed(a), b, "operator is not self-adjoint"),
        (b, a, "operators are not ordered"),
        (_diag(2.0, 2.0, 2.0, 1.0), not_positive, "lower operator is not positive"),
        (a2, b2, None),
        # two checks fail; the first one a lone pair meets names the error
        (_skewed(a), not_positive, "operator is not self-adjoint"),
        (_diag(1.0, 1.0, 1.0, -1.0), not_positive, "operators are not ordered"),
        # T >= 0 within tol, yet below the clamp of its powers; then S
        (_diag(1.0, 1.0, 1.0, 0.0), _diag(0.01, 0.01, 0.01, -5e-9),
         "operator is not positive semidefinite (min eigenvalue -5.000e-09)"),
        (_diag(0.01, 0.01, 0.01, -5e-9), _diag(0.005, 0.005, 0.005, 0.0),
         "operator is not positive semidefinite (min eigenvalue -5.000e-09)"),
    ]


def _plus(m, i, j, value):
    """m with ``value`` added to the real part of entry (i, j)."""
    arr = m.to_array()
    arr[i, j, 0] += value
    return QMatrix(arr)


def _boundary_cases():
    """(S, T, message) pairs at 0.5 and 2 times each threshold that
    ``_ordered_systems`` decides on the stack: self-adjointness of S - T and
    of T on the 1e-8 branch (a norm below 1) and on the 1e-8 ||.||_F branch
    (a norm of 200), the order and T >= 0 at -tol max(1, |lambda|) for
    |lambda| of 1 and 100, and CLAMP_TOL on T and on S."""
    rows = []
    one, tenth, hundred = _diag(1.0, 1.0, 1.0, 1.0), _diag(0.1, 0.1, 0.1, 0.1), _diag(*[100.0] * 4)
    zero = QMatrix.zeros(4, 4)
    for f in (0.5, 2.0):
        fails = f > 1.0
        sa = "operator is not self-adjoint" if fails else None
        # ||x - x*||_F = sqrt(2) |e| for an entry e alone off the diagonal
        rows += [(_plus(tenth, 0, 1, f * 1e-8 / 2 ** 0.5), zero, sa),
                 (_plus(hundred, 0, 1, f * 200e-8 / 2 ** 0.5), zero, sa),
                 (_plus(tenth, 0, 1, f * 1e-8 / 2 ** 0.5) + one,
                  _plus(tenth, 0, 1, f * 1e-8 / 2 ** 0.5), sa),
                 (_plus(hundred, 0, 1, f * 200e-8 / 2 ** 0.5) + one,
                  _plus(hundred, 0, 1, f * 200e-8 / 2 ** 0.5), sa)]
        order = "operators are not ordered" if fails else None
        rows += [(one + _diag(1.0, 1.0, 1.0, -f * 1e-8), one, order),
                 (one + _diag(100.0, 100.0, 100.0, -f * 1e-6), one, order)]
        lower = "lower operator is not positive" if fails else None
        rows += [(one + _diag(1.0, 1.0, 1.0, -f * 1e-8), _diag(1.0, 1.0, 1.0, -f * 1e-8), lower),
                 (one + _diag(100.0, 100.0, 100.0, -f * 1e-6),
                  _diag(100.0, 100.0, 100.0, -f * 1e-6), lower)]
        # T >= 0 within tol, and the clamp at CLAMP_TOL times the largest modulus
        clamp = "operator is not positive semidefinite" if fails else None
        low = _diag(0.01, 0.01, 0.01, -f * 1e-10)
        rows += [(one + low, low, clamp), (low, _diag(0.005, 0.005, 0.005, 0.0), clamp)]
    return rows


def test_ordered_pair_thresholds_come_back_one_by_one():
    rows = _boundary_cases()
    expected = [msg for *_, msg in rows]
    cases = [(s, t, (0.3, 0.7), False) for s, t, _ in rows]
    lones = [_lone(lambda c=c: check_lowner_heinz(c[0], c[1], c[2])) for c in cases]
    _assert_per_case(oracles._lowner_heinz_cases(cases, TOL), lones, expected)
    cases = [(s, t, 2.0, 2.0, 1.0, False) for s, t, _ in rows]
    lones = [_lone(lambda c=c: check_furuta(*c[:5])) for c in cases]
    _assert_per_case(oracles._furuta_cases(cases, TOL), lones, expected)


def test_lowner_heinz_cases_come_back_one_by_one():
    rows = _ordered_cases()
    cases = [(s, t, (0.3, 0.7), False) for s, t, _ in rows]
    expected = [msg for *_, msg in rows]
    # a bad exponent is the first check; with a skewed pair it still comes first
    a, b = ordered_pair(4, seed=19)
    cases += [(a, b, (0.5, -1.0), False), (_skewed(a), b, (0.5, 2.0), False),
              (a, b, (0.5, 2.0), True)]
    expected += ["exponent must be nonnegative", "exponent 2.0 outside [0, 1]", None]
    lones = [_lone(lambda c=c: check_lowner_heinz(c[0], c[1], c[2], probe=c[3])) for c in cases]
    _assert_per_case(oracles._lowner_heinz_cases(cases, TOL), lones, expected)


def test_furuta_cases_come_back_one_by_one():
    rows = _ordered_cases()
    cases = [(s, t, 2.0, 2.0, 1.0, False) for s, t, _ in rows]
    expected = [msg for *_, msg in rows]
    a, b = ordered_pair(4, seed=19)
    cases += [(a, b, -1.0, 2.0, 1.0, False), (_skewed(a), b, 3.0, 1.0, 0.2, False),
              (a, b, 3.0, 1.0, 0.2, True)]
    expected += ["need p >= 0", "(1+2r)q >= p+2r fails", None]
    lones = [_lone(lambda c=c: check_furuta(*c[:5], probe=c[5])) for c in cases]
    _assert_per_case(oracles._furuta_cases(cases, TOL), lones, expected)


def test_holder_mccarthy_cases_come_back_one_by_one():
    t, x = positive(4, seed=30), unit_vector(4, seed=31)
    zero = QVector.zeros(4)
    grid = harness.HM_R_GRID
    cases = [(t, x, grid, None),
             (t, zero, grid, "zero vector not allowed"),
             (_skewed(t), x, grid, "operator is not self-adjoint"),
             (_diag(1.0, 1.0, 1.0, -0.5), x, grid, "operator is not positive semidefinite"),
             (positive(4, seed=32), x, grid, None),
             (t, x, (0.5, 1.0), "exponent must be positive and not 1"),
             # two checks fail
             (_skewed(t), zero, grid, "zero vector not allowed"),
             (_diag(1.0, 1.0, 1.0, -0.5), x, (2.0, -1.0), "exponent must be positive")]
    lones = [_lone(lambda c=c: check_holder_mccarthy(*c[:3])) for c in cases]
    _assert_per_case(oracles._holder_mccarthy_cases([c[:3] for c in cases], TOL), lones,
                     [c[3] for c in cases])


def _shift(n):
    rows = [[1.0 if j == i + 1 else 0.0 for j in range(n)] for i in range(n)]
    return QMatrix.from_quaternions(rows)


def test_chain_cases_come_back_one_by_one():
    u = random_unitary(3, seed=40)
    cases = [(u, True, None), (_shift(3), True, "operator is not semi-hyponormal"),
             (_shift(3), False, None), (random_unitary(3, seed=41), True, None),
             (_shift(3) * 2.0, True, "operator is not semi-hyponormal")]
    lones = [_lone(lambda c=c: check_chain_semihypo(c[0], enforce=c[1])) for c in cases]
    _assert_per_case(oracles._chain_cases([c[:2] for c in cases], TOL), lones,
                     [c[2] for c in cases])


def test_aluthge_cases_come_back_one_by_one():
    u = random_unitary(3, seed=42)
    normal = normal_with_spectrum([1.0, Quaternion(0.0, 2.0, 0.0, 0.0), 0.0], seed=43)
    cases = [(u, 0.5, True, None), (_shift(3), 0.5, True, "operator is not 0.5-hyponormal"),
             (u, 1.5, True, "exponent must lie in (0, 1]"), (normal, 0.3, True, None),
             (_shift(3), 0.7, False, None),
             # two checks fail: the exponent comes first
             (_shift(3), 0.0, True, "exponent must lie in (0, 1]")]
    lones = [_lone(lambda c=c: check_aluthge_theorems(c[0], c[1], enforce=c[2])) for c in cases]
    results = oracles._aluthge_cases([c[:3] for c in cases], TOL)[0]
    _assert_per_case(results, lones, [c[3] for c in cases])
    # the lazy parts of a batch's reports are the lone reports' too
    for got, want in zip(results, lones):
        if not isinstance(want, QopError):
            assert repr(got.monotone) == repr(want.monotone)
            assert repr(got.double_reading_b) == repr(want.double_reading_b)
            assert got.transform.to_array().tobytes() == want.transform.to_array().tobytes()


def test_eigenspace_cases_come_back_one_by_one():
    unit = Quaternion(0.6, 0.8, 0.0, 0.0)
    t = normal_with_spectrum([unit * 2.0, 1.0, Quaternion(0.0, 0.0, 1.0, 0.0)], seed=44)
    cases = [(t, unit, None), (t, unit * 2.0, "unit quaternion expected"),
             (t, Quaternion(0.6, -0.8, 0.0, 0.0), None),
             (t, Quaternion(-1.0, 0.0, 0.0, 0.0), "(-1+0j) is not a right eigenvalue"),
             (normal_with_spectrum([1.0, 1.0, 1.0], seed=45), Quaternion(1.0, 0.0, 0.0, 0.0), None),
             # two checks fail: the norm comes first
             (t, Quaternion(-2.0, 0.0, 0.0, 0.0), "unit quaternion expected")]
    lones = [_lone(lambda c=c: check_eigenspace_reducing(*c[:2])) for c in cases]
    _assert_per_case(oracles._eigenspace_cases([c[:2] for c in cases], TOL), lones,
                     [c[2] for c in cases])


def test_gcsi_closure_cases_come_back_one_by_one():
    u, v = random_unitary(2, seed=46), random_unitary(2, seed=47)
    shift = _shift(2)
    zero = QMatrix.zeros(2, 2)
    flip = QMatrix.from_quaternions([[0.0, 1.0], [1.0, 0.0]])
    proj = _diag(1.0, 0.0)
    block = _diag(2.0, 3.0)
    cases = [((u, "scalar", 1.5, None, None), None),
             ((u, "inverse", None, None, None), None),
             ((u, "unitary-equiv", None, v, None), None),
             ((block, "compression", None, None, proj), None),
             ((u, "transpose", None, None, None), "unknown closure operation"),
             ((shift, "scalar", 2.0, None, None), "base operator already violates"),
             ((zero, "inverse", None, None, None), "operator is singular"),
             ((flip, "compression", None, None, proj), "subspace is not invariant"),
             # two checks fail: the arguments, then the base precondition, come first
             ((shift, "unitary-equiv", None, None, None), "unitary-equiv closure needs"),
             ((shift, "inverse", None, None, None), "base operator already violates"),
             ((shift, "compression", None, None, proj), "base operator already violates")]
    lones = [_lone(lambda c=c: check_gcsi_closure(
        c[0], c[1], beta=0.5, scalar=2.0 if c[2] is None else c[2],
        unitary=c[3], projector=c[4])) for c, _ in cases]
    batch = [(t, which, 2.0 if scalar is None else scalar, unitary, projector)
             for (t, which, scalar, unitary, projector), _ in cases]
    results, norms = oracles._gcsi_closures(batch, beta=0.5, tol=TOL)
    _assert_per_case(results, lones, [msg for _, msg in cases])
    # ||T|| is sigma_max of the SVD that factors T, read where the arguments pass
    arguments = ("unknown closure operation", "unitary-equiv closure needs")
    assert norms == [None if msg in arguments else polar(c[0]).sigmas[-1]
                     for c, (_, msg) in zip(batch, cases)]


def test_a_failing_case_costs_no_later_solve(monkeypatch):
    # a lone pair that fails its first check makes no eigensolve; in a batch
    # it leaves every later stack, so the batch solves the passing pairs only
    from qop import _eig
    sizes = []
    real = _eig.eigvalsh
    monkeypatch.setattr(_eig, "eigvalsh", lambda m: sizes.append(len(m)) or real(m))
    a, b = ordered_pair(4, seed=17)
    oracles._lowner_heinz_cases([(a, b, (0.5,), False), (_skewed(a), b, (0.5,), False),
                                 (a, b, (0.5,), False)], TOL)
    assert sizes == [2, 2]


def test_an_overflowing_bracket_is_met_before_an_overflowing_power():
    # B^e and A^e overflow, and so does the bracket B^r A^p B^r, which a lone
    # call forms first: the one pull-back of every power raises, the powers
    # are pulled back again in a lone call's order, and the bracket's error
    # is raised, not the weights'
    a, b = ordered_pair(3, seed=7)
    for s, t, p, r in ((_diag(3e100, 2e100, 1e100), _diag(2e100, 1e100, 5e99), 3.0, 1.0),
                       (a * 1e150, b * 1e150, 2.0, 0.5), (a, b, 100.0, 100.0)):
        with pytest.raises(StructureError, match="QMatrix entries must be finite"):
            check_furuta(s, t, p, 1.0, r, probe=True)


def test_a_selfadjoint_operator_whose_squares_overflow_reaches_the_late_pull_back():
    # ||A||_F^2 overflows: A passes the self-adjointness check, and the
    # brackets stay finite, but A^e does not
    w = random_unitary(3, seed=2)
    a, zero = w @ QMatrix.diag([1e200, 1.0, 0.5]) @ w.H, QMatrix.zeros(3)
    inst = {"A": a, "B": zero, "p": 1.0, "q": 1.0, "r": 1.0}
    x, y = ordered_pair(3, seed=5)
    msg = "^scalar function must return finite reals on the spectrum$"
    for call in (lambda: check_furuta(a, zero, 1.0, 1.0, 1.0),
                 lambda: harness.evaluate_instance("furuta", inst),
                 lambda: harness._evaluate("furuta", [inst, {**inst, "A": x, "B": y}], TOL)):
        with pytest.raises(DomainError, match=msg):
            call()


def _overflowing_instances():
    """(property, instance) pairs whose one internal pair result overflows:
    T*T of a large T, and the Hermitian part of S at an entry near the
    largest float."""
    s = hermitian(4, seed=3).to_array()
    s[0, 1, 0] = s[1, 0, 0] = 1.5e308
    return [("collapse", {"T": ginibre(4, seed=1) * 1e160}),
            ("conjugation-lemma", {"U": random_unitary(4, seed=3), "S": QMatrix(s)})]


@pytest.mark.parametrize("prop, inst", _overflowing_instances(), ids=["collapse", "conjugation"])
def test_an_overflowing_internal_product_raises_alone_and_in_a_batch(prop, inst):
    with pytest.raises(StructureError, match="^QMatrix entries must be finite$"):
        harness.evaluate_instance(prop, inst)
    # scored with a finite instance, the whole batch raises, as the
    # property's evaluate may
    finite = {"collapse": {"T": ginibre(4, seed=2)},
              "conjugation-lemma": {"U": random_unitary(4, seed=4), "S": hermitian(4, seed=5)}}
    harness.evaluate_instance(prop, finite[prop])
    for batch in ([finite[prop], inst], [inst, finite[prop]]):
        with pytest.raises(StructureError, match="^QMatrix entries must be finite$"):
            harness._evaluate(prop, batch, TOL)
