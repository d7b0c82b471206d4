import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qop import generators, harness, oracles, spectral
from qop.errors import DomainError, PreconditionError, ShapeError
from qop.harness import (DEFAULT_TOL, HM_R_GRID, LH_R_GRID, PROPERTIES, Property, _hausdorff,
                         _zero_entry_candidates, TrialContext, evaluate_instance,
                         minimize_counterexample, run_fuzz, run_verify)
from qop.linalg import QMatrix, QVector
from qop.matio import vector_to_json
from qop.oracles import check_kernel_reduction
from qop.quaternion import J, K, Quaternion
from qop.rng import mix_seed


def _shift(n=2):
    rows = [[1.0 if j == i + 1 else 0.0 for j in range(n)] for i in range(n)]
    return QMatrix.from_quaternions(rows)


def _shrinkable():
    t = QMatrix.from_quaternions([[0.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0],
                                  [0.0, 0.0, 5.0]])
    return {"T": t, "x": QVector.basis(3, 0)}


def test_known_property_names():
    assert set(PROPERTIES) == {
        "lowner-heinz", "holder-mccarthy", "furuta", "chain", "aluthge",
        "aluthge-gain", "eigenspace-reducing", "gcsi-closure",
        "kernel-reduction", "tu-star", "gcsi-implies", "collapse",
        "spectrum-st-ts", "conjugation-lemma",
    }


def test_run_verify_is_deterministic():
    r1 = run_verify("tu-star", trials=6, seed=11, dim=3)
    r2 = run_verify("tu-star", trials=6, seed=11, dim=3)
    assert r1.dumps() == r2.dumps()
    assert r1.trials == 6 and len(r1.per_trial) == 6
    assert r1.min_margin == min(m for _, m in r1.per_trial)
    assert r1.per_trial[0][0] == mix_seed(11, 0)


def test_run_verify_pass_has_no_witness():
    r = run_verify("tu-star", trials=4, seed=2, dim=3)
    assert r.min_margin >= -r.tol
    assert r.witness is None
    assert "witness" not in r.to_json()


def test_probe_lowner_heinz_first_trial_frozen():
    r = run_verify("lowner-heinz", trials=1, seed=0, dim=2, probe=True)
    top = (3.0 + math.sqrt(5.0)) / 2.0
    expected = (3.0 - math.sqrt(10.0)) / top ** 2
    assert r.min_margin == pytest.approx(expected, abs=1e-12)
    assert r.witness is not None
    assert r.witness["r"] == 2.0
    assert r.witness["trial_seed"] == mix_seed(0, 0)
    assert r.witness["margin"] == r.min_margin


def test_run_verify_guards():
    with pytest.raises(DomainError):
        run_verify("no-such-property", trials=1, seed=0)
    with pytest.raises(DomainError):
        run_verify("tu-star", trials=0, seed=0)
    # a count is an integer, as in the oracles, not whatever range() accepts
    with pytest.raises(DomainError, match="trials must be an integer"):
        run_verify("tu-star", trials=2.0, seed=0)
    # every property, not only those drawing from a generator, names the dimension
    for prop, dim in (("chain", 0), ("chain", 65), ("tu-star", 0)):
        with pytest.raises(ShapeError, match=rf"dimension must lie in \[1, 64\], got {dim}$"):
            run_verify(prop, trials=1, seed=1, dim=dim)
    # a float dim is a ShapeError up front, not a TypeError from inside a draw
    for prop in ("chain", "tu-star"):
        with pytest.raises(ShapeError, match=r"dimension must be an integer, got 2\.0$"):
            run_verify(prop, trials=1, seed=1, dim=2.0)


def test_report_dumps_is_canonical_json():
    r = run_verify("kernel-reduction", trials=3, seed=4, dim=3)
    s = r.dumps()
    obj = json.loads(s)
    assert obj["property"] == "kernel-reduction"
    assert obj["trials"] == 3 and obj["dim"] == 3
    assert s == json.dumps(obj, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)


def test_property_smoke_margins():
    for prop in ("spectrum-st-ts", "collapse", "conjugation-lemma", "chain"):
        r = run_verify(prop, trials=2, seed=3, dim=3)
        assert r.min_margin >= -r.tol, prop


def test_evaluate_instance_matches_oracle():
    inst = {"T": _shift(), "x": QVector.basis(2, 0)}
    assert evaluate_instance("tu-star", inst) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DomainError):
        evaluate_instance("no-such-property", inst)


def test_minimize_rejects_non_violating():
    inst = {"T": QMatrix.identity(2), "x": QVector.basis(2, 0)}
    with pytest.raises(PreconditionError):
        minimize_counterexample("tu-star", inst)


def test_minimize_shrinks_extra_mass():
    inst = _shrinkable()
    out = minimize_counterexample("tu-star", inst)
    t = out["T"]
    # the decoupled 5 on the diagonal is droppable, the coupling entry is not
    assert t.entry(2, 2).norm() == 0.0
    assert t.entry(0, 1).norm() == 1.0
    assert out["x"].allclose(inst["x"], tol=0.0)
    assert evaluate_instance("tu-star", out) == pytest.approx(-1.0, abs=1e-12)


def test_minimize_keeps_minimal_instance():
    inst = {"T": _shift(), "x": QVector.basis(2, 0)}
    out = minimize_counterexample("tu-star", inst)
    assert out["T"].equals_exact(inst["T"])
    assert out["x"].allclose(inst["x"], tol=0.0)


@pytest.mark.parametrize("budget", [0, -3, math.nan, 2.5])
def test_minimize_rejects_a_bad_budget_before_any_evaluation(budget, monkeypatch):
    calls = []
    real = PROPERTIES["tu-star"]
    monkeypatch.setitem(PROPERTIES, "tu-star", dataclasses.replace(
        real, evaluate=lambda insts, tol: calls.append(insts) or real.evaluate(insts, tol)))
    with pytest.raises(DomainError, match="budget must be"):
        minimize_counterexample("tu-star", _shrinkable(), budget=budget)
    assert calls == []


def test_minimize_budget_exhaustion_returns_input():
    inst = _shrinkable()
    out = minimize_counterexample("tu-star", inst, budget=1)
    assert out["T"].equals_exact(inst["T"])


def test_run_fuzz_clean_budget():
    r = run_fuzz("tu-star", budget=5, seed=13, dim=3)
    assert r.trials == 5
    assert r.witness is None
    assert r.min_margin >= -r.tol


def _per_trial(draw):
    """A Property draw of a list of contexts from a draw of one."""
    return lambda ctxs: [draw(ctx) for ctx in ctxs]


def test_run_fuzz_violation_path(monkeypatch):
    def evaluate(inst, tol):
        return evaluate_instance("tu-star", inst, tol), {"planted": True}

    monkeypatch.setitem(PROPERTIES, "planted",
                        Property(_per_trial(lambda ctx: _shrinkable()),
                                 lambda insts, tol: [evaluate(inst, tol) for inst in insts], ("x",)))
    r = run_fuzz("planted", budget=10, seed=0, dim=3)
    assert r.trials == 1
    assert r.witness is not None and r.witness["planted"]
    assert r.witness["x"] == vector_to_json(QVector.basis(3, 0))
    assert r.witness["trial_seed"] == mix_seed(0, 0)
    assert r.witness["shrunk_margin"] == pytest.approx(-1.0, abs=1e-12)
    shrunk = r.witness["shrunk"]
    assert shrunk["T"]["entries"][2][2] == [0.0, 0.0, 0.0, 0.0]
    assert shrunk["T"]["entries"][0][1] == [1.0, 0.0, 0.0, 0.0]


def test_run_fuzz_guards():
    with pytest.raises(DomainError):
        run_fuzz("tu-star", budget=0, seed=0)
    with pytest.raises(DomainError):
        run_fuzz("no-such-property", budget=1, seed=0)
    with pytest.raises(DomainError, match="budget must be an integer"):
        run_fuzz("tu-star", budget=2.0, seed=0)
    with pytest.raises(ShapeError, match=r"dimension must lie in \[1, 64\], got 0$"):
        run_fuzz("chain", budget=1, seed=1, dim=0)
    with pytest.raises(ShapeError, match=r"dimension must be an integer, got 2\.0$"):
        run_fuzz("chain", budget=1, seed=1, dim=2.0)


_BAD_TOLS = (math.nan, math.inf, -1.0)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_run_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # a NaN tolerance made every margin pass, and a negative one made exact margins fail
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        run_verify("collapse", trials=4, seed=1, tol=tol)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_run_fuzz_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        run_fuzz("tu-star", budget=3, seed=1, tol=tol)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_evaluate_instance_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    inst = {"T": _shift(), "x": QVector.basis(2, 0)}
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        evaluate_instance("tu-star", inst, tol)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_minimize_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        minimize_counterexample("tu-star", _shrinkable(), tol=tol)


def test_hausdorff_distance():
    assert _hausdorff([0j, 1 + 1j], [0j, 1 + 1j]) == 0.0
    assert _hausdorff([0j], [3 + 4j]) == pytest.approx(5.0)
    assert _hausdorff([0j, 1 + 0j], [0j]) == pytest.approx(1.0)
    assert _hausdorff([0j, 1 + 0j], [1 + 0j, 0j]) == 0.0


@pytest.mark.parametrize("dim,trials", [(4, 40), (8, 12), (16, 6)])
def test_kernel_reduction_finds_every_constructed_zero(dim, trials):
    trial = PROPERTIES["kernel-reduction"]
    for idx in range(trials):
        t = trial([TrialContext(mix_seed(42, idx), idx, dim, DEFAULT_TOL, False)])[0].instance["T"]
        zeros = 1 + idx % (dim - 1)  # the trial's own count of zero eigenvalues
        report = check_kernel_reduction(t)
        assert (report.dim_ker, report.dim_ker_sq) == (zeros,) * 2
        assert report.passes


def test_kernel_reduction_scores_a_kernel_dimension_mismatch_as_minus_one():
    # ker T = span{e_0} but ker T^2 is everything: the residuals read only
    # the 1e-3 entry, and the mismatch alone scores -1
    t = QMatrix.from_quaternions([[0.0, 1e-3], [0.0, 0.0]])
    report = check_kernel_reduction(t)
    assert (report.dim_ker, report.dim_ker_sq) == (1, 2)
    assert evaluate_instance("kernel-reduction", {"T": t}) == -1.0


def test_collapse_scores_a_non_normal_p_hyponormal_operator_as_minus_one(monkeypatch):
    # a non-normal operator is never p-hyponormal in finite dimensions; with
    # every D_p stubbed to zero a Ginibre draw reads as one, and scores -1
    real = oracles._hyponormal_diffs
    monkeypatch.setattr(oracles, "_hyponormal_diffs",
                        lambda parts, ps: tuple(np.zeros_like(x) for x in real(parts, ps)))
    assert evaluate_instance("collapse", {"T": generators.ginibre(4, seed=1)}) == -1.0


def test_an_eigenspace_witness_reports_its_quaternion(monkeypatch):
    # a normal draw never violates the theorem, so a stubbed violation takes
    # the trial down the witness path, which writes q as its components
    monkeypatch.setattr(oracles, "_eigenspace_cases", lambda cases, tol: [
        oracles.Margin(-1.0, tol, {}, {"scale": 1.0}) for _ in cases])
    r = run_verify("eigenspace-reducing", trials=1, seed=0, dim=2)
    ctx = TrialContext(r.witness["trial_seed"], 0, 2, DEFAULT_TOL, False)
    (inst,) = PROPERTIES["eigenspace-reducing"].draw([ctx])
    assert r.witness["q"] == inst["q"].components()


_G23, _G34 = generators.ginibre(2, 3, seed=1), generators.ginibre(3, 4, seed=2)


@pytest.mark.parametrize("prop, inst, message", [
    ("spectrum-st-ts", {"S": _G23, "T": _G23}, r"^cannot multiply \(2, 3\) by \(2, 3\)$"),
    ("spectrum-st-ts", {"S": _G23, "T": _G34}, r"^square operator required, got \(2, 4\)$"),
    ("conjugation-lemma", {"U": QMatrix.identity(3), "S": generators.hermitian(4, seed=1)},
     r"^cannot multiply \(3, 3\) by \(4, 4\)$"),
], ids=["st-inner", "st-square", "conjugation"])
def test_evaluate_instance_names_a_shape_mismatch(prop, inst, message):
    with pytest.raises(ShapeError, match=message):
        evaluate_instance(prop, inst)


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_evaluate_instance_reproduces_the_trial_margin(prop):
    # the shrinker must minimise the function the trial measured
    for dim, probe, idx in itertools.product((4, 8), (False, True), range(4)):
        out = PROPERTIES[prop]([TrialContext(mix_seed(7, idx), idx, dim, DEFAULT_TOL, probe)])[0]
        assert evaluate_instance(prop, out.instance) == out.margin, (prop, dim, probe, idx)


@pytest.mark.parametrize("prop,extra", [("chain", {}), ("aluthge", {"p": 0.75}),
                                        ("aluthge-gain", {"p": 0.3})])
def test_shrinker_enforces_the_trial_hypothesis(prop, extra):
    # the shift is not even semi-hyponormal: outside probe mode the theorems
    # say nothing about it, so it must not be scored as a counterexample
    inst = {"T": _shift(3), **extra}
    with pytest.raises(PreconditionError, match="hyponormal"):
        evaluate_instance(prop, inst)
    with pytest.raises(PreconditionError, match="hyponormal"):
        minimize_counterexample(prop, inst)
    if prop != "aluthge":  # the aluthge property has no probe mode
        probe = dict(inst, probe=True)
        assert evaluate_instance(prop, probe) == -1.0
        assert evaluate_instance(prop, minimize_counterexample(prop, probe)) < -DEFAULT_TOL


def test_grid_instance_keeps_its_worst_exponent():
    for prop, grid in (("lowner-heinz", LH_R_GRID), ("holder-mccarthy", HM_R_GRID)):
        out = PROPERTIES[prop]([TrialContext(mix_seed(5, 0), 0, 4, DEFAULT_TOL, False)])[0]
        assert out.instance["r"] in grid
        scan = dict(out.instance, r=grid)
        assert evaluate_instance(prop, scan) == out.margin == evaluate_instance(prop, out.instance)
        assert scan["r"] == grid  # evaluate_instance leaves the caller's instance alone


def test_hermitian_pair_properties_pull_back_no_eigenvectors(monkeypatch):
    # every Lowner-Heinz and Furuta margin is functional calculus on the
    # embedded eigensystem, so no eigenvector is ever pulled back
    calls = []
    real = spectral._quaternionic_bases
    monkeypatch.setattr(spectral, "_quaternionic_bases",
                        lambda v, need: calls.append(need) or real(v, need))
    a, b = generators.ordered_pair(4, seed=17)
    for prop, inst in (("lowner-heinz", {"A": a, "B": b, "r": LH_R_GRID}),
                       ("lowner-heinz", {"A": a, "B": b, "r": 2.5}),
                       ("furuta", {"A": a, "B": b, "p": 2.0, "q": 2.0, "r": 1.0}),
                       ("furuta", {"A": a, "B": b, "p": 2.5, "q": 1.0, "r": 0.3})):
        evaluate_instance(prop, inst)
    assert calls == []


def test_gcsi_implies_shrinker_scores_the_trial_instance(monkeypatch):
    # the trial's margin is 0 or -1, so compare the instance's fields and the sub-margins
    real = oracles._gcsi_implications
    seen = []

    def spy(cases, **kwargs):
        reports = real(cases, **kwargs)
        seen.extend(reports)
        return reports

    monkeypatch.setattr(oracles, "_gcsi_implications", spy)
    for idx in range(4):
        ts = mix_seed(7, idx)
        out = PROPERTIES["gcsi-implies"]([TrialContext(ts, idx, 4, DEFAULT_TOL, False)])[0]
        assert sorted(out.instance) == ["T", "p"], idx
        evaluate_instance("gcsi-implies", out.instance)
        trial, again = seen[-2:]
        assert again == trial, idx


_STACKED_HERMITIAN = ("lowner-heinz", "holder-mccarthy", "furuta", "collapse",
                      "conjugation-lemma")


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_chunked_runs_equal_one_trial_at_a_time(prop, monkeypatch):
    # 37 trials cross two chunk boundaries up to dim 8 and four at dim 16,
    # in chunks of 8; 5 dim-32 trials make chunks of 2, 2 and 1, and 17
    # dim-64 trials one chunk each.  The bytes must not see the chunks
    runs = [(dim, 37) for dim in (3, 4, 8, 16)] + [(32, 5)]
    runs += [(64, 17)] * (prop in _STACKED_HERMITIAN)
    for (dim, trials), probe in itertools.product(runs, (False, True)):
        chunked = run_verify(prop, trials=trials, seed=19, dim=dim, probe=probe).dumps()
        monkeypatch.setattr(harness, "_BATCH", 1)
        single = run_verify(prop, trials=trials, seed=19, dim=dim, probe=probe).dumps()
        monkeypatch.undo()
        assert chunked == single, (prop, dim, probe)


def test_run_verify_sizes_its_chunks_from_the_dim(monkeypatch):
    # at most 16 trials, and only as many as keep 16 copies of each T within 512 KiB
    real = PROPERTIES["collapse"]
    sizes = []
    monkeypatch.setitem(PROPERTIES, "collapse", dataclasses.replace(
        real, draw=lambda ctxs: sizes.append(len(ctxs)) or real.draw(ctxs)))
    for dim, size in ((4, 16), (11, 16), (12, 14), (16, 8), (32, 2), (45, 1), (46, 1), (64, 1)):
        sizes.clear()
        run_verify("collapse", trials=2 * size + 1, seed=5, dim=dim)
        assert sizes == [size, size, 1], dim


def test_a_failing_chunk_surfaces_its_lowest_failing_trial(monkeypatch):
    def evaluate(insts, tol):
        # each instance's error comes back in its place, the others' margins beside them
        errors = {1: PreconditionError("trial 1"), 3: DomainError("trial 3")}
        return [errors.get(inst["idx"], (-float(inst["idx"] == 0), {})) for inst in insts]

    monkeypatch.setitem(PROPERTIES, "planted",
                        Property(_per_trial(lambda ctx: {"idx": ctx.index}), evaluate, ("idx",)))
    with pytest.raises(PreconditionError, match="trial 1"):
        run_verify("planted", trials=5, seed=0, dim=2)
    assert run_verify("planted", trials=1, seed=0, dim=2).min_margin == -1.0
    # fuzzing ends at the violation of trial 0, before the error of trial 1
    monkeypatch.setattr(harness, "_shrink", lambda prop, inst, budget, tol: (inst, -1.0, 1))
    report = run_fuzz("planted", budget=5, seed=0, dim=2)
    assert report.trials == 1 and report.witness["shrunk_margin"] == -1.0


@pytest.mark.parametrize("prop", ["gcsi-closure", "gcsi-implies"])
def test_gcsi_chunk_makes_a_fixed_number_of_stacked_scorings(prop, monkeypatch):
    # 4 dim-4 trials search 8 or 4 operators: each brings the 8 basis
    # vectors of C^8 and its right singular vectors, 8 at full rank, and
    # every pair of the chunk is scored in one call
    stacks = []
    parts = oracles._gcsi_parts
    monkeypatch.setattr(oracles, "_gcsi_parts", lambda tx, ty, y:
                        stacks.append(y.shape) or parts(tx, ty, y))
    searches = 8 if prop == "gcsi-closure" else 4
    for seed in (3, 4):
        stacks.clear()
        run_verify(prop, trials=4, seed=seed, dim=4)
        ((pairs, size),) = stacks
        assert size == 8 and 8 * searches < pairs <= 16 * searches


def test_zero_entry_candidates_are_row_major_over_nonzero_entries():
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    t = QMatrix.from_quaternions([[0.0, 1.0], [J, Quaternion(-0.0, 0.0, 0.0, 0.0)]])
    cands = _zero_entry_candidates(t, 4)
    assert [pos for pos, _ in cands] == [(0, 1), (1, 0)]
    for (i, j), c in cands:
        want = [[t.entry(r, s) for s in range(2)] for r in range(2)]
        want[i][j] = zero
        assert c.equals_exact(QMatrix.from_quaternions(want))
    v = QVector.from_quaternions([1.0, 0.0, K])
    assert [pos for pos, _ in _zero_entry_candidates(v, 3)] == [0, 2]
    assert _zero_entry_candidates(v, 3)[1][1].allclose(QVector.from_quaternions([1.0, 0.0, 0.0]),
                                                       tol=0.0)
    assert _zero_entry_candidates(0.5, 3) == []
    # only the first ``limit`` are built
    assert [pos for pos, _ in _zero_entry_candidates(t, 1)] == [(0, 1)]
    assert _zero_entry_candidates(t, 0) == []


def test_zero_entry_candidates_equal_the_boundary_copies():
    # each candidate is the zeroed component array through the checked
    # constructor, bit for bit: signed zeros elsewhere are kept
    comps = generators.ginibre(4, seed=490).to_array()
    comps[0, 1] = -0.0
    comps[2, 3, 1:] = (-0.0, 0.0, -0.0)
    comps[3, 0, 0] = -0.0
    for val in (QMatrix(comps), QVector(comps[2])):
        arr = val.to_array()
        cands = _zero_entry_candidates(val, 16)
        assert [pos for pos, _ in cands] == [
            p if len(p) > 1 else p[0] for p in map(tuple, np.argwhere(arr.any(axis=-1)).tolist())]
        for pos, cand in cands:
            want = arr.copy()
            want[pos] = 0.0
            assert type(cand) is type(val)
            assert cand.to_array().tobytes() == type(val)(want).to_array().tobytes()
