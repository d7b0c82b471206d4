"""The batched shrinker against the one-candidate-at-a-time walk of
``shrink_reference``: the same shrunk instance bit for bit, the same
margin and the same evaluations charged, at every budget cut-off."""

import dataclasses
import struct

import pytest

import shrink_reference
from qop import generators, harness
from qop.errors import DomainError, QopError, StructureError
from qop.generators import random_unitary
from qop.harness import (PROPERTIES, TrialContext, _shrink, evaluate_instance,
                         minimize_counterexample)
from qop.linalg import QMatrix, QVector
from qop.rng import mix_seed

TOL = harness.DEFAULT_TOL
BUDGETS = (1, 2, 17, 33, 64, 256)


def _shrinkable():
    t = QMatrix.from_quaternions([[0.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0],
                                  [0.0, 0.0, 5.0]])
    return {"T": t, "x": QVector.basis(3, 0)}


def _probe_instances(prop, dim):
    """The violating instances of eight probe trials."""
    ctxs = [TrialContext(mix_seed(29, idx), idx, dim, TOL, True) for idx in range(8)]
    return [out.instance for out in PROPERTIES[prop](ctxs)
            if not isinstance(out, QopError) and out.margin < -TOL]


def _padded():
    """``_shrinkable`` with a key that tu-star does not read, sorted between
    its two: the walk accepts a candidate of T, then one of the pad, so the
    candidates of the keys after each hit are scored again."""
    return {**_shrinkable(), "pad": QVector.from_quaternions([1.0, 2.0])}


def _cases():
    yield "tu-star", _shrinkable()
    yield "tu-star", _padded()
    for prop, dim in (("lowner-heinz", 4), ("furuta", 4), ("chain", 3), ("aluthge-gain", 3)):
        insts = _probe_instances(prop, dim)
        assert insts, prop
        for inst in insts[:2]:
            yield prop, inst


def _bytes(inst):
    return {k: v._a.tobytes() + v._b.tobytes() if hasattr(v, "_a") else v
            for k, v in inst.items()}


@pytest.mark.parametrize("budget", BUDGETS)
def test_batched_shrink_equals_the_one_candidate_walk(budget):
    for prop, inst in _cases():
        got, margin, evals = _shrink(prop, inst, budget, TOL)
        want, want_margin, want_evals = shrink_reference.minimize(prop, inst, budget=budget,
                                                                  tol=TOL)
        where = (prop, budget)
        assert _bytes(got) == _bytes(want), where
        assert struct.pack("<d", margin) == struct.pack("<d", want_margin), where
        assert evals == want_evals, where
        assert _bytes(minimize_counterexample(prop, inst, budget=budget)) == _bytes(want), where


def test_a_sweep_scores_every_key_in_one_evaluate_call(monkeypatch):
    # a violating 4 x 4 Lowner-Heinz probe pair none of whose 32 candidates
    # violates: the walk made 33 evaluations, the input and both keys' in one
    # call, and no candidate builds S - T as an operator
    a, b = generators.ordered_pair(4, seed=3)
    inst = {"A": a, "B": b, "r": 2.5}
    real = PROPERTIES["lowner-heinz"]
    calls, diffs = [], []
    monkeypatch.setitem(PROPERTIES, "lowner-heinz", dataclasses.replace(
        real, evaluate=lambda insts, tol: calls.append(len(insts)) or real.evaluate(insts, tol)))
    sub = QMatrix.__sub__
    monkeypatch.setattr(QMatrix, "__sub__", lambda x, y: diffs.append(1) or sub(x, y))
    shrunk, _, evals = _shrink("lowner-heinz", inst, 64, TOL)
    assert calls == [33] and evals == 33 and diffs == []
    assert all(shrunk[k] is inst[k] for k in inst)


def test_a_batch_error_from_a_candidate_the_walk_never_scores_does_not_surface(monkeypatch):
    # the first sweep's batch holds x zeroed beside the input's T; the walk
    # accepts a candidate of T first and never scores that one, so a batch
    # holding it, which raises for the whole batch, must not end the shrink
    real = PROPERTIES["tu-star"].evaluate
    raised = []

    def evaluate(insts, tol):
        if any(inst["x"].norm() == 0.0 and inst["T"][2, 2].norm() != 0.0 for inst in insts):
            raised.append(len(insts))
            raise StructureError("planted batch error")
        return real(insts, tol)

    monkeypatch.setitem(PROPERTIES, "planted",
                        dataclasses.replace(PROPERTIES["tu-star"], evaluate=evaluate))
    for budget in BUDGETS:
        got, margin, evals = _shrink("planted", _padded(), budget, TOL)
        want = shrink_reference.minimize("planted", _padded(), budget=budget, tol=TOL)
        assert (_bytes(got), margin, evals) == (_bytes(want[0]), want[1], want[2]), budget
    assert raised


def test_run_fuzz_reads_the_shrunk_margin_from_the_shrink(monkeypatch):
    # every scoring goes through the property's evaluate: the trials' chunk,
    # then the shrink's batches, the first with the input; none after the shrink
    events = []
    tu_star = PROPERTIES["tu-star"]
    monkeypatch.setitem(PROPERTIES, "planted", dataclasses.replace(
        tu_star, draw=lambda ctxs: [_shrinkable() for _ in ctxs],
        evaluate=lambda insts, tol: events.append(len(insts)) or tu_star.evaluate(insts, tol)))
    shrink = harness._shrink

    def spy(*args):
        out = shrink(*args)
        events.append("shrunk")
        return out

    monkeypatch.setattr(harness, "_shrink", spy)
    report = harness.run_fuzz("planted", budget=4, seed=0, dim=3)
    assert report.trials == 1 and report.witness["shrunk_margin"] == pytest.approx(-1.0)
    # the chunk of 4 trials, then the input with its 3 candidates
    assert events[:2] == [4, 4] and events[-1] == "shrunk"


def test_a_missing_field_is_a_domain_error():
    inst = {"T": random_unitary(4, seed=1)}
    for call in (lambda: evaluate_instance("tu-star", inst),
                 lambda: minimize_counterexample("tu-star", inst)):
        with pytest.raises(DomainError, match="'tu-star' instance has no field 'x'"):
            call()


def test_an_internal_key_error_is_not_relabelled(monkeypatch):
    def evaluate(insts, tol):
        raise KeyError("x")

    monkeypatch.setitem(PROPERTIES, "planted",
                        dataclasses.replace(PROPERTIES["tu-star"], evaluate=evaluate))
    with pytest.raises(KeyError):
        evaluate_instance("planted", _shrinkable())


def _probe_pair(prop, n, seed):
    """A probe-regime instance of ``prop`` on ``ordered_pair(n, seed)``:
    exponents outside the theorem, as the shrink-probe benchmark draws them."""
    a, b = generators.ordered_pair(n, seed=seed)
    if prop == "lowner-heinz":
        return {"A": a, "B": b, "r": 2.75}
    return {"A": a, "B": b, "p": 2.5, "q": 1.0, "r": 0.25}


def _first_sweep(inst, budget=64):
    """The batch of a shrink's first sweep: the input, then the zeroed
    candidates of every key in sorted order, within the budget."""
    batch = [inst]
    for key in sorted(inst):
        batch += [{**inst, key: val}
                  for _, val in harness._zero_entry_candidates(inst[key], budget - len(batch))]
    return batch


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("prop", ["lowner-heinz", "furuta"])
def test_every_candidate_of_a_sweep_scores_as_its_own_batch(prop, n):
    # the rejects of a sweep are decided on stacks whose rows sit at other
    # alignments at odd n; each must come back as a batch of one, the same
    # error class and message, or the same score
    batch = _first_sweep(_probe_pair(prop, n, seed=40 + n))
    got = harness._evaluate(prop, batch, TOL)
    kinds = set()
    for k, cand in enumerate(batch):
        want, = harness._evaluate(prop, [cand], TOL)
        if isinstance(want, QopError):
            assert type(got[k]) is type(want) and str(got[k]) == str(want), (k, got[k], want)
            kinds.add(str(want).split(" (")[0])
        else:
            assert not isinstance(got[k], QopError) and repr(got[k]) == repr(want), k
    assert kinds == {"operator is not self-adjoint", "operators are not ordered",
                     "lower operator is not positive"}, kinds


@pytest.mark.parametrize("prop, solves", [
    ("lowner-heinz", [("eigvalsh", (9,)), ("eigh", (5,)), ("eigh", (1,)),
                      ("eigvalsh", (1, 1))]),
    ("furuta", [("eigvalsh", (9,)), ("eigh", (5,)), ("eigh", (1,)), ("eigh", (2,)),
                ("eigvalsh", (2,))])])
def test_rejected_candidates_of_a_sweep_add_no_solve(solver_calls, prop, solves):
    # none of the 32 candidates of this 4 x 4 instance violates: the order
    # check solves the 9 that pass self-adjointness, T's solve the 5 of them
    # still ordered, and only the input reaches S's solve and the margins
    inst = _probe_pair(prop, 4, seed=3)
    shrunk = minimize_counterexample(prop, inst, budget=64)
    assert all(shrunk[k] is inst[k] for k in inst)
    assert solver_calls == solves
