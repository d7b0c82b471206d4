"""The batched shrinker against the one-candidate-at-a-time walk of
``shrink_reference``: the same shrunk instance bit for bit, the same
margin and the same evaluations charged, at every budget cut-off."""

import dataclasses
import struct

import pytest

import shrink_reference
from qop import generators, harness
from qop.errors import DomainError, QopError
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


def _cases():
    yield "tu-star", _shrinkable()
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


def test_a_sweep_scores_each_key_in_one_evaluate_call(monkeypatch):
    # a violating 4 x 4 Lowner-Heinz probe pair none of whose 32 candidates
    # violates: the walk made 33 evaluations, one per call
    a, b = generators.ordered_pair(4, seed=3)
    inst = {"A": a, "B": b, "r": 2.5}
    real = PROPERTIES["lowner-heinz"]
    calls = []
    monkeypatch.setitem(PROPERTIES, "lowner-heinz", dataclasses.replace(
        real, evaluate=lambda insts, tol: calls.append(len(insts)) or real.evaluate(insts, tol)))
    shrunk, _, evals = _shrink("lowner-heinz", inst, 64, TOL)
    assert calls == [1, 16, 16] and evals == 33
    assert all(shrunk[k] is inst[k] for k in inst)


def test_run_fuzz_reads_the_shrunk_margin_from_the_shrink(monkeypatch):
    calls = []
    real = harness.evaluate_instance
    monkeypatch.setattr(harness, "evaluate_instance", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setitem(PROPERTIES, "planted", dataclasses.replace(
        PROPERTIES["tu-star"], draw=lambda ctxs: [_shrinkable() for _ in ctxs]))
    report = harness.run_fuzz("planted", budget=4, seed=0, dim=3)
    assert report.trials == 1 and report.witness["shrunk_margin"] == pytest.approx(-1.0)
    assert len(calls) == 1  # the shrink's check of its input, and no second scoring


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
