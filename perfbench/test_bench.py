"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import qop  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qop.errors import PreconditionError, QopError  # noqa: E402
from qop.linalg import QMatrix  # noqa: E402


class SmallDecompose(workloads.DecomposeLarge):
    sizes = (4,)


def _polar_outputs():
    w = SmallDecompose()
    ops = {op.id: op for op in w.setup(5, HERE, 1)[0]}
    return w, {"g0/polar:G4": ops["g0/polar:G4"].run()}


def test_correct_polar_output_passes_the_check():
    w, outputs = _polar_outputs()
    assert all(c.ok for c in w.check(outputs))


def test_perturbed_u_trips_the_correctness_check():
    w, outputs = _polar_outputs()
    parts = outputs["g0/polar:G4"]
    bumped = parts.u.to_array()
    bumped[0, 0, 0] += 1e-6
    outputs["g0/polar:G4"] = type(parts)(**{**vars(parts), "u": QMatrix(bumped)})
    failed = [c.name for c in w.check(outputs) if not c.ok]
    assert failed == ["g0/polar:G4 ||U|T|-T|| <= 1e-10 ||T||"]


def test_injected_qop_error_lands_in_fail_ratio():
    calls = []

    def boom():
        calls.append("boom")
        raise PreconditionError("injected")

    ops = [workloads.Op("ok-1", lambda: calls.append("ok-1")),
           workloads.Op("boom", boom),
           workloads.Op("ok-2", lambda: calls.append("ok-2"))]
    groups = run.measure([ops])
    stats = run.summarize(groups)
    assert calls == ["ok-1", "boom", "ok-2"]
    assert (stats["attempted"], stats["failed"]) == (3, 1)
    assert stats["fail_ratio"] == pytest.approx(1 / 3)
    assert groups[0].rows[1][2] == "PreconditionError: injected"


def _report_with_witness(prop, witness):
    report = qop.run_verify(prop, trials=1, seed=3)
    return type(report)(**{**vars(report), "witness": witness, "min_margin": -1.0})


def _run_verify_small(monkeypatch, report):
    monkeypatch.setattr(workloads.harness, "run_verify", lambda *a, **k: report)
    w = workloads.VerifySmall()
    w.trials = 1
    ops = [op for group in w.setup(3, HERE, 2) for op in group
           if op.id.endswith(":" + report.property)]
    groups = run.measure([ops])
    return run.summarize(groups), run.run_checks(w, groups)


def test_a_witness_in_a_verify_report_makes_the_run_incorrect(monkeypatch):
    bad = _report_with_witness("holder-mccarthy", {"trial_seed": 7, "margin": -1.0})
    stats, checks = _run_verify_small(monkeypatch, bad)
    assert (stats["attempted"], stats["failed"]) == (2, 0)
    assert not all(c.ok for c in checks)


def test_a_kernel_reduction_false_violation_is_a_failed_op(monkeypatch):
    # T = [[0, 1], [0, 0]]: ker T is one-dimensional, ker T^2 is everything
    nilpotent = np.zeros((2, 2, 4))
    nilpotent[0, 1, 0] = 1.0
    witness = {"T": qop.matio.matrix_to_json(QMatrix(nilpotent)), "trial_seed": 7,
               "margin": -1.0}
    stats, checks = _run_verify_small(monkeypatch,
                                      _report_with_witness("kernel-reduction", witness))
    assert (stats["attempted"], stats["failed"]) == (2, 2)


def test_non_qop_errors_are_not_swallowed():
    def bug():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        run.measure([[workloads.Op("bug", bug)]])


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_toy_calls():
    tracer = tracing.Tracer(clock=_fake_clock([0, 10, 30, 40, 45, 100]))

    inner = tracer.wrap(lambda: None, "linalg.inner")
    leaf = tracer.wrap(lambda: None, "quaternion.leaf")

    def body():
        inner()
        leaf()

    tracer.wrap(body, "spectral.outer")()
    prof = tracing.profile(tracer.take())
    assert prof["fn"]["spectral.outer"] == [1, 100, 75]
    assert prof["fn"]["linalg.inner"] == [1, 20, 20]
    assert prof["fn"]["quaternion.leaf"] == [1, 5, 5]
    assert prof["root_ns"] == 100
    assert prof["edges"]["spectral.outer>linalg.inner"] == [1, 0, 20]


def test_an_error_is_counted_once_per_layer_it_leaves():
    tracer = tracing.Tracer(clock=_fake_clock(range(100)))

    def fail():
        raise PreconditionError("not ordered")

    inner = tracer.wrap(fail, "oracles.require")
    check = tracer.wrap(lambda: inner(), "oracles.check")
    outer = tracer.wrap(lambda: check(), "harness.evaluate")
    with pytest.raises(QopError):
        outer()
    prof = tracing.profile(tracer.take())
    assert prof["errors"] == {"oracles:PreconditionError": 1, "harness:PreconditionError": 1}
    assert prof["edges"]["harness.evaluate>oracles.check"][1] == 1


def test_install_wraps_by_identity_and_uninstall_restores():
    from qop import _eig, oracles, spectral, transforms

    original = spectral.eigh_q
    tracer = tracing.Tracer()
    with tracer:
        assert transforms.eigh_q is spectral.eigh_q is not original
        assert oracles.eigh_jacobi is _eig.eigh_jacobi
        spectral.eigh_q(qop.hermitian(2, seed=1))
        counted = tracer.counters["numpy.linalg.norm"]
        np.linalg.norm(np.ones(3))
        assert tracer.counters["numpy.linalg.norm"] == counted
    assert spectral.eigh_q is original and transforms.eigh_q is original
    names = {span[0] for span in tracer.take()}
    assert {"spectral.eigh_q", "_eig.eigh_jacobi", "linalg.embed_chi",
            "linalg.QMatrix.__init__"} <= names
    assert counted > 0
    spectral.eigh_q(qop.hermitian(2, seed=1))
    assert tracer.counters["numpy.linalg.norm"] == counted


def test_scaled_profile_scales_times_and_keeps_counts():
    tracer = tracing.Tracer(clock=_fake_clock([0, 10, 30, 40]))
    tracer.wrap(tracer.wrap(lambda: None, "linalg.inner"), "spectral.outer")()
    prof = tracing.scaled(tracing.profile(tracer.take()), 0.5)
    assert prof["fn"]["spectral.outer"] == [1, 20, 10]
    assert prof["edges"]["spectral.outer>linalg.inner"] == [1, 0, 10]
    assert prof["root_ns"] == 20 and prof["spans"] == 2


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 43)]
    value, pct = run.tail(values)
    assert value == 32.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 32 / 42)


def test_times_are_scaled_to_the_nominal_machine_speed():
    assert run.scale_for([2 * run.REF_NOMINAL_S] * 3) == pytest.approx(0.5)
    group = run.Group(rows=[("a", 2_000_000, None, None), ("b", 4_000_000, None, None)],
                      scale=0.5, refs_ms=[])
    stats = run.summarize([group])
    assert stats["op_ms_p50"] == pytest.approx(1.5)
    assert stats["raw"]["op_ms_p50"] == pytest.approx(3.0)
    assert stats["ops_per_s"] == pytest.approx(2 / 0.003)
