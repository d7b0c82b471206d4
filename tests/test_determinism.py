"""Byte identity across runs and BLAS thread counts.

A cheap subset of ``tools/determinism.py``'s table runs through the tool's
own runner, so a local test run checks the path that CI runs in full; and
``run_verify``'s own thread pin is checked in process and across thread
counts.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qop
from qop import _eig, harness

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qop.__file__)))
_spec = importlib.util.spec_from_file_location(
    "determinism", Path(__file__).resolve().parents[1] / "tools" / "determinism.py")
determinism = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(determinism)

# the SVD-bound dim-64 collapse under 1, 2 and unset OpenBLAS threads, a
# dim-4 verify with QOP_TOL unset and set, a fuzz that may exit 1, and a
# generated input whose non-finite exponent must exit 2
_SUBSET = {
    "threads": ("verify", "collapse", "--trials", "4", "--dim", "64", "--seed", "42"),
    "tol": ("verify", "furuta", "--trials", "20", "--seed", "7", "--dim", "4"),
    "fuzz": ("fuzz", "gcsi-implies", "--budget", "37", "--seed", "7", "--dim", "4"),
    "input": ("transform", "--kind", "sr:nan", determinism.INPUT),
}


@pytest.mark.parametrize("argv", _SUBSET.values(), ids=_SUBSET.keys())
def test_a_manifest_entry_prints_the_same_bytes_on_every_run(argv):
    (entry,) = [e for e in determinism.TABLE if e.argv == argv]
    assert determinism.check(entry)[1] == []


_IN_PROCESS = """
import hashlib
from qop import harness
report = harness.run_verify("collapse", trials=4, seed=42, dim=64)
print(harness._blas_threads() is not None, hashlib.sha256(report.dumps().encode()).hexdigest())
"""


def test_an_in_process_report_does_not_depend_on_the_blas_thread_count():
    # run_verify pins one thread around its trials, whatever the process
    # started with, through the OpenBLAS that numpy bundles
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _IN_PROCESS], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        found, digest = proc.stdout.split()
        assert found == "True"
        outs.append(digest)
    assert outs[0] == outs[1]


def test_a_run_pins_one_thread_and_restores_the_callers_count(monkeypatch):
    set_threads, get_threads = harness._blas_threads()
    seen, real = set(), _eig.eigvalsh
    monkeypatch.setattr(_eig, "eigvalsh", lambda m: seen.add(get_threads()) or real(m))
    before = get_threads()
    set_threads(2)
    try:
        harness.run_verify("lowner-heinz", trials=2, seed=1, dim=4)
        assert seen == {1}
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_without_the_bundled_setter_a_run_is_unpinned(monkeypatch, tmp_path):
    fake = tmp_path / "libscipy_openblas64_-0.so"
    fake.write_text("not a shared library")
    monkeypatch.setattr(harness.glob, "glob", lambda pattern: [str(fake)])
    assert harness._blas_threads.__wrapped__() is None
    monkeypatch.setattr(harness, "_blas_threads", lambda: None)
    assert harness.run_verify("lowner-heinz", trials=2, seed=1, dim=4).trials == 2
