"""Parity grid: one digest per public output of a fixed grid of runs.

A refactor that promises byte-identical results runs this against its own
tree and against its parent's, and compares the last lines:

    PYTHONPATH=src python tools/parity.py > change.txt
    PYTHONPATH=/path/to/parent/src python tools/parity.py > parent.txt

It takes no options, runs OpenBLAS on one thread and reads only public
names, save for the sweep records below, so it runs unchanged against
older trees.  Each line is ``<record> <sha256>``: every ``run_verify``
report of the 14 properties at dims 1, 3, 4 and 8, seeds 3 and 11, probe
off and on, 8 trials each, and at dim 64 for 2 trials at seed 3; every
``run_fuzz`` report at budget 6, seed 5, dim 4; the margin and shrunk
instance of 20 probe-regime Lowner-Heinz and Furuta instances; and
``spherical_point_spectrum``, ``power_psd`` at p = 0.37 and 0.5,
``fun_calc`` and ``random_unitary`` at n = 4, 16 and 64.  Then, on a
fixed panel at n = 4 and 16, each margin of ``is_p_hyponormal`` (p =
0.25, 0.5, 1), ``is_paranormal``,
``check_aluthge_theorems(...).transform_margin``, ``check_lowner_heinz``
and ``check_furuta`` as two records, its value with the details and then
its witness, and the eigenvalues and vectors of ``eigh_q``.  Last, one
record per candidate of a shrink's first sweep, scored as the shrinker
scores it, in one batch through ``harness._evaluate``: its error or its
score, for four of the probe-regime instances and for Lowner-Heinz and
Furuta probes on a 3 x 3 and a 5 x 5 ordered pair.  Then one record per
public generator's draw at n = 1, 4, 16 and 64: ``ginibre``,
``hermitian``, ``positive``, ``ordered_pair``, ``normal_with_spectrum``
on a spectrum drawn from the seed, ``partial_isometry`` at every defect,
``near_normal`` at eps = 0.1 and ``unit_vector``.  Last, at n = 4 and
16, ``classify_basic``, ``rayleigh_bounds`` and ``is_psd`` of the panel's
self-adjoint and Gram operators; ``x + y``, ``x - y``, ``-x``, ``2.5 * x``
and ``x * 2.5`` of operators and of vectors, with ``allclose`` at tol
1e-12 and 0; a vector times a quaternion; and ``Quaternion.isclose``.
Last, on the panel at n = 4 and 16, the reads of the SVD that factors T:
``abs_star_power`` at s = 0.1, 0.5 and 1, the margins of ``check_tu_star``
and of ``check_eigenspace_reducing`` at the first sphere of the completed
polar unitary, and each field of ``check_kernel_reduction``.  Last, at n = 4
and 16, on a normal operator with distinct moduli, not unitary, whose
singular vectors decide the GCSI margin: the base and transformed margins of
``check_gcsi_closure`` for each of the four operations (the compression on a
block-diagonal one), and ``oracles.invert``.  A call that raises,
or a batch entry that is an error, is hashed as ``type: message``.  The
last line, ``total <sha256>``, hashes every line above it.  The digests
are exact bytes, which another machine's BLAS need not reproduce.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses
import hashlib
import sys
from typing import Any, Callable

import numpy as np

import qop
from qop import harness
from qop.errors import QopError
from qop.harness import PROPERTIES
from qop.oracles import DEFAULT_TOL, invert
from qop.rng import SplitMix64, mix_seed


def _text(value: Any) -> str:
    """A canonical text of a result: reports by their JSON, operators by
    their components' bytes, tuples and dicts item by item, the rest by repr."""
    if isinstance(value, qop.VerificationReport):
        return value.dumps()
    if isinstance(value, (qop.QMatrix, qop.QVector)):
        return value.to_array().tobytes().hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{_text(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_text, value)) + ")"
    return repr(value)


def _record(lines: list[str], name: str, run: Callable[[], Any]) -> None:
    try:
        text = _text(run())
    except Exception as exc:  # the error is part of the output
        text = f"{type(exc).__name__}: {exc}"
    line = f"{name} {hashlib.sha256(text.encode()).hexdigest()}"
    lines.append(line)
    print(line, flush=True)


def _probe_instance(i: int) -> tuple[str, dict[str, Any]]:
    """The i-th probe-regime instance: ordered 4 x 4 pairs with exponents
    outside the theorems, alternately Lowner-Heinz and Furuta."""
    a, b = qop.ordered_pair(4, seed=mix_seed(29, 2 * i))
    stream = SplitMix64(mix_seed(29, 2 * i + 1))
    u = stream.uniform(0.0, 1.0)
    if i % 2 == 0:
        return "lowner-heinz", {"A": a, "B": b, "r": 2.5 + 0.5 * u}
    return "furuta", {"A": a, "B": b, "p": 2.0 + u, "q": 1.0, "r": stream.uniform(0.0, 0.5)}


def _probe_pair(n: int, seed: int, prop: str) -> dict[str, Any]:
    """A probe-regime instance of ``prop`` on an ordered n x n pair."""
    a, b = qop.ordered_pair(n, seed=seed)
    stream = SplitMix64(mix_seed(seed, 1))
    if prop == "lowner-heinz":
        return {"A": a, "B": b, "r": 2.5 + 0.5 * stream.uniform(0.0, 1.0)}
    return {"A": a, "B": b, "p": 2.0 + stream.uniform(0.0, 1.0), "q": 1.0,
            "r": stream.uniform(0.0, 0.5)}


def _sweep_records(lines: list[str], name: str, prop: str, inst: dict[str, Any]) -> None:
    """One record per candidate of the first sweep of a shrink at budget 64:
    the input, then the zeroed candidates of each key in sorted order, all
    scored in one batch."""
    batch = [inst]
    for key in sorted(inst):
        batch += [{**inst, key: val}
                  for _, val in harness._zero_entry_candidates(inst[key], 64 - len(batch))]
    scores = harness._evaluate(prop, batch, DEFAULT_TOL)
    for k, score in enumerate(scores):
        _record(lines, f"{name}/{k}", lambda: (f"{type(score).__name__}: {score}"
                                               if isinstance(score, QopError) else score))


def _shrunk(prop: str, inst: dict[str, Any]) -> tuple[float, Any]:
    margin = qop.evaluate_instance(prop, inst)
    return margin, (qop.minimize_counterexample(prop, inst, budget=64)
                    if margin < -DEFAULT_TOL else None)


def _margin_records(lines: list[str], name: str, run: Callable[[], Any]) -> None:
    """Two records of a margin, or of a tuple of margins: the value,
    tolerance and details, then the witness, so a changed witness shows
    apart from its margin."""
    def parts(part: Callable[[Any], Any]) -> Any:
        value = run()
        return tuple(map(part, value)) if isinstance(value, tuple) else part(value)
    _record(lines, f"{name}/margin", lambda: parts(lambda m: (m.value, m.tolerance, m.details)))
    _record(lines, f"{name}/witness", lambda: parts(lambda m: m.witness))


def _panel(lines: list[str], n: int) -> None:
    """The oracle and eigensystem records of the fixed panel at size n."""
    operators = {"ginibre": qop.ginibre(n, seed=n), "near_normal": qop.near_normal(n, 0.1, seed=n),
                 "partial_isometry": qop.partial_isometry(n, n // 4, seed=n),
                 "random_unitary": qop.random_unitary(n, seed=n)}
    for name, t in operators.items():
        for p in (0.25, 0.5, 1.0):
            _margin_records(lines, f"is_p_hyponormal/{p}/{name}/n{n}",
                            lambda: qop.is_p_hyponormal(t, p))
        _margin_records(lines, f"is_paranormal/{name}/n{n}", lambda: qop.is_paranormal(t))
        _margin_records(lines, f"check_aluthge_theorems/{name}/n{n}",
                        lambda: qop.check_aluthge_theorems(t, 0.5, enforce=False).transform_margin)
    a, b = qop.ordered_pair(n, seed=n)
    for rs, probe in (((0.25, 0.5, 1.0), False), ((2.0, 3.0), True)):
        _margin_records(lines, f"check_lowner_heinz/{rs}/n{n}",
                        lambda: qop.check_lowner_heinz(a, b, rs, probe=probe))
    for p, q, r, probe in ((2.0, 2.0, 0.5, False), (3.0, 1.0, 0.25, True)):
        _margin_records(lines, f"check_furuta/{p},{q},{r}/n{n}",
                        lambda: qop.check_furuta(a, b, p, q, r, probe=probe))
    partial = operators["partial_isometry"]
    for name, h in (("hermitian", qop.hermitian(n, seed=n)), ("gram", partial.H @ partial)):
        _record(lines, f"eigh_q/{name}/n{n}/eigenvalues", lambda: qop.eigh_q(h).eigenvalues)
        _record(lines, f"eigh_q/{name}/n{n}/vectors", lambda: qop.eigh_q(h).vectors)


def _generator_records(lines: list[str], n: int) -> None:
    """One record per public generator's draw at size n."""
    stream = SplitMix64(mix_seed(n, 101))
    spectrum = [qop.Quaternion(*map(float, stream.normals(4))) for _ in range(n)]
    draws = {"ginibre": lambda: qop.ginibre(n, seed=n),
             "hermitian": lambda: qop.hermitian(n, seed=n),
             "positive": lambda: qop.positive(n, seed=n),
             "ordered_pair": lambda: qop.ordered_pair(n, seed=n),
             "normal_with_spectrum": lambda: qop.normal_with_spectrum(spectrum, seed=n),
             "near_normal": lambda: qop.near_normal(n, 0.1, seed=n),
             "unit_vector": lambda: qop.unit_vector(n, seed=n)}
    for name, draw in draws.items():
        _record(lines, f"generators/{name}/n{n}", draw)
    for defect in range(n + 1):
        _record(lines, f"generators/partial_isometry/{defect}/n{n}",
                lambda: qop.partial_isometry(n, defect, seed=n))


def _pair_records(lines: list[str], n: int) -> None:
    """The Hermitian reads of the panel's self-adjoint and Gram operators, and
    the pair algebra of operators and of vectors, at size n."""
    partial = qop.partial_isometry(n, n // 4, seed=n)
    for name, h in (("hermitian", qop.hermitian(n, seed=n)), ("gram", partial.H @ partial)):
        _record(lines, f"classify_basic/{name}/n{n}", lambda: qop.classify_basic(h))
        _record(lines, f"rayleigh_bounds/{name}/n{n}", lambda: qop.rayleigh_bounds(h))
        _record(lines, f"is_psd/{name}/n{n}", lambda: qop.is_psd(h))
    pairs = {"operator": (qop.ginibre(n, seed=n), qop.near_normal(n, 0.1, seed=n)),
             "vector": (qop.unit_vector(n, seed=n), qop.unit_vector(n, seed=n + 1))}
    for kind, (x, y) in pairs.items():
        others = (x, x + y * 1e-13, x + y * 1e-11, x * (1.0 + 4e-12), y)
        for name, run in (("add", lambda: x + y), ("sub", lambda: x - y), ("neg", lambda: -x),
                          ("rmul", lambda: 2.5 * x), ("mul", lambda: x * 2.5),
                          ("allclose", lambda: tuple(x.allclose(z, tol=tol) for z in others
                                                     for tol in (1e-12, 0.0)))):
            _record(lines, f"pair/{kind}/{name}/n{n}", run)
    q = qop.Quaternion(0.5, -1.25, 2.0, 0.75)
    _record(lines, f"pair/vector/quaternion/n{n}", lambda: pairs["vector"][0] * q)
    others = (q, q + qop.Quaternion(1e-13 * n), q + qop.Quaternion(0.0, 1e-11 * n), -q)
    _record(lines, f"isclose/n{n}", lambda: tuple(q.isclose(z, tol=tol) for z in others
                                                  for tol in (1e-12, 0.0)))


def _factorization_records(lines: list[str], n: int) -> None:
    """The reads of the panel's own SVDs at size n: |T*|^s, the tu-star and
    eigenspace margins, and the kernel report field by field."""
    operators = {"ginibre": qop.ginibre(n, seed=n), "near_normal": qop.near_normal(n, 0.1, seed=n),
                 "partial_isometry": qop.partial_isometry(n, n // 4, seed=n),
                 "random_unitary": qop.random_unitary(n, seed=n)}
    x = qop.unit_vector(n, seed=n)
    for name, t in operators.items():
        for s in (0.1, 0.5, 1.0):
            _record(lines, f"abs_star_power/{s}/{name}/n{n}", lambda: qop.abs_star_power(t, s))
        _margin_records(lines, f"check_tu_star/{name}/n{n}", lambda: qop.check_tu_star(t, x))
        z = qop.spherical_spectrum(qop.unitary_completion(qop.polar(t))).classes[0]
        q = qop.Quaternion(z.real, z.imag, 0.0, 0.0)
        _margin_records(lines, f"check_eigenspace_reducing/{name}/n{n}",
                        lambda: qop.check_eigenspace_reducing(t, q))
        report = qop.check_kernel_reduction(t)
        for field in dataclasses.fields(report):
            _record(lines, f"check_kernel_reduction/{field.name}/{name}/n{n}",
                    lambda: getattr(report, field.name))


def _closure_records(lines: list[str], n: int) -> None:
    """The base and transformed margins of ``check_gcsi_closure`` for each
    operation, and ``invert``, on a normal operator with distinct moduli at
    size n, where the transformed operator's singular vectors decide its
    margin; the compression acts on a block-diagonal normal operator."""
    spectrum = [complex(0.4 + 0.3 * k, 0.5 - 0.1 * k) for k in range(n)]
    t = qop.normal_with_spectrum(spectrum, seed=n)
    h = n // 2
    blocks = np.zeros((n, n, 4))
    blocks[:h, :h] = qop.normal_with_spectrum(spectrum[:h], seed=n + 1).to_array()
    blocks[h:, h:] = qop.normal_with_spectrum(spectrum[h:], seed=n + 2).to_array()
    cases = {"scalar": (t, {"scalar": 1.5}), "inverse": (t, {}),
             "unitary-equiv": (t, {"unitary": qop.random_unitary(n, seed=n)}),
             "compression": (qop.QMatrix(blocks), {"projector": qop.QMatrix.diag(
                 [1.0] * h + [0.0] * (n - h))})}

    def margins(which: str, op: qop.QMatrix, kwargs: dict[str, Any]) -> tuple[Any, Any]:
        report = qop.check_gcsi_closure(op, which, **kwargs)
        return report.base, report.transformed

    for which, (op, kwargs) in cases.items():
        _margin_records(lines, f"check_gcsi_closure/{which}/normal/n{n}",
                        lambda: margins(which, op, kwargs))
    _record(lines, f"invert/normal/n{n}", lambda: invert(t))


def main() -> int:
    lines: list[str] = []
    for prop in sorted(PROPERTIES):
        for dim in (1, 3, 4, 8):
            for seed in (3, 11):
                for probe in (False, True):
                    _record(lines, f"verify/{prop}/dim{dim}/seed{seed}/probe{int(probe)}",
                            lambda: qop.run_verify(prop, trials=8, seed=seed, dim=dim,
                                                   probe=probe))
        _record(lines, f"verify/{prop}/dim64/seed3",
                lambda: qop.run_verify(prop, trials=2, seed=3, dim=64))
    for prop in sorted(PROPERTIES):
        _record(lines, f"fuzz/{prop}", lambda: qop.run_fuzz(prop, budget=6, seed=5, dim=4))
    for i in range(20):
        prop, inst = _probe_instance(i)
        _record(lines, f"shrink/{prop}/{i}", lambda: _shrunk(prop, inst))
    for n in (4, 16, 64):
        _record(lines, f"spherical_point_spectrum/n{n}",
                lambda: qop.spherical_point_spectrum(qop.ginibre(n, seed=n)))
        for p in (0.37, 0.5):
            _record(lines, f"power_psd/{p}/n{n}",
                    lambda: qop.power_psd(qop.positive(n, seed=n), p))
        _record(lines, f"fun_calc/n{n}", lambda: qop.fun_calc(qop.hermitian(n, seed=n), np.tanh))
        _record(lines, f"random_unitary/n{n}", lambda: qop.random_unitary(n, seed=n))
    for n in (4, 16):
        _panel(lines, n)
    for i in range(4):
        prop, inst = _probe_instance(i)
        _sweep_records(lines, f"sweep/{prop}/{i}", prop, inst)
    for n in (3, 5):
        for prop in ("lowner-heinz", "furuta"):
            _sweep_records(lines, f"sweep/{prop}/n{n}", prop, _probe_pair(n, 31 + n, prop))
    for n in (1, 4, 16, 64):
        _generator_records(lines, n)
    for n in (4, 16):
        _pair_records(lines, n)
    for n in (4, 16):
        _factorization_records(lines, n)
    for n in (4, 16):
        _closure_records(lines, n)
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
