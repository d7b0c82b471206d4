"""End-to-end quality gates for the whole package.

Each test is one gate: it states a mathematical claim, drives it with
deterministic bulk sampling at desk scale (n <= 8), checks every margin at
the stated tolerance, and prints a single summary line.  Hand-derived or
closed-form values are recomputed in place rather than trusted from memory.
"""

import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qop.generators import (ginibre, hermitian, near_normal,
                            normal_with_spectrum, ordered_pair, positive,
                            random_unitary, unit_vector)
from qop.linalg import QMatrix, QVector, embed_chi, unembed_chi
from qop.matio import json_to_vector
from qop.oracles import (check_aluthge_theorems, check_furuta,
                         check_holder_mccarthy, check_lowner_heinz,
                         check_tu_star, gcsi_margin, gcsi_sweep,
                         is_p_hyponormal, is_paranormal)
from qop.quaternion import Quaternion
from qop.rng import SplitMix64
from qop.spectral import eigh_q, fun_calc, spherical_spectrum
from qop.transforms import abs_star_power, aluthge, polar
from qop.errors import StructureError

JORDAN = QMatrix.from_quaternions([[0.0, 1.0], [0.0, 0.0]])


def _gate(name: str) -> None:
    print(f"[gate] {name}: PASS")


def _rand_quaternion(stream: SplitMix64) -> Quaternion:
    c = stream.normals(4)
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))


def _hausdorff(a: list[complex], b: list[complex]) -> float:
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


def test_quaternion_algebra_bulk():
    stream = SplitMix64(2024)
    for _ in range(10_000):
        a = _rand_quaternion(stream)
        b = _rand_quaternion(stream)
        c = _rand_quaternion(stream)
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert ((a * b) * c - a * (b * c)).norm() <= 1e-12 * scale
        ab = a * b
        assert abs(ab.norm() - a.norm() * b.norm()) <= 1e-12 * max(1.0, a.norm() * b.norm())
        assert (ab.conjugate() - b.conjugate() * a.conjugate()).norm() <= 1e-12 * scale
    _gate("quaternion algebra, 1e4 triples")


def test_embedding_homomorphism_and_rejection():
    for k in range(500):
        n = 1 + k % 6
        a = ginibre(n, seed=9000 + 2 * k)
        b = ginibre(n, seed=9001 + 2 * k)
        ca, cb = embed_chi(a), embed_chi(b)
        scale = max(1.0, np.linalg.norm(ca) * np.linalg.norm(cb))
        assert np.linalg.norm(embed_chi(a @ b) - ca @ cb) <= 1e-10 * scale
        assert np.linalg.norm(embed_chi(a + b) - (ca + cb)) <= 1e-10 * scale
        assert np.linalg.norm(embed_chi(a.H) - ca.conj().T) <= 1e-10 * scale
        assert unembed_chi(ca).equals_exact(a)

    broken = embed_chi(ginibre(2, seed=9999)).copy()
    broken[0, 0] += 0.5
    with pytest.raises(StructureError):
        unembed_chi(broken)
    _gate("complex embedding, 500 pairs + rejection")


def test_functional_calculus_identities():
    for k in range(100):
        n = 2 + k % 5
        t = hermitian(n, seed=9500 + k)
        sq = fun_calc(t, lambda x: x * x)
        assert (sq - t @ t).frobenius() <= 1e-10 * max(1.0, t.frobenius() ** 2)

    for k in range(200):
        n = 2 + k % 5
        t = positive(n, seed=9700 + k)
        root = eigh_q(t).power_psd(1.0 / 3.0)
        assert (root @ root @ root - t).frobenius() <= 1e-7 * max(1.0, t.frobenius())

    # flat counter-diagonal operator: its complex double is a symmetric
    # involution with zero trace, so the doubled spectrum is {-1,-1,1,1}
    double = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ], dtype=np.complex128)
    reference = np.linalg.eigvalsh(double)
    assert np.allclose(reference, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    j = Quaternion(0.0, 0.0, 1.0, 0.0)
    t = QMatrix.from_quaternions([[0.0, j], [-j, 0.0]])
    got = eigh_q(t).eigenvalues
    assert abs(got[0] - (-1.0)) <= 1e-10 and abs(got[1] - 1.0) <= 1e-10
    _gate("functional calculus + counter-diagonal spectrum")


def test_polar_family_invariants():
    for k in range(500):
        n = 2 + k % 7
        t = ginibre(n, seed=11000 + k)
        if k % 3 == 2:
            arr = t.to_array().copy()
            arr[:, n - 1, :] = 0.0
            t = QMatrix(arr)
        parts = polar(t)
        scale = max(1.0, t.frobenius())
        assert (parts.u @ parts.abs_t - t).frobenius() <= 1e-9 * scale
        assert parts.rank + len(parts.kernel) == n
        uu = parts.u.H @ parts.u
        assert (uu @ uu - uu).frobenius() <= 1e-9
        assert (uu @ parts.abs_t - parts.abs_t).frobenius() <= 1e-9 * scale
        for vec in parts.kernel:
            assert (parts.u @ vec).norm() <= 1e-9 * scale
            assert (parts.abs_t @ vec).norm() <= 1e-9 * scale

        # U|T|^s U* is PSD by construction and a PSD matrix has a unique
        # PSD k-th root, so raising it back to TT* pins it as |T*|^s.  The
        # reference side is a plain product of t with its adjoint, which
        # keeps the two routes independent and avoids taking fractional
        # powers across a numerically smeared kernel.
        co = t @ t.H
        for s, back in ((0.5, 4), (1.0, 2), (2.0, 1)):
            m = abs_star_power(t, s)
            assert (m - m.H).frobenius() <= 1e-10 * max(1.0, scale ** s)
            lifted = m
            for _ in range(back - 1):
                lifted = lifted @ m
            assert (lifted - co).frobenius() <= 1e-9 * max(1.0, scale ** 2)
    _gate("polar decomposition, 500 operators x 3 star powers")


def test_power_monotonicity_suite():
    r_grid = tuple(0.1 * k for k in range(1, 10))
    for k in range(500):
        n = 2 + k % 4
        a, b = ordered_pair(n, seed=12000 + k)
        # the least scaled margin over the grid clears the bound iff every exponent does
        m = check_lowner_heinz(a, b, r_grid)
        assert m.value >= -1e-8 * m.details["scale"], (k, m.details["r"])

    a = QMatrix.from_quaternions([[2.0, 1.0], [1.0, 1.0]])
    b = QMatrix.from_quaternions([[1.0, 0.0], [0.0, 0.0]])
    # det(A^2 - B^2) = -1 by integer arithmetic, so squaring breaks the order
    a2 = [[5, 3], [3, 2]]
    b2 = [[1, 0], [0, 0]]
    d = [[a2[i][j] - b2[i][j] for j in range(2)] for i in range(2)]
    assert d[0][0] * d[1][1] - d[0][1] * d[1][0] == -1
    probe = check_lowner_heinz(a, b, (2.0,), probe=True)
    assert probe.value < -0.05
    assert probe.value == pytest.approx(3.0 - math.sqrt(10.0), abs=1e-10)
    _gate("order powers, 500 pairs x 9 exponents + squared-order probe")


def test_bracket_inequality_suite():
    stream = SplitMix64(77)
    count = 0
    while count < 500:
        p = 3.0 * stream.uniform(0.0, 1.0)
        r = 2.0 * stream.uniform(0.0, 1.0)
        q = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        if (1.0 + 2.0 * r) * q < p + 2.0 * r:
            continue
        n = 2 + count % 3
        a, b = ordered_pair(n, seed=13000 + count)
        m1, m2 = check_furuta(a, b, p, q, r)
        assert m1.value >= -1e-8 * m1.details["scale"], (count, p, q, r)
        assert m2.value >= -1e-8 * m2.details["scale"], (count, p, q, r)
        count += 1
    _gate("bracket inequalities, 500 admissible exponent triples")


def test_rayleigh_power_suite():
    for k in range(100):
        n = 2 + k % 5
        t = positive(n, seed=14000 + k)
        x = unit_vector(n, seed=14500 + k)
        m = check_holder_mccarthy(t, x, (0.3, 0.5, 0.7, 1.5, 2.0, 3.0))
        assert m.details["scale"] == max(1.0, abs(m.details["lhs"]), abs(m.details["rhs"]))
        assert m.value >= -1e-8 * m.details["scale"], (k, m.details["r"])
    _gate("Rayleigh powers, 100 states x 6 exponents")


def test_product_spectrum_symmetry():
    for k in range(200):
        n = 2 + k % 5
        s = ginibre(n, seed=15000 + 2 * k)
        t = ginibre(n, seed=15001 + 2 * k)
        spec_st = spherical_spectrum(s @ t)
        spec_ts = spherical_spectrum(t @ s)
        scale = max(1.0, spec_st.radius, spec_ts.radius)
        left = list(spec_st.classes) + [0j]
        right = list(spec_ts.classes) + [0j]
        assert _hausdorff(left, right) <= 1e-6 * scale, k
        assert abs(spec_st.radius - spec_ts.radius) <= 1e-8 * scale, k
    _gate("product spectra, 200 pairs")


def test_conjugation_covariance():
    for k in range(200):
        n = 2 + k % 5
        u = random_unitary(n, seed=16000 + 2 * k)
        s = hermitian(n, seed=16001 + 2 * k)
        ssys = eigh_q(s)
        shift = 1.0 - min(ssys.eigenvalues)
        f = lambda x: np.sqrt(np.maximum(x + shift, 0.0))
        fs = ssys.apply(f)
        conj = u @ s @ u.H
        fconj = eigh_q(0.5 * (conj + conj.H)).apply(f)
        scale = max(1.0, fs.frobenius())
        assert (fconj - u @ fs @ u.H).frobenius() <= 1e-8 * scale, k
    _gate("conjugation covariance, 200 unitary/selfadjoint pairs")


def test_trace_collapse_and_class_consistency():
    exponents = (0.25, 0.5, 1.0)
    for k in range(1000):
        n = 2 + k % 3
        fam = k % 10
        if fam < 7:
            t = ginibre(n, seed=17000 + k)
        elif fam == 7:
            t = near_normal(n, 0.0, seed=17000 + k)
        elif fam == 8:
            t = hermitian(n, seed=17000 + k)
        else:
            t = positive(n, seed=17000 + k)
        gram = eigh_q(t.H @ t)
        cog = eigh_q(t @ t.H)
        top = max(gram.eigenvalues[-1], 0.0)
        scale2 = max(1.0, top)
        residual = (t.H @ t - t @ t.H).frobenius()
        nonnormal = residual > 1e-4 * scale2

        gw = np.maximum(np.array(gram.eigenvalues), 0.0)
        cw = np.maximum(np.array(cog.eigenvalues), 0.0)
        gw[gw <= 1e-8 * top] = 0.0
        cw[cw <= 1e-8 * top] = 0.0
        for p in exponents:
            tr_g = float(np.sum(gw ** p))
            tr_c = float(np.sum(cw ** p))
            assert abs(tr_g - tr_c) <= 1e-8 * max(1.0, abs(tr_g)), (k, p)

            if nonnormal:
                diff = gram.power_psd(p) - cog.power_psd(p)
                herm = embed_chi(0.5 * (diff + diff.H))
                low = float(np.linalg.eigvalsh(0.5 * (herm + herm.conj().T))[0])
                assert low < 0.0, (k, p)
                if k % 100 == 0:
                    m = is_p_hyponormal(t, p)
                    assert m.value == pytest.approx(low, abs=1e-9 * scale2)
                    assert m.violated
    _gate("trace collapse + hyponormality consistency, 1e3 operators")


def test_sampled_inequality_falsification():
    g = gcsi_margin(JORDAN, 0.5)
    assert g.value == pytest.approx(-1.0, abs=1e-12)
    assert json_to_vector(g.witness["x"]).allclose(QVector.basis(2, 1), tol=0.0)
    assert json_to_vector(g.witness["y"]).allclose(QVector.basis(2, 0), tol=0.0)

    para = is_paranormal(JORDAN)
    assert para.value == pytest.approx(-1.0, abs=1e-10)
    assert json_to_vector(para.witness["vector"]).allclose(QVector.basis(2, 1), tol=0.0)

    members = [QMatrix.identity(3)]
    for k in range(10):
        members.append(random_unitary(2 + k % 4, seed=18000 + k))
    for t in members:
        for m in gcsi_sweep(t).values():
            assert m.value >= -1e-10
        assert is_paranormal(t).value >= -1e-10
        n = t.rows
        probes = [QVector.basis(n, i) for i in range(n)]
        probes += [unit_vector(n, seed=18500 + 7 * n + i) for i in range(4)]
        for x in probes:
            assert check_tu_star(t, x).value >= -1e-10
    _gate("sampled inequality: Jordan rejected exactly, members clean")


def test_aluthge_fixed_points_and_theorems():
    ops = []
    stream = SplitMix64(41)
    for k in range(15):
        n = 2 + k % 4
        values = [_rand_quaternion(stream) for _ in range(n)]
        if k % 5 == 4:
            values[0] = Quaternion(0.0, 0.0, 0.0, 0.0)
        ops.append(normal_with_spectrum(values, seed=19000 + k))
    for k in range(15):
        ops.append(random_unitary(2 + k % 4, seed=19500 + k))

    for t in ops:
        scale = max(1.0, t.frobenius())
        assert (aluthge(t) - t).frobenius() <= 1e-9 * scale
        for p in (0.25, 0.75, 1.0):
            rep = check_aluthge_theorems(t, p)
            margins = [rep.transform_margin, rep.double_reading_b]
            margins += [m for _, m in rep.monotone]
            if rep.double_reading_a is not None:
                margins.append(rep.double_reading_a)
            for m in margins:
                assert m.value >= -1e-8 * m.details["scale"]

    # |J| = diag(0,1) so both outer square-root factors kill the single
    # nonzero entry: the Jordan transform is the zero matrix
    assert aluthge(JORDAN).frobenius() <= 1e-12
    _gate("Aluthge fixed points + exponent theorems, 30 operators")


def test_cli_determinism():
    exe = shutil.which("qop")
    cmd = [exe] if exe else [sys.executable, "-m", "qop"]
    cmd += ["verify", "furuta", "--trials", "100", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    _gate("CLI verify determinism, byte-identical reports")
