"""Spectra of quaternionic operators via the complex adjoint embedding.

Right eigenvalues of an operator fill out similarity spheres; we report
each sphere by its upper-half-plane representative w + |v| i, the
standard eigenvalue.  On the embedded side the spectrum of chi(T) is
closed under conjugation and every standard eigenvalue shows up as a
conjugate pair, so pairing the complex spectrum and collapsing each pair
recovers the quaternionic data.

Self-adjoint operators get a full eigensystem: real eigenvalues with a
right-orthonormal basis of eigenvectors, pulled back cluster by cluster
from the embedded eigenvectors the first time they are read.  Scalar
functions of the operator are evaluated on the embedded side and
unembedded afterwards, so they never need the pulled-back vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _eig
from .errors import DomainError, PreconditionError, ShapeError, StructureError
from .linalg import (QMatrix, QVector, _chi_eigvalsh, _from_psi, _selfadjoint_residual,
                     embed_chi, unembed_chi)
from .quaternion import Quaternion

PAIR_TOL = 1e-8
CLUSTER_TOL = 1e-8
MERGE_TOL = 1e-6
_GS_ACCEPT = 1e-6


def _require_square(t: QMatrix) -> int:
    if not t.is_square():
        raise ShapeError(f"square operator required, got {t.shape}")
    return t.rows


def _require_selfadjoint(a: QMatrix, herm_tol: float) -> int:
    n = _require_square(a)
    dev = _selfadjoint_residual(a)
    if dev > herm_tol * max(1.0, a.frobenius()):
        raise PreconditionError(f"operator is not self-adjoint (deviation {dev:.3e})")
    return n


def _hermitian_from_chi(v: np.ndarray, fw: np.ndarray) -> QMatrix:
    """Pull back V diag(fw) V*: orthonormal columns in whole pairs, real weights."""
    m = (v * fw[None, :]) @ v.conj().T
    return unembed_chi(0.5 * (m + m.conj().T), tol=1e-6)


@dataclass(frozen=True)
class HermitianEigensystem:
    """Diagonalization A = V diag(w) V* of a self-adjoint operator.

    ``eigenvalues`` ascend, each cluster of close eigenvalues replaced by
    its mean, and ``vectors`` has right-orthonormal columns.  The embedded
    eigendecomposition is kept so that scalar functions of A can be formed
    without re-diagonalizing.  ``vectors`` is pulled back from it on first
    read and cached, so a failed recovery (``StructureError``) surfaces
    there, not in ``eigh_q``.
    """

    eigenvalues: tuple[float, ...]
    _w2: np.ndarray
    _v2: np.ndarray

    @cached_property
    def vectors(self) -> QMatrix:
        # a cluster is a run of equal values in ``eigenvalues``: cluster means
        # are separated by more than CLUSTER_TOL, far above their round-off
        lam = np.asarray(self.eigenvalues)
        cuts = [0, *(np.flatnonzero(np.diff(lam)) + 1).tolist(), lam.size]
        columns: list[QVector] = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            columns.extend(_quaternionic_basis(self._v2[:, 2 * lo:2 * hi], hi - lo))
        return QMatrix.from_columns(columns)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def eigenvalue_scale(self) -> float:
        return max(abs(w) for w in self.eigenvalues)

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> QMatrix:
        """Evaluate a real scalar function of the operator, f(A).

        ``f`` must accept a float ndarray and return one of the same shape.
        """
        fw = np.asarray(f(self._w2), dtype=np.float64)
        if fw.shape != self._w2.shape or not np.all(np.isfinite(fw)):
            raise DomainError("scalar function must return finite reals on the spectrum")
        return _hermitian_from_chi(self._v2, fw)

    def reconstruct(self) -> QMatrix:
        return self.apply(lambda w: w)

    def power_psd(self, p: float, *, clamp_tol: float = 1e-8) -> QMatrix:
        """Fractional power A^p, p >= 0, of a positive semidefinite operator.

        Eigenvalues in [-clamp_tol * ||A||, 0) are treated as roundoff and
        clamped to zero; anything below that is a genuine negativity and a
        domain error.  Small positive eigenvalues are kept as they are: in
        graded products like B^r A^p B^r they can sit many orders below the
        top eigenvalue and still carry signal, so no positive floor is safe
        here.  The convention 0^0 = 1 makes A^0 the identity on the full
        space, kernel included.
        """
        if p < 0.0:
            raise DomainError(f"exponent must be nonnegative, got {p}")
        w = self._w2
        floor = clamp_tol * float(np.abs(w).max(initial=0.0))
        if float(w.min()) < -floor:
            raise DomainError(
                f"operator is not positive semidefinite (min eigenvalue {w.min():.3e})")
        wc = np.maximum(w, 0.0)
        if p == 0.0:
            return self.apply(lambda v: np.ones_like(v))
        def f(_: np.ndarray) -> np.ndarray:
            out = np.zeros_like(wc)
            pos = wc > 0.0
            out[pos] = wc[pos] ** p
            return out
        return self.apply(f)


def _pair_real(w: np.ndarray, *, pair_tol: float) -> np.ndarray:
    """Collapse an ascending real spectrum of even length into midpoints."""
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    a, b = w[0::2], w[1::2]
    gaps = np.abs(b - a)
    if gaps.size and float(gaps.max()) > pair_tol * scale:
        raise StructureError(
            f"eigenvalue pairing failure (worst gap {gaps.max():.3e} at scale {scale:.3e})")
    return 0.5 * (a + b)


def _quaternionic_basis(v: np.ndarray, need: int) -> list[QVector]:
    """Right-orthonormal basis of the quaternionic span of the columns of v.

    Pivoted Gram-Schmidt on the embedded side: each step takes the column
    with the largest remaining norm and removes from every column its part
    in span{x, J conj(x)}, the image of the quaternionic line through x.
    Taking the largest residual first keeps the basis orthonormal to
    working precision whatever basis of a degenerate cluster the solver
    returned.
    """
    rest = np.array(v, dtype=np.complex128)
    n = rest.shape[0] // 2
    out: list[QVector] = []
    for _ in range(need):
        norms = np.linalg.norm(rest, axis=0)
        k = int(np.argmax(norms))
        if norms[k] <= _GS_ACCEPT:
            raise StructureError(
                f"eigenvector recovery produced {len(out)} of {need} vectors")
        x = rest[:, k] / norms[k]
        line = np.stack([x, np.concatenate([-np.conj(x[n:]), np.conj(x[:n])])], axis=1)
        rest -= line @ (line.conj().T @ rest)
        out.append(_from_psi(x))
    return out


def _null_basis(v: np.ndarray, need: int) -> tuple[QVector, ...]:
    """``_quaternionic_basis`` with each vector's largest entry made real and
    positive by a right unit factor, so a null line does not depend on the solver."""
    out = []
    for x in _quaternionic_basis(v, need):
        lead = x[int(np.argmax((x.to_array() ** 2).sum(axis=1)))]
        out.append(x * (lead.conjugate() / lead.norm()))
    return tuple(out)


def _chi_svd(a: QMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, sigma, V) from the thin SVD chi(a) = W S V*.  chi(a) has every singular
    value twice: ``sigma`` holds the pair means, descending, and columns
    2k, 2k + 1 of W and V belong to ``sigma[k]``."""
    w, s2, vh = _eig.svd(embed_chi(a))
    return w, s2.reshape(-1, 2).mean(axis=1), vh.conj().T


def eigh_q(a: QMatrix, *, herm_tol: float = 1e-8,
           pair_tol: float = PAIR_TOL) -> HermitianEigensystem:
    """Eigensystem of a self-adjoint operator.

    The embedded matrix is diagonalized and the doubled spectrum is
    collapsed pair by pair; consecutive pair means at most CLUSTER_TOL
    (relative) apart form one cluster, reported at its mean.  A pairing
    failure raises ``StructureError`` here.  The eigenvectors, one
    right-orthonormal block per cluster, are pulled back only when
    ``vectors`` is first read, and a failed recovery raises there.
    """
    n = _require_selfadjoint(a, herm_tol)
    m = embed_chi(a)
    w2, v2 = _eig.eigh(0.5 * (m + m.conj().T))
    mids = _pair_real(w2, pair_tol=pair_tol)

    scale = max(1.0, float(np.abs(mids).max(initial=0.0)))
    cuts = [0, *(np.flatnonzero(np.diff(mids) > CLUSTER_TOL * scale) + 1).tolist(), n]
    lam = mids.copy()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo > 1:
            lam[lo:hi] = np.mean(mids[lo:hi])
    return HermitianEigensystem(eigenvalues=tuple(lam.tolist()),
                                _w2=np.repeat(mids, 2), _v2=v2)


def min_eigenvalue(a: QMatrix, *, herm_tol: float = 1e-8) -> float:
    """Smallest eigenvalue of a self-adjoint operator, no vectors formed."""
    return rayleigh_bounds(a, herm_tol=herm_tol)[0]


def _tolerant_order(zs: list[complex], tol: float) -> list[complex]:
    """Sort by real part, then by imaginary part within real parts ``tol`` apart.

    Round-off in the real parts then cannot interleave points that differ
    only in their imaginary parts, such as the spheres of i and 2i.
    """
    out: list[complex] = []
    run: list[complex] = []
    for z in sorted(zs, key=lambda z: z.real):
        if run and z.real - run[0].real > tol:
            out.extend(sorted(run, key=lambda z: z.imag))
            run = []
        run.append(z)
    return out + sorted(run, key=lambda z: z.imag)


def standard_eigenvalues(t: QMatrix, *, pair_tol: float = PAIR_TOL) -> tuple[complex, ...]:
    """The n standard (upper half-plane) eigenvalues, repeats included.

    The spectrum of chi(T) is closed under conjugation.  Each eigenvalue is
    paired with the nearest unused conjugate of another one, every pair is
    collapsed to its midpoint folded into the upper half-plane, and the
    result is ordered with ``pair_tol`` as the tie tolerance.
    """
    n = _require_square(t)
    vals = _eig.eigvals(embed_chi(t))
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    free = np.ones(vals.size, dtype=bool)
    reps: list[complex] = []
    worst = 0.0
    for i in range(vals.size):
        if not free[i]:
            continue
        free[i] = False
        dist = np.where(free, np.abs(vals - np.conj(vals[i])), np.inf)
        j = int(np.argmin(dist))
        free[j] = False
        worst = max(worst, float(dist[j]))
        mid = 0.5 * (vals[i] + np.conj(vals[j]))
        reps.append(complex(mid.real, abs(mid.imag)))
    if worst > pair_tol * scale:
        raise StructureError(
            f"conjugate pairing failure (worst gap {worst:.3e} at scale {scale:.3e})")
    assert len(reps) == n
    return tuple(_tolerant_order(reps, pair_tol * scale))


@dataclass(frozen=True)
class SphericalSpectrum:
    """Similarity classes of right eigenvalues and the spectral radius."""

    classes: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    radius: float


def spherical_spectrum(t: QMatrix, *, merge_tol: float = MERGE_TOL) -> SphericalSpectrum:
    """Distinct eigenvalue spheres of an operator, one representative each.

    A standard eigenvalue joins the first class whose first member lies
    within ``merge_tol`` (relative); classes keep the order of
    ``standard_eigenvalues``.
    """
    reps = standard_eigenvalues(t)
    tol = merge_tol * max(1.0, max(abs(z) for z in reps))
    classes: list[list[complex]] = []
    for z in reps:
        home = next((c for c in classes if abs(z - c[0]) <= tol), None)
        if home is None:
            classes.append([z])
        else:
            home.append(z)
    centers = tuple(complex(np.mean([z.real for z in c]), np.mean([z.imag for z in c]))
                    for c in classes)
    mult = tuple(len(c) for c in classes)
    radius = max(abs(z) for z in centers)
    return SphericalSpectrum(classes=centers, multiplicities=mult, radius=radius)


def delta_q(t: QMatrix, q: Quaternion) -> QMatrix:
    """The sphere polynomial T^2 - T (q + conj q) + I |q|^2 at q."""
    n = _require_square(t)
    return t @ t - t * (2.0 * q.w) + QMatrix.identity(n) * q.norm_squared()


def _kernel_gap(t: QMatrix, rep: complex) -> float:
    """Smallest singular value of Delta_rep over max(1, ||Delta_rep||_F)."""
    d = delta_q(t, Quaternion(rep.real, rep.imag, 0.0, 0.0))
    sigma_min = float(np.sqrt(max(min_eigenvalue(d.H @ d), 0.0)))
    return sigma_min / max(1.0, d.frobenius())


@dataclass(frozen=True)
class PointSpectrumCheck:
    """One eigenvalue sphere with its verified-kernel evidence."""

    representative: complex
    kernel_gap: float
    verified: bool


def verify_point_spectrum(t: QMatrix, *, tol: float = 1e-6) -> tuple[PointSpectrumCheck, ...]:
    """Confirm each spectral sphere carries kernel vectors for its Delta.

    ``kernel_gap`` is the smallest singular value of Delta_c divided by its
    size; ``verified`` means the gap clears ``tol``.  On a finite
    dimensional space every class should verify.
    """
    spec = spherical_spectrum(t)
    checks = []
    for c in spec.classes:
        gap = _kernel_gap(t, c)
        checks.append(PointSpectrumCheck(representative=c, kernel_gap=gap,
                                         verified=gap <= tol))
    return tuple(checks)


def spherical_point_spectrum(t: QMatrix, *, tol: float = 1e-6,
                             merge_tol: float = MERGE_TOL) -> SphericalSpectrum:
    """Eigenvalue spheres with the point-spectrum property verified.

    Each reported class must make its sphere polynomial singular; a class
    failing that check means the solver and the kernel test disagree, which
    is reported as a structure error rather than silently dropped.
    """
    spec = spherical_spectrum(t, merge_tol=merge_tol)
    for c in spec.classes:
        gap = _kernel_gap(t, c)
        if gap > tol:
            raise StructureError(
                f"class {c} reported but Delta has no kernel (gap {gap:.3e})")
    return spec


def kernel_basis(a: QMatrix, *, rtol: float = 1e-8) -> list[QVector]:
    """Right-orthonormal basis of ker A, possibly empty.

    The basis spans the trailing right singular vectors of chi(A).
    Singular values at or below ``rtol`` times max(1, largest singular
    value) count as zero; they come from the SVD, accurate to eps times the
    largest, so a true kernel direction is never mistaken for a small one.
    """
    if a.rows < a.cols:
        raise ShapeError("kernel extraction expects rows >= cols")
    _, sigma, v = _chi_svd(a)
    rank = int(np.count_nonzero(sigma > rtol * max(1.0, float(sigma[0]))))
    return list(_null_basis(v[:, 2 * rank:], a.cols - rank))


def spherical_eigenspace(t: QMatrix, rep: complex, *, count: int | None = None,
                         rtol: float = 1e-6) -> list[QVector]:
    """Right-orthonormal basis of ker Delta_rep, the eigenspace of a sphere.

    For an operator that is diagonalizable on the sphere of ``rep`` this is
    exactly the span of the eigenvectors with eigenvalue in that sphere;
    defective spheres contribute their full polynomial kernel.
    """
    q = Quaternion(rep.real, rep.imag, 0.0, 0.0)
    vecs = kernel_basis(delta_q(t, q), rtol=rtol)
    if count is not None and len(vecs) < count:
        raise StructureError(f"kernel holds {len(vecs)} vectors, expected {count}")
    return vecs if count is None else vecs[:count]


def fun_calc(t: QMatrix, f: Callable[[np.ndarray], np.ndarray], *,
             system: HermitianEigensystem | None = None) -> QMatrix:
    """Continuous functional calculus f(T) for self-adjoint T.

    Pass a precomputed ``system`` to evaluate several functions of the same
    operator without repeating the diagonalization.
    """
    return (eigh_q(t) if system is None else system).apply(f)


def power_psd(t: QMatrix, p: float, *, clamp_tol: float = 1e-8,
              system: HermitianEigensystem | None = None) -> QMatrix:
    """T^p for positive semidefinite T and p >= 0; T^0 = I."""
    return (eigh_q(t) if system is None else system).power_psd(p, clamp_tol=clamp_tol)


def is_psd(t: QMatrix, tol: float = 1e-8, *,
           system: HermitianEigensystem | None = None) -> tuple[bool, float]:
    """Positive semidefiniteness test defining the operator order.

    Returns (flag, margin) with margin the smallest eigenvalue; the flag is
    true when margin >= -tol * max(1, ||T||).  A caller holding the
    eigensystem of T passes it as ``system``: T is still checked to be
    self-adjoint, and the extreme eigenvalues are read from the system's
    unclustered pair means instead of a fresh eigensolve.
    """
    if system is None:
        lo, hi = rayleigh_bounds(t)
    else:
        _require_selfadjoint(t, 1e-8)
        lo, hi = float(system._w2[0]), float(system._w2[-1])
    opnorm = max(abs(lo), abs(hi))
    return lo >= -tol * max(1.0, opnorm), lo


def rayleigh_bounds(t: QMatrix, *, herm_tol: float = 1e-8) -> tuple[float, float]:
    """Extreme eigenvalues (m, M) of a self-adjoint operator.

    Every Rayleigh quotient of a unit vector lies in [m, M].
    """
    _require_selfadjoint(t, herm_tol)
    w = _chi_eigvalsh(t)
    return float(w[0]), float(w[-1])
