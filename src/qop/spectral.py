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
functions of the operator are evaluated on the embedded side and pulled
back from the top block row, so they never need the pulled-back vectors;
several functions of one operator, such as the powers A^p over an
exponent grid, are pulled back as one stack.  A stack of operators is
diagonalized in one eigensolver call and read as arrays, its pair-mean
spectra and embedded eigenvectors, never as eigensystems; its powers at
one exponent are weighed as one table, and the functions of all of them
are pulled back in one product.  Self-adjointness is checked once, where
a public function receives T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _eig
from .errors import DomainError, PreconditionError, QopError, ShapeError, StructureError
from .linalg import (QMatrix, QVector, _adjoints, _check_tol, _checked, _embed_pair,
                     _frobenius, _from_psi, _hermitian_chi, _identities, _pair_eigvalsh,
                     _product, _require_finite, _selfadjoint_residual, _trusted)
from .quaternion import Quaternion

PAIR_TOL = 1e-8
CLUSTER_TOL = 1e-8
MERGE_TOL = 1e-6
# eigenvalues of a PSD operator in [-CLAMP_TOL * ||A||, 0) are round-off
CLAMP_TOL = 1e-8
# a sphere carries kernel vectors when its relative kernel gap is at most this
GAP_TOL = 1e-6
# the rank cutoff of a sphere polynomial's kernel
EIGENSPACE_RTOL = 1e-6
# the rank cutoff of ``kernel_basis`` and of the kernels of T, T* and T^2
KERNEL_RTOL = 1e-8
_GS_ACCEPT = 1e-6
_NOT_FINITE = "scalar function must return finite reals on the spectrum"


def _require_square(t: QMatrix) -> int:
    if not t.is_square():
        raise ShapeError(f"square operator required, got {t.shape}")
    return t.rows


def _require_selfadjoint(a: QMatrix) -> None:
    err = _selfadjoint_errors(a._a[None], a._b[None])[0]
    if err is not None:
        raise err


def _selfadjoint_errors(a: np.ndarray, b: np.ndarray) -> list[QopError | None]:
    """The error of each operator x = A + B j of the (k, n, m) pair stacks
    (A, B) unless it is square with ||x - x*||_F <= 1e-8 max(1, ||x||_F),
    else None.  One comparison passes every x equal to x*.  Of the others,
    one past twice the bound in a stacked sum of squares, a row's sum the
    same in any stack, fails with its root; the rest take exact norms on
    copies, of x over its largest entry modulus where a norm is not finite
    (an overflowed complex sum reads NaN), reporting a non-finite deviation
    as the scaled x's times the scale."""
    if a.shape[-1] != a.shape[-2]:
        return [ShapeError(f"square operator required, got {a.shape[1:]}") for _ in a]
    ha, hb = _adjoints(a, b)
    same = np.logical_and.reduce((a == ha) & (b == hb), axis=(1, 2)).tolist()
    out: list[QopError | None] = [None] * len(a)
    rows = [k for k, ok in enumerate(same) if not ok]
    if not rows:
        return out
    da, db = a - ha, b - hb
    sq, dev2 = (np.einsum("ki,ki->k", x, x).tolist() for x in (np.concatenate(
        p, axis=-1).view(np.float64).reshape(len(a), -1) for p in ((a, b), (da, db))))
    for k in rows:
        limit, d2 = 4e-16 * max(sq[k], 1.0), dev2[k]
        dev = math.sqrt(d2) if limit < d2 < math.inf else _frobenius(da[k], db[k])
        if not dev * dev > limit:
            norm = _frobenius(a[k], b[k])
            if not (math.isfinite(dev) and math.isfinite(norm)):
                s = float(np.hypot(np.abs(a[k]), np.abs(b[k])).max())
                x, y = a[k] / s, b[k] / s
                if (res := _selfadjoint_residual(x, y)) <= 1e-8 * _frobenius(x, y):
                    continue
                dev = dev if math.isfinite(dev) else res * s
            elif dev <= 1e-8 * max(1.0, norm):
                continue
        out[k] = PreconditionError(f"operator is not self-adjoint (deviation {dev:.3e})")
    return out


def _hermitian_from_chi(v: np.ndarray, fw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull back V diag(w) V* (orthonormal columns in whole pairs) from its
    top block row, symmetrized on the pair, for each real weight row w of
    ``fw`` against the V of ``v`` it broadcasts with: k rows against one V,
    or against a stack of k.  Returns the (..., n, n) stacks (A, B) of the
    operators A + B j, checked finite.  GEMM packs its operands, so each
    slice of the one stacked product is bit for bit the product of its row
    alone."""
    n = v.shape[-2] // 2
    top = (v[..., :n, :] * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)
    a, b = top[..., :n], top[..., n:]
    a, b = 0.5 * (a + a.conj().swapaxes(-1, -2)), 0.5 * (b - b.swapaxes(-1, -2))
    _require_finite(a, b, "QMatrix")
    return a, b


def _hermitian_matrix(v: np.ndarray, fw: np.ndarray) -> QMatrix:
    """``_hermitian_from_chi`` of one weight row, as an operator."""
    a, b = _hermitian_from_chi(v, fw[None])
    return _trusted(QMatrix, a[0], b[0])


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
            x = _quaternionic_bases(self._v2[None, :, 2 * lo:2 * hi], hi - lo)[0]
            columns.extend(map(_from_psi, x))
        return QMatrix.from_columns(columns)

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> QMatrix:
        """Evaluate a real scalar function of the operator, f(A).

        ``f`` must accept a float ndarray and return one of the same shape,
        real and finite on the spectrum.
        """
        fw = np.asarray(f(self._w2), dtype=np.float64)
        if fw.shape != self._w2.shape or not np.isfinite(fw).all():
            raise DomainError(_NOT_FINITE)
        return _hermitian_matrix(self._v2, fw)

    def reconstruct(self) -> QMatrix:
        return self.apply(lambda w: w)

    def power_psd(self, p: float) -> QMatrix:
        """Fractional power A^p, finite p >= 0, of a positive semidefinite operator.

        Eigenvalues in [-CLAMP_TOL * ||A||, 0) are treated as roundoff and
        clamped to zero; anything below that is a genuine negativity and a
        domain error.  Small positive eigenvalues are kept as they are: in
        graded products like B^r A^p B^r they can sit many orders below the
        top eigenvalue and still carry signal, so no positive floor is safe
        here.  The convention 0^0 = 1 makes A^0 the identity on the full
        space, kernel included.
        """
        return _hermitian_matrix(self._v2, _psd_weights(self._w2[None], [(p,)])[0, 0])


def _psd_weights(w: np.ndarray, exps: Sequence[Sequence[float]]) -> np.ndarray:
    """The (k, R, m) table whose row (i, j) weighs A_i^{exps[i][j]}, from the
    (k, m) stack of ascending pair-mean spectra w, with every check of
    ``power_psd``.

    Each column of ``exps`` is weighed in turn, each distinct exponent in it
    once, so a lone operator's checks come as in one ``power_psd`` per
    exponent.  The clamp does not depend on the exponent, so it is decided
    once; its error names the first failing row.
    """
    failure = next(filter(None, _clamp_errors(w)), None)
    # the clamp leaves every eigenvalue at or below 0 at weight 0, and 0^0 = 1
    zeroed = np.where(w > 0.0, w, 0.0)
    table = np.empty((len(exps), len(exps[0]), w.shape[-1]))
    for j in range(table.shape[1]):
        groups: dict[float, list[int]] = {}
        for i, e in enumerate(exps):
            groups.setdefault(e[j], []).append(i)
        for p, rows in groups.items():
            if p < 0.0:
                raise DomainError(f"exponent must be nonnegative, got {p}")
            if failure is not None:
                raise failure
            # 1.0 ** nan is 1.0 and a clamped eigenvalue takes no power,
            # so a non-finite exponent need not leave a non-finite weight
            if not math.isfinite(p):
                raise DomainError(_NOT_FINITE)
            # the exponent is a scalar, as numpy computes x ** 0.5 and x ** 2.0
            # as sqrt and square, so an array of them would move bits; a
            # slice or a lone row's index copies no rows
            rows = slice(None) if len(rows) == len(exps) else rows[0] if len(rows) == 1 else rows
            powered = zeroed[rows] ** p
            if not np.isfinite(powered).all():
                raise DomainError(_NOT_FINITE)
            table[rows, j] = powered
    return table


def _clamp_errors(w: np.ndarray) -> list[DomainError | None]:
    """The clamp's error of each row of a stack of ascending spectra, or None:
    a row fails when its least eigenvalue lies below -CLAMP_TOL times its largest modulus."""
    return [DomainError(f"operator is not positive semidefinite (min eigenvalue {lo:.3e})")
            if lo < -CLAMP_TOL * max(-lo, hi) else None
            for lo, hi in zip(w[:, 0].tolist(), w[:, -1].tolist())]


def _psd_powers(w: np.ndarray, v: np.ndarray,
                exps: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """The (k, R, n, n) pair stacks of A_i^{exps[i][j]}, from the spectra and
    eigenvectors that ``_spectra`` returns, in one pull-back."""
    return _hermitian_from_chi(v[:, None], _psd_weights(w, exps))


def _pair_real(w: np.ndarray) -> np.ndarray:
    """Collapse an ascending real spectrum of even length into midpoints, or
    each row of a stack of them; the first row failing to pair raises.  An
    ascending row has its largest modulus at an end and no negative gap."""
    a, b = w[..., 0::2], w[..., 1::2]
    scales = np.maximum(np.maximum(-w[..., :1], w[..., -1:]), 1.0)
    if (b - a > PAIR_TOL * scales).any():
        gaps, scales = (b - a).max(axis=-1), scales[..., 0]
        i = np.unravel_index((gaps > PAIR_TOL * scales).argmax(), gaps.shape)
        raise StructureError(
            f"eigenvalue pairing failure (worst gap {gaps[i]:.3e} at scale {scales[i]:.3e})")
    return 0.5 * (a + b)


def _quaternionic_bases(v: np.ndarray, need: int) -> np.ndarray:
    """The embedded vectors psi(x) of a right-orthonormal basis of the
    quaternionic span of the columns of each (2n, c) matrix of the stack v,
    as a (k, need, 2n) array.

    Pivoted Gram-Schmidt on the embedded side: each step takes the column
    with the largest remaining norm and removes from every column its part
    in span{x, J conj(x)}, the image of the quaternionic line through x.
    Taking the largest residual first keeps the basis orthonormal to
    working precision whatever basis of a degenerate cluster the solver
    returned.  Every step is taken for all of the stack at once.  Each
    slice keeps its memory order, on which the summation order of its
    column norms depends; the first step at which a slice falls short raises.
    """
    rest = np.array(v, dtype=np.complex128)
    rows = np.arange(rest.shape[0])
    n = rest.shape[1] // 2
    out = np.empty((rest.shape[0], need, 2 * n), dtype=np.complex128)
    for step in range(need):
        # np.linalg.norm(rest, axis=0) of each slice
        norms = np.sqrt(np.add.reduce((rest.conj() * rest).real, axis=-2))
        cols = norms.argmax(axis=-1)
        best = norms[rows, cols]
        if (best <= _GS_ACCEPT).any():
            raise StructureError(f"eigenvector recovery produced {step} of {need} vectors")
        x = rest[rows, :, cols] / best[:, None]
        line = np.stack([x, np.concatenate([-np.conj(x[:, n:]), np.conj(x[:, :n])], axis=-1)],
                        axis=-1)
        rest -= line @ (line.conj().swapaxes(-1, -2) @ rest)
        out[:, step] = x
    return out


def _null_bases(v: np.ndarray, need: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, need, n) pair stacks of ``_null_basis`` of each (2n, c) matrix
    of the stack v, checked finite: each vector of ``_quaternionic_bases``
    with its largest entry made real and positive by a right unit factor,
    so a null line does not depend on the solver."""
    n = v.shape[-2] // 2
    if not need:
        return (np.empty((v.shape[0], 0, n), dtype=np.complex128),) * 2
    x = _quaternionic_bases(v, need)
    # the pairs of ``_from_psi``, and the entry of largest modulus of each vector
    xa, xb = x[..., :n], -x[..., n:].conj()
    r = np.stack([xa, xb], axis=-1).view(np.float64).reshape(-1, n, 4)
    lead = r[np.arange(len(r)), (r ** 2).sum(axis=-1).argmax(axis=-1)]
    # the unit q = conj(lead) / |lead| of each vector, as ``Quaternion`` forms
    # it: the squares summed left to right, the conjugate's signs after division
    u = (lead / np.sqrt(np.add.accumulate(lead * lead, axis=1)[:, -1:])).view(np.complex128)
    qa, qb = (q.reshape(xa.shape[:-1] + (1,)) for q in (u[:, 0].conj(), -u[:, 1]))
    # x * q for the unit q of each vector, as ``QVector.__mul__`` forms it
    ya, yb = xa * qa - xb * qb.conj(), xa * qb + xb * qa.conj()
    _require_finite(ya, yb, "QVector")
    return ya, yb


def _null_basis(v: np.ndarray, need: int) -> tuple[QVector, ...]:
    """The basis of ``_quaternionic_bases`` of v, each vector's largest entry made
    real and positive by a right unit factor, so a null line does not depend on the solver."""
    ya, yb = _null_bases(v[None], need)
    return tuple(_trusted(QVector, a, b) for a, b in zip(ya[0], yb[0]))


def _chi_svds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, sigma, V*) stacks from one thin SVD of the embedded (k, n, m) pair
    stacks (A, B), chi = W S V*.  chi has every singular value twice: row i
    of ``sigma`` holds the pair means, descending, and columns 2k, 2k + 1 of
    W and V belong to ``sigma[i, k]``."""
    w, s2, vh = _eig.svd(_embed_pair(a, b))
    # the mean of each pair, as np.mean forms it
    return w, (s2[:, 0::2] + s2[:, 1::2]) / 2.0, vh


def eigh_q(a: QMatrix) -> HermitianEigensystem:
    """Eigensystem of a self-adjoint operator.

    The embedded matrix is diagonalized and the doubled spectrum is
    collapsed pair by pair; consecutive pair means at most CLUSTER_TOL
    (relative) apart form one cluster, reported at its mean.  A pairing
    failure raises ``StructureError`` here.  The eigenvectors, one
    right-orthonormal block per cluster, are pulled back only when
    ``vectors`` is first read, and a failed recovery raises there.
    """
    _require_selfadjoint(a)
    w, v = _spectra(a._a[None], a._b[None])
    lam = w[0, 0::2].copy()
    scale = max(-lam[0], lam[-1], 1.0)
    cuts = [0, *(np.flatnonzero(np.diff(lam) > CLUSTER_TOL * scale) + 1).tolist(), lam.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo > 1:
            lam[lo:hi] = np.mean(lam[lo:hi])
    return HermitianEigensystem(eigenvalues=tuple(lam.tolist()), _w2=w[0], _v2=v[0])


def _spectra(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2n) ascending pair-mean spectra and the (k, 2n, 2n) embedded
    eigenvectors of each operator A + B j of the (k, n, n) pair stacks
    (A, B), from one eigensolver call.  Each spectrum is paired, and a
    pairing failure raised, in stack order."""
    w2, v2 = _eig.eigh(_hermitian_chi(a, b))
    return np.repeat(_pair_real(w2), 2, axis=-1), v2


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


def _conjugate_pairs(vals: np.ndarray) -> tuple[list[int], list[int], float]:
    """Greedy conjugate pairing of a spectrum closed under conjugation.

    Walking i in index order, each unpaired i is paired with the first
    unpaired j != i nearest to conj(vals[i]).  Returns the index lists
    (first, second), one entry per pair in walk order, and the worst gap
    |vals[j] - conj(vals[i])|.  Row i of the one distance matrix holds every
    gap of i.  Its nearest index, the first one reaching the row minimum, is
    the greedy choice whenever it is still unpaired, as no index before it
    ties with it; only otherwise is the row searched again over the unpaired.
    """
    dist = np.abs(vals[None, :] - np.conj(vals)[:, None])
    np.fill_diagonal(dist, np.inf)
    nearest = dist.argmin(axis=1).tolist()
    free = [True] * vals.size
    first: list[int] = []
    second: list[int] = []
    worst = 0.0
    for i in range(vals.size):
        if not free[i]:
            continue
        free[i] = False
        j = nearest[i]
        if free[j]:
            gap = float(dist[i, j])
        else:
            row = np.where(free, dist[i], np.inf)
            j = int(np.argmin(row))
            gap = float(row[j])
        free[j] = False
        worst = max(worst, gap)
        first.append(i)
        second.append(j)
    return first, second, worst


def standard_eigenvalues(t: QMatrix) -> tuple[complex, ...]:
    """The n standard (upper half-plane) eigenvalues, repeats included.

    The spectrum of chi(T) is closed under conjugation.  Each eigenvalue is
    paired with the nearest unused conjugate of another one, every pair is
    collapsed to its midpoint folded into the upper half-plane, and the
    result is ordered with ``PAIR_TOL`` as the tie tolerance.
    """
    _require_square(t)
    return _standard_eigenvalues(t._a[None], t._b[None])[0]


def _standard_eigenvalues(a: np.ndarray, b: np.ndarray) -> list[tuple[complex, ...]]:
    """``standard_eigenvalues`` of each operator of the (k, n, n) pair stacks
    (A, B), from one eigenvalue solve; each row is paired and ordered on its
    own, and the first row failing to pair raises."""
    out = []
    for vals in _eig.eigvals(_embed_pair(a, b)):
        scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
        first, second, worst = _conjugate_pairs(vals)
        if worst > PAIR_TOL * scale:
            raise StructureError(
                f"conjugate pairing failure (worst gap {worst:.3e} at scale {scale:.3e})")
        # each midpoint is (0.5 + 0j) * (z_i + conj z_j) with the complex product
        # written out, as numpy forms it on a scalar: its zero terms decide the
        # sign of a real part that rounds to zero, where the array product may not
        sums = vals[first] + np.conj(vals[second])
        mids = np.empty_like(sums)
        mids.real = 0.5 * sums.real - 0.0 * sums.imag
        mids.imag = np.abs(0.5 * sums.imag + 0.0 * sums.real)
        reps = mids.tolist()
        assert len(reps) == a.shape[-1]
        out.append(tuple(_tolerant_order(reps, PAIR_TOL * scale)))
    return out


@dataclass(frozen=True)
class SphericalSpectrum:
    """Similarity classes of right eigenvalues and the spectral radius."""

    classes: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    radius: float


def spherical_spectrum(t: QMatrix) -> SphericalSpectrum:
    """Distinct eigenvalue spheres of an operator, one representative each.

    A standard eigenvalue joins the first class whose first member lies
    within ``MERGE_TOL`` (relative); classes keep the order of
    ``standard_eigenvalues``.
    """
    return _spherical(standard_eigenvalues(t))


def _spherical(reps: Sequence[complex]) -> SphericalSpectrum:
    """``spherical_spectrum`` from the operator's standard eigenvalues."""
    tol = MERGE_TOL * max(1.0, max(abs(z) for z in reps))
    classes: list[list[complex]] = []
    for z in reps:
        home = next((c for c in classes if abs(z - c[0]) <= tol), None)
        if home is None:
            classes.append([z])
        else:
            home.append(z)
    # np.mean of one float x is 0.0 + x: x itself, but 0.0 for -0.0
    centers = tuple(complex(c[0].real + 0.0, c[0].imag + 0.0) if len(c) == 1 else
                    complex(np.mean([z.real for z in c]), np.mean([z.imag for z in c]))
                    for c in classes)
    mult = tuple(len(c) for c in classes)
    radius = max(abs(z) for z in centers)
    return SphericalSpectrum(classes=centers, multiplicities=mult, radius=radius)


def delta_q(t: QMatrix, q: Quaternion) -> QMatrix:
    """The sphere polynomial T^2 - T (q + conj q) + I |q|^2 at q."""
    _require_square(t)
    da, db = _delta_qs(t._a[None], t._b[None], [q])
    return _trusted(QMatrix, da[0], db[0])


def _delta_qs(a: np.ndarray, b: np.ndarray,
              qs: Sequence[Quaternion]) -> tuple[np.ndarray, np.ndarray]:
    """``delta_q`` of each operator of the (k, n, n) pair stacks (A, B) at
    ``qs[i]``, as pair stacks, each term checked finite as it is formed."""
    two_re = np.array([2.0 * q.w for q in qs])[:, None, None]
    norm2 = np.array([q.norm_squared() for q in qs])[:, None, None]
    sa, sb = _checked(_product(a, b, a, b))
    xa, xb = _checked((a * two_re, b * two_re))
    sa, sb = _checked((sa - xa, sb - xb))
    eye = _identities(*a.shape[:2])
    return _checked((sa + eye * norm2, sb + np.zeros_like(eye) * norm2))


def _kernel_gaps(t: QMatrix, reps: Sequence[complex]) -> list[float]:
    """The smallest singular value of Delta_rep over max(1, ||Delta_rep||_F)
    for each of ``reps``, from an SVD of Delta_rep, so the noise floor is
    not squared.  One class at a time, so only one Delta and its factors
    are held at once."""
    gaps = []
    for z in reps:
        da, db = _delta_qs(t._a[None], t._b[None], [Quaternion(z.real, z.imag, 0.0, 0.0)])
        gaps.append(float(_chi_svds(da, db)[1][0, -1]) / max(1.0, _frobenius(da[0], db[0])))
    return gaps


def spherical_point_spectrum(t: QMatrix) -> SphericalSpectrum:
    """Eigenvalue spheres with the point-spectrum property verified.

    Each reported class must carry kernel vectors for its Delta: its kernel
    gap, the smallest singular value of Delta_c divided by its size, must
    clear ``GAP_TOL``.  A class failing it means the solver and the kernel
    test disagree, which is reported as a structure error rather than
    silently dropped; the first such class in class order is named.
    """
    spec = spherical_spectrum(t)
    for c, gap in zip(spec.classes, _kernel_gaps(t, spec.classes)):
        if not gap <= GAP_TOL:
            raise StructureError(f"class {c} reported but Delta has no kernel (gap {gap:.3e})")
    return spec


def kernel_basis(a: QMatrix, *, rtol: float = KERNEL_RTOL) -> list[QVector]:
    """Right-orthonormal basis of ker A, possibly empty.

    The basis spans the trailing right singular vectors of chi(A).
    Singular values at or below ``rtol`` times max(1, largest singular
    value) count as zero; they come from the SVD, accurate to eps times the
    largest, so a true kernel direction is never mistaken for a small one.
    ``rtol`` must be finite and lie in [0, 1).
    """
    if a.rows < a.cols:
        raise ShapeError("kernel extraction expects rows >= cols")
    ka, kb = _kernel_bases(a._a[None], a._b[None], rtol)[0][0]
    return [_trusted(QVector, x, y) for x, y in zip(ka, kb)]


def _kernel_bases(a: np.ndarray, b: np.ndarray,
                  rtol: float) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[float]]:
    """The (dim ker, m) pair stacks of ``kernel_basis`` of each operator of the
    (k, n, m) pair stacks (A, B), n >= m, and the largest singular value of
    each, from one SVD; each row decides its rank on its own, and the rows
    of one rank build their bases together."""
    # a NaN cutoff compares false with every singular value, and a negative
    # one counts every singular value as nonzero
    if not 0.0 <= rtol < 1.0:
        raise DomainError(f"rtol must be finite and lie in [0, 1), got {rtol!r}")
    _, sigma, vh = _chi_svds(a, b)
    ranks, tops = [], sigma[:, 0].tolist()
    for row in sigma.tolist():
        cut = rtol * max(1.0, row[0])
        ranks.append(sum(s > cut for s in row))
    v, m = vh.conj().swapaxes(-1, -2), a.shape[-1]
    out: list[tuple[np.ndarray, np.ndarray]] = [None] * len(ranks)
    for r in set(ranks):
        # the rows of one rank; indexing keeps each slice's column-major layout
        rows = [i for i, k in enumerate(ranks) if k == r]
        out_a, out_b = _null_bases(v[rows if len(rows) < len(ranks) else slice(None), :, 2 * r:],
                                   m - r)
        for i, ka, kb in zip(rows, out_a, out_b):
            out[i] = ka, kb
    return out, tops


def spherical_eigenspace(t: QMatrix, rep: complex) -> list[QVector]:
    """Right-orthonormal basis of ker Delta_rep, the eigenspace of a sphere.

    For an operator that is diagonalizable on the sphere of ``rep`` this is
    exactly the span of the eigenvectors with eigenvalue in that sphere;
    defective spheres contribute their full polynomial kernel.  The rank
    cutoff is ``EIGENSPACE_RTOL``.
    """
    q = Quaternion(rep.real, rep.imag, 0.0, 0.0)
    return kernel_basis(delta_q(t, q), rtol=EIGENSPACE_RTOL)


def fun_calc(t: QMatrix, f: Callable[[np.ndarray], np.ndarray]) -> QMatrix:
    """Continuous functional calculus f(T) for self-adjoint T.

    To evaluate several functions of one operator, diagonalize it once with
    ``eigh_q`` and call ``apply`` on the eigensystem.
    """
    return eigh_q(t).apply(f)


def power_psd(t: QMatrix, p: float) -> QMatrix:
    """T^p for positive semidefinite T and finite p >= 0; T^0 = I."""
    return eigh_q(t).power_psd(p)


def is_psd(t: QMatrix, tol: float = 1e-8) -> tuple[bool, float]:
    """Positive semidefiniteness test defining the operator order.

    Returns (flag, margin) with margin the smallest eigenvalue; the flag is
    true when margin >= -tol * max(1, ||T||).
    """
    _check_tol(tol)
    lo, hi = rayleigh_bounds(t)
    return lo >= -tol * max(1.0, max(abs(lo), abs(hi))), lo


def _psd_errors(w: np.ndarray, tol: float, what: str) -> list[PreconditionError | None]:
    """``is_psd``'s verdict on the ends of each row of a stack of ascending
    spectra, whose largest modulus is max(-lo, hi): the error of each row
    that fails, saying ``what``, or None."""
    return [None if lo >= -tol * max(-lo, hi, 1.0) else
            PreconditionError(f"{what} (min eigenvalue {lo:.3e})")
            for lo, hi in zip(w[:, 0].tolist(), w[:, -1].tolist())]


def rayleigh_bounds(t: QMatrix) -> tuple[float, float]:
    """Extreme eigenvalues (m, M) of a self-adjoint operator.

    Every Rayleigh quotient of a unit vector lies in [m, M].
    """
    _require_selfadjoint(t)
    w = _pair_eigvalsh(t._a, t._b)
    return float(w[0]), float(w[-1])
