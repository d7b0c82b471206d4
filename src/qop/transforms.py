"""Polar decomposition and the transforms built from it.

Every square operator factors as T = U |T| with |T| = (T* T)^{1/2} and U a
partial isometry vanishing on ker T.  Both factors come from one singular
value decomposition of the embedded matrix, chi(T) = W S V*: U is the
pull-back of W_r V_r* and |T|^s that of V_r S_r^s V_r*, over the singular
pairs above the rank cutoff (Higham, Functions of Matrices, ch. 8), each
formed as its top block row only.  The singular values are accurate to
eps times the largest, so the rank is decided without squaring the noise
floor.  The trailing columns of V and W span ker T and ker T*; |T| and
right-orthonormal bases of the two kernels are built from them on first
read, so a caller that needs only U and powers of |T| pays for neither.

The transforms sandwich powers of the modulus between pieces of the
isometry: the usual transform |T|^{1/2} U |T|^{1/2}, its one-parameter
family |T|^s U |T|^{1-s}, the companion |T| U, the bracket U |T|^r U, and
U |T|^s U*, which equals |T*|^s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import QMatrix, QVector, _from_chi_top, outer
from .spectral import _chi_svd, _hermitian_from_chi, _hermitian_matrix, _null_basis

RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PolarParts:
    """T = U |T| with U a partial isometry, ker U = ker T.

    ``tau`` is the absolute singular-value cutoff that decided ``rank``.
    ``sigmas`` are the singular values of T, ascending.  ``_v`` and ``_s``
    keep copies of the embedded right singular vectors above the cutoff and
    their singular values, so every power |T|^s is one complex product.
    ``_ker_v`` and ``_ker_w`` keep copies of the embedded right and left
    singular vectors below the cutoff, not the whole left factor.  ``abs_t``
    and the kernel bases are built from these on first read and cached:
    ``kernel`` and ``cokernel`` are right-orthonormal bases of ker T and
    ker T*, each vector with its largest-modulus entry real and positive.
    """

    u: QMatrix
    rank: int
    tau: float
    sigmas: tuple[float, ...]
    _v: np.ndarray
    _s: np.ndarray
    _ker_v: np.ndarray
    _ker_w: np.ndarray

    @cached_property
    def abs_t(self) -> QMatrix:
        return _hermitian_matrix(self._v, self._s)

    @cached_property
    def kernel(self) -> tuple[QVector, ...]:
        return _null_basis(self._ker_v, self.u.rows - self.rank)

    @cached_property
    def cokernel(self) -> tuple[QVector, ...]:
        return _null_basis(self._ker_w, self.u.rows - self.rank)

    def abs_power(self, s: float) -> QMatrix:
        """|T|^s for s >= 0, with |T|^0 = I and, for s > 0, zero on ker T."""
        if s == 0.0:
            return QMatrix.identity(self.u.rows)
        return _hermitian_matrix(self._v, self._s ** s)

    def _abs_powers(self, ss: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """|T|^s for each s > 0 of ``ss``, as (k, n, n) pair stacks; each row is
        ``abs_power``'s, weights raised to a scalar exponent."""
        return _hermitian_from_chi(self._v, np.stack([self._s ** s for s in ss]))

    def reconstruct(self) -> QMatrix:
        return self.u @ self.abs_t


def polar(t: QMatrix) -> PolarParts:
    """Polar factors of a square operator.

    Singular values at or below ``RANK_RTOL`` times the largest are treated
    as zero.  The rank is counted over whole singular pairs of chi(T), so a
    pair is never split, and the factors do not depend on which basis the
    solver picked inside a pair.
    """
    if not t.is_square():
        raise ShapeError(f"polar decomposition needs a square operator, got {t.shape}")
    w, sigma, v = _chi_svd(t)
    tau = RANK_RTOL * float(sigma[0])
    rank = int(np.count_nonzero(sigma > tau))
    r2 = 2 * rank
    # np.array keeps each slice's memory order, on which the bits of |T|^s
    # and of the kernel bases depend
    v_r = np.array(v[:, :r2])
    return PolarParts(
        u=_from_chi_top(w[:t.rows, :r2] @ v_r.conj().T),
        rank=rank,
        tau=tau,
        sigmas=tuple(sigma[::-1].tolist()),
        _v=v_r,
        _s=np.repeat(sigma[:rank], 2),
        _ker_v=np.array(v[:, r2:]),
        _ker_w=np.array(w[:, r2:]),
    )


def unitary_completion(parts: PolarParts) -> QMatrix:
    """Extend the polar isometry to a unitary.

    The k-th kernel vector x_k of T is mapped onto the k-th kernel vector
    y_k of T*: U_c = U + sum_k y_k x_k^*.  Valid whenever the two kernels
    have equal dimension, which holds for every square operator.
    """
    u = parts.u
    for x, y in zip(parts.kernel, parts.cokernel):
        u = u + outer(y, x)
    return u


def abs_power(parts: PolarParts, s: float) -> QMatrix:
    """|T|^s for finite s > 0 from precomputed polar parts."""
    if not 0.0 < s < np.inf:
        raise DomainError(f"exponent must be positive and finite, got {s}")
    return parts.abs_power(s)


def aluthge(t: QMatrix, *, parts: PolarParts | None = None) -> QMatrix:
    """|T|^{1/2} U |T|^{1/2}; a caller holding the polar parts of T passes them."""
    p = polar(t) if parts is None else parts
    half = p.abs_power(0.5)
    return half @ p.u @ half


def lambda_aluthge(t: QMatrix, lam: float) -> QMatrix:
    """|T|^lam U |T|^{1-lam} for lam in [0, 1]; lam 0 gives back T itself."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"weight must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return t
    p = polar(t)
    return p.abs_power(lam) @ p.u @ p.abs_power(1.0 - lam)


def duggal(t: QMatrix) -> QMatrix:
    """|T| U."""
    p = polar(t)
    return p.abs_t @ p.u


def furuta_sr(t: QMatrix, r: float) -> QMatrix:
    """U |T|^r U for finite r > 0."""
    if not 0.0 < r < np.inf:
        raise DomainError(f"exponent must be positive and finite, got {r}")
    p = polar(t)
    return p.u @ p.abs_power(r) @ p.u


def abs_star_power(t: QMatrix, s: float) -> QMatrix:
    """U |T|^s U*, equal to |T*|^s for finite s > 0."""
    if not 0.0 < s < np.inf:
        raise DomainError(f"exponent must be positive and finite, got {s}")
    p = polar(t)
    return p.u @ p.abs_power(s) @ p.u.H
