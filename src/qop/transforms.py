"""Polar decomposition and the transforms built from it.

Every square operator factors as T = U |T| with |T| = (T* T)^{1/2} and U a
partial isometry vanishing on ker T.  Both factors come from one singular
value decomposition of the embedded matrix, chi(T) = W S V*: U is the
pull-back of W_r V_r*, |T|^s that of V_r S_r^s V_r* and |T*|^s = U |T|^s U*
that of W_r S_r^s W_r*, over the singular pairs above the rank cutoff
(Higham, Functions of Matrices, ch. 8), each formed as its top block row
only, so U's error near a small singular value does not enter |T*|^s.  The
singular values are accurate to eps times the largest, so the rank is
decided without squaring the noise floor.  The trailing columns of V and W
span ker T and ker T*; |T| and right-orthonormal bases of the two kernels
are built from them on first read, so a caller that needs only U and powers
of |T| pays for neither.

The transforms sandwich powers of the modulus between pieces of the
isometry: the usual transform |T|^{1/2} U |T|^{1/2}, its one-parameter
family |T|^s U |T|^{1-s}, the companion |T| U and the bracket U |T|^r U.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import (QMatrix, QVector, _checked, _from_chi_top, _product, _stack_pairs, _stacked,
                     _trusted, outer)
from .spectral import _chi_svds, _hermitian_from_chi, _hermitian_matrix, _null_basis

RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PolarParts:
    """T = U |T| with U a partial isometry, ker U = ker T.

    ``sigmas`` are the singular values of T, ascending, so ||T|| is the
    last.  ``_v`` and ``_s`` keep copies of the embedded right singular
    vectors above RANK_RTOL ||T|| and their singular values, so every power
    |T|^s is one complex product, and ``_ker_v`` those below it.  ``_w``
    keeps every embedded left singular vector: its first 2 rank columns
    give |T*|^s as ``_v`` gives |T|^s, and the rest span ker T*.
    ``abs_t`` and the kernel bases are built from these on first read and
    cached: ``kernel`` and ``cokernel`` are right-orthonormal bases of ker T
    and ker T*, each vector with its largest-modulus entry real and positive.
    """

    u: QMatrix
    rank: int
    sigmas: tuple[float, ...]
    _v: np.ndarray
    _w: np.ndarray
    _s: np.ndarray
    _ker_v: np.ndarray

    @cached_property
    def abs_t(self) -> QMatrix:
        return _hermitian_matrix(self._v, self._s)

    @cached_property
    def kernel(self) -> tuple[QVector, ...]:
        return _null_basis(self._ker_v, self.u.rows - self.rank)

    @cached_property
    def cokernel(self) -> tuple[QVector, ...]:
        return _null_basis(self._w[:, 2 * self.rank:], self.u.rows - self.rank)

    def abs_power(self, s: float) -> QMatrix:
        """|T|^s for finite s >= 0, with |T|^0 = I and, for s > 0, zero on ker T."""
        if not 0.0 <= s < np.inf:
            raise DomainError(f"exponent must be nonnegative and finite, got {s}")
        if s == 0.0:
            return QMatrix.identity(self.u.rows)
        return _hermitian_matrix(self._v, self._s ** s)

    def reconstruct(self) -> QMatrix:
        return self.u @ self.abs_t


def polar(t: QMatrix) -> PolarParts:
    """Polar factors of a square operator.

    Singular values at or below ``RANK_RTOL`` times the largest are treated
    as zero.  The rank is counted over whole singular pairs of chi(T), so a
    pair is never split, and the factors do not depend on which basis the
    solver picked inside a pair.
    """
    return _polars([t])[0]


def _polars(ops: Sequence[QMatrix]) -> list[PolarParts]:
    """``polar`` of each operator of one shape, from one SVD of the stack.

    Each row decides its rank on its own, and the rows of one rank share
    the product U = W_r V_r*.  Each part owns copies of its rows, laid out
    as a lone operator's, so it is bit for bit the part of that operator.
    """
    for t in ops:
        if not t.is_square():
            raise ShapeError(f"polar decomposition needs a square operator, got {t.shape}")
    if not ops:
        return []
    n, k = ops[0].rows, len(ops)
    w, sigma, vh = _chi_svds(*_stack_pairs(ops))
    rows = sigma.tolist()
    ranks = [sum(s > RANK_RTOL * row[0] for s in row) for row in rows]
    tops = [None] * k
    for r in set(ranks):
        # the rows of one rank, the stack itself when every row has it
        idx = [i for i, rank in enumerate(ranks) if rank == r]
        sel = idx if len(idx) < k else slice(None)
        for i, top in zip(idx, w[sel, :n, :2 * r] @ vh[sel, :2 * r]):
            tops[i] = top
    # np.array keeps each slice's memory order, on which the bits of |T|^s
    # and of the kernel bases depend
    v = vh.conj().swapaxes(-1, -2)
    out = []
    for i, r in enumerate(ranks):
        r2 = 2 * r
        out.append(PolarParts(
            u=_from_chi_top(tops[i] if k == 1 else tops[i].copy()),
            rank=r,
            sigmas=tuple(reversed(rows[i])),
            _v=np.array(v[i, :, :r2]),
            _w=w[i] if k == 1 else w[i].copy(),
            _s=np.repeat(sigma[i, :r], 2),
            _ker_v=np.array(v[i, :, r2:]),
        ))
    return out


def _abs_powers(parts: Sequence[PolarParts], exps: Sequence[Sequence[float]],
                factors: Sequence[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """|T_i|^s for each s > 0 of ``exps[i]``, as one pair stack in case order,
    each slice ``abs_power``'s bit for bit: the parts of one rank and grid
    length are pulled back in one product, weights raised to scalar exponents.
    ``factors[i]`` replaces ``parts[i]._v``: its ``_w`` up to column 2 rank gives |T_i*|^s."""
    factors = factors or [pp._v for pp in parts]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (pp, ss) in enumerate(zip(parts, exps)):
        if ss:
            groups.setdefault((pp.rank, len(ss)), []).append(i)
    n = parts[0].u.rows
    pieces = []
    for idx in groups.values():
        # np.stack keeps the column-major layout of each part's V
        v = _stacked([factors[i] for i in idx])
        fw = np.array([[parts[i]._s ** s for s in exps[i]] for i in idx])
        a, b = _hermitian_from_chi(v[:, None], fw)
        pieces.append((idx, a.reshape(-1, n, n), b.reshape(-1, n, n)))
    if len(pieces) == 1 and len(pieces[0][0]) == len(parts):
        return pieces[0][1:]
    starts = np.cumsum([0] + [len(ss) for ss in exps]).tolist()
    out_a = np.empty((starts[-1], n, n), dtype=np.complex128)
    out_b = np.empty_like(out_a)
    for idx, a, b in pieces:
        rows = [j for i in idx for j in range(starts[i], starts[i + 1])]
        out_a[rows], out_b[rows] = a, b
    return out_a, out_b


def _aluthge_transforms(parts: Sequence[PolarParts]) -> list[QMatrix]:
    """``aluthge`` of the operator of each polar part, as stacked products."""
    ha, hb = _abs_powers(parts, [(0.5,)] * len(parts))
    xa, xb = _checked(_product(ha, hb, *_stack_pairs([pp.u for pp in parts])))
    return [_trusted(QMatrix, a, b) for a, b in zip(*_product(xa, xb, ha, hb))]


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


def aluthge(t: QMatrix) -> QMatrix:
    """|T|^{1/2} U |T|^{1/2}."""
    return _aluthge_transforms([polar(t)])[0]


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
    """|T*|^s = W_r S_r^s W_r*, equal to U |T|^s U*, for finite s > 0."""
    if not 0.0 < s < np.inf:
        raise DomainError(f"exponent must be positive and finite, got {s}")
    p = polar(t)
    return _hermitian_matrix(p._w[:, :2 * p.rank], p._s ** s)
