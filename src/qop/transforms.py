"""Polar decomposition and the transforms built from it.

Every square operator factors as T = U |T| with |T| = (T* T)^{1/2} and U a
partial isometry vanishing on ker T.  Directions come from one eigensystem
of the Gram operator T* T; singular values are then measured directly as
||T v_i|| on those directions, because forming the Gram squares the noise
floor and its eigenvalues cannot see anything below sqrt(eps) times the
top singular value.  The eigensystem is kept on the result so the
fractional powers |T|^s needed by the transforms reuse it instead of
re-diagonalizing.

The transforms sandwich powers of the modulus between pieces of the
isometry: the usual transform |T|^{1/2} U |T|^{1/2}, its one-parameter
family |T|^s U |T|^{1-s}, the companion |T| U, the bracket U |T|^r U, and
U |T|^s U*, which equals |T*|^s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ShapeError
from .linalg import QMatrix, QVector, outer
from .spectral import HermitianEigensystem, _gram_singular_values, eigh_q

RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PolarParts:
    """T = U |T| with U a partial isometry, ker U = ker T.

    ``tau`` is the absolute singular-value cutoff that decided ``rank``.
    ``sigmas`` are the singular values in the eigensystem's ascending
    order, measured as ||T v_i||, not as square roots of Gram eigenvalues.
    ``kernel`` and ``cokernel`` are right-orthonormal bases of ker T and
    ker T*, listed in ascending singular-value order so that index k of one
    matches index k of the other.  ``gram_system`` is the eigensystem of
    T* T; modulus powers reuse its directions at no extra factorization
    cost.
    """

    u: QMatrix
    abs_t: QMatrix
    rank: int
    tau: float
    sigmas: tuple[float, ...]
    kernel: tuple[QVector, ...]
    cokernel: tuple[QVector, ...]
    gram_system: HermitianEigensystem

    @property
    def dim(self) -> int:
        return self.abs_t.rows

    def abs_power(self, s: float) -> QMatrix:
        """|T|^s for s >= 0, with |T|^0 = I and, for s > 0, zero on ker T."""
        if s == 0.0:
            return QMatrix.identity(self.dim)
        return _modulus_function(self.gram_system, self.sigmas, self.tau,
                                 lambda x: x ** s)

    def reconstruct(self) -> QMatrix:
        return self.u @ self.abs_t


def _modulus_function(system: HermitianEigensystem, sigmas: tuple[float, ...],
                      tau: float, f) -> QMatrix:
    """Sum of f(sigma_i) v_i v_i* over the directions above the cutoff."""
    out = QMatrix.zeros(system.dim)
    for i, s in enumerate(sigmas):
        if s > tau:
            v = system.vectors.column(i)
            out = out + f(s) * outer(v, v)
    return out


def polar(t: QMatrix, *, rank_rtol: float = RANK_RTOL) -> PolarParts:
    """Polar factors of a square operator.

    Singular values at or below ``rank_rtol`` times the largest are treated
    as zero; the isometry is T (|T| restricted to the range of T*)^{-1},
    which annihilates the kernel outright rather than leaving noise there.
    """
    if not t.is_square():
        raise ShapeError(f"polar decomposition needs a square operator, got {t.shape}")
    system, sigma = _gram_singular_values(t)
    tau = rank_rtol * max(sigma, default=0.0)
    keep = [s > tau for s in sigma]
    rank = sum(keep)

    abs_t = _modulus_function(system, sigma, tau, lambda x: x)
    u = t @ _modulus_function(system, sigma, tau, lambda x: 1.0 / x)

    kernel = tuple(system.vectors.column(i) for i in range(system.dim) if not keep[i])

    # rank T = rank T*, but near-zero eigenvalues of T T* carry absolute
    # roundoff ~ eps * sigma_max^2, far above tau^2; take the count from the
    # kernel side and the directions from the bottom of the co-Gram spectrum
    cosystem = eigh_q(t @ t.H)
    cokernel = tuple(cosystem.vectors.column(i) for i in range(len(kernel)))

    return PolarParts(
        u=u,
        abs_t=abs_t,
        rank=rank,
        tau=tau,
        sigmas=sigma,
        kernel=kernel,
        cokernel=cokernel,
        gram_system=system,
    )


def unitary_completion(parts: PolarParts) -> QMatrix:
    """Extend the polar isometry to a unitary.

    The null directions of T are mapped onto the null directions of T* in
    matching singular-value order: U_c = U + sum_k y_k x_k^*.  Valid
    whenever the two kernels have equal dimension, which holds for every
    square operator.
    """
    u = parts.u
    for x, y in zip(parts.kernel, parts.cokernel):
        u = u + outer(y, x)
    return u


def _parts(t: QMatrix, parts: PolarParts | None) -> PolarParts:
    return polar(t) if parts is None else parts


def abs_power(parts: PolarParts, s: float) -> QMatrix:
    """|T|^s for s > 0 from precomputed polar parts."""
    if s <= 0.0:
        raise DomainError(f"exponent must be positive, got {s}")
    return parts.abs_power(s)


def aluthge(t: QMatrix, *, parts: PolarParts | None = None) -> QMatrix:
    """|T|^{1/2} U |T|^{1/2}."""
    p = _parts(t, parts)
    half = p.abs_power(0.5)
    return half @ p.u @ half


def lambda_aluthge(t: QMatrix, lam: float, *,
                   parts: PolarParts | None = None) -> QMatrix:
    """|T|^lam U |T|^{1-lam} for lam in [0, 1]; lam 0 gives back T itself."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"weight must lie in [0, 1], got {lam}")
    if lam == 0.0:
        return t
    p = _parts(t, parts)
    return p.abs_power(lam) @ p.u @ p.abs_power(1.0 - lam)


def duggal(t: QMatrix, *, parts: PolarParts | None = None) -> QMatrix:
    """|T| U."""
    p = _parts(t, parts)
    return p.abs_t @ p.u


def furuta_sr(t: QMatrix, r: float, *,
              parts: PolarParts | None = None) -> QMatrix:
    """U |T|^r U for r > 0."""
    if r <= 0.0:
        raise DomainError(f"exponent must be positive, got {r}")
    p = _parts(t, parts)
    return p.u @ p.abs_power(r) @ p.u


def abs_star_power(t: QMatrix, s: float, *,
                   parts: PolarParts | None = None) -> QMatrix:
    """U |T|^s U*, equal to |T*|^s for s > 0."""
    if s <= 0.0:
        raise DomainError(f"exponent must be positive, got {s}")
    p = _parts(t, parts)
    return p.u @ p.abs_power(s) @ p.u.H
