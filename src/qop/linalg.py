"""Vectors and matrices over the quaternions, as right modules.

A matrix T = A + B j (q = (w + x i) + (y + z i) j entrywise) is stored as
the complex pair (A, B), the top block row of its complex adjoint embedding
chi(T) = [[A, B], [-conj(B), conj(A)]]; a vector is an n x 1 matrix.  The
real (w, x, y, z) layout is the boundary layout of the public constructors,
which copy and check their input, and of ``to_array``.  Internal results
skip those checks except finiteness, so an overflow still raises.

Scalars act on vectors from the right, ``u * q``; the left scalar action
``left_scalar_mul`` is the one induced by the standard coordinate basis,
(q u)_i = q * u_i.  Operators are right-linear; on pairs the product is
(A1 A2 - B1 conj(B2), A1 B2 + B1 conj(A2)).  chi is an injective
*-homomorphism, so spectra are computed on the complex side and pulled back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _eig
from .errors import PreconditionError, ShapeError, StructureError
from .quaternion import Quaternion
from .rng import SplitMix64

MAX_DIM = 64


def _coerce_entry(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.from_real(value)
    if isinstance(value, complex):
        return Quaternion.from_complex(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion entry")


def _check_extents(shape: tuple[int, ...], what: str) -> None:
    if not all(1 <= extent <= MAX_DIM for extent in shape):
        raise ShapeError(f"{what} dimensions must lie in [1, {MAX_DIM}], got {shape}")


def _boundary_pair(components, ndim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked copy of a (..., 4) component array, split into (A, B)."""
    c = np.array(components, dtype=np.float64)
    if c.ndim != ndim or c.shape[-1] != 4:
        raise ShapeError(f"{what} needs a (..., 4) component array, got shape {c.shape}")
    _check_extents(c.shape[:-1], what)
    if not np.isfinite(c).all():
        raise StructureError(f"{what} entries must be finite")
    # (w, x) and (y, z) are adjacent, so the complex view is exact, signed zeros included
    z = c.view(np.complex128)
    return np.ascontiguousarray(z[..., 0]), np.ascontiguousarray(z[..., 1])


def _trusted(cls, a: np.ndarray, b: np.ndarray):
    """Wrap the pair computed by an internal operation: no copy, no shape re-check."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise StructureError(f"{cls.__name__} entries must be finite")
    out = object.__new__(cls)
    out._a, out._b = a, b
    return out


def _product(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray,
             b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A1 + B1 j)(A2 + B2 j) on pairs; the right factor may be a vector pair."""
    return a1 @ a2 - b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj()


class QVector:
    """Column vector in H^n, scalars acting on the right."""

    __slots__ = ("_a", "_b")

    def __init__(self, components: np.ndarray):
        self._a, self._b = _boundary_pair(components, 2, "QVector")

    @classmethod
    def from_quaternions(cls, entries: Iterable[Quaternion | float]) -> "QVector":
        rows = [_coerce_entry(e).components() for e in entries]
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def zeros(cls, n: int) -> "QVector":
        return cls(np.zeros((n, 4)))

    @classmethod
    def basis(cls, n: int, index: int) -> "QVector":
        if not 0 <= index < n:
            raise ShapeError(f"basis index {index} out of range for H^{n}")
        out = cls.zeros(n)
        out._a[index] = 1.0
        return out

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Quaternion:
        a, b = self._a[i], self._b[i]
        return Quaternion(a.real, a.imag, b.real, b.imag)

    def to_array(self) -> np.ndarray:
        return np.stack([self._a, self._b], axis=-1).view(np.float64)

    def __add__(self, other: "QVector") -> "QVector":
        self._check_same(other)
        return _trusted(QVector, self._a + other._a, self._b + other._b)

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_same(other)
        return _trusted(QVector, self._a - other._a, self._b - other._b)

    def __neg__(self) -> "QVector":
        return _trusted(QVector, -self._a, -self._b)

    def __mul__(self, scalar) -> "QVector":
        """Right scalar action u * q, entrywise u_i q."""
        if isinstance(scalar, (int, float)):
            s = float(scalar)
            return _trusted(QVector, self._a * s, self._b * s)
        if isinstance(scalar, Quaternion):
            qa, qb = complex(scalar.w, scalar.x), complex(scalar.y, scalar.z)
            a, b = self._a, self._b
            return _trusted(QVector, a * qa - b * qb.conjugate(), a * qb + b * qa.conjugate())
        return NotImplemented

    def __rmul__(self, scalar) -> "QVector":
        if isinstance(scalar, (int, float)):
            return self * scalar
        return NotImplemented

    def norm(self) -> float:
        # summed in (w, x, y, z) order, so normalised draws keep their bits
        return float(np.sqrt((self.to_array() ** 2).sum()))

    def allclose(self, other: "QVector", tol: float = 1e-12,
                 scale: float | None = None) -> bool:
        self._check_same(other)
        floor = 1.0 if scale is None else float(scale)
        bound = tol * max(floor, self.norm(), other.norm())
        return float(np.abs(self.to_array() - other.to_array()).max()) <= bound

    def _check_same(self, other: "QVector") -> None:
        if not isinstance(other, QVector):
            raise TypeError("expected a QVector")
        if other.n != self.n:
            raise ShapeError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"


def inner(u: QVector, v: QVector) -> Quaternion:
    """Hermitian inner product sum_i conj(u_i) v_i, linear in the second slot.

    conj(a + b j)(c + d j) = (conj(a) c + b conj(d)) + (conj(a) d - b conj(c)) j.
    """
    u._check_same(v)
    c = np.vdot(u._a, v._a) + np.vdot(v._b, u._b)
    d = np.vdot(u._a, v._b) - np.vdot(v._a, u._b)
    return Quaternion(c.real, c.imag, d.real, d.imag)


def left_scalar_mul(q: Quaternion, u: QVector) -> QVector:
    """Left action (q u)_i = q u_i fixed by the standard coordinate basis."""
    qa, qb = complex(q.w, q.x), complex(q.y, q.z)
    return _trusted(QVector, qa * u._a - qb * u._b.conj(), qa * u._b + qb * u._a.conj())


def outer(u: QVector, v: QVector) -> "QMatrix":
    """Rank-one operator u v^*, sending x to u <v, x>."""
    return _trusted(QMatrix, *_product(u._a[:, None], u._b[:, None],
                                       v._a.conj()[None, :], -v._b[None, :]))


class QMatrix:
    """Dense matrix over H acting on column vectors from the left."""

    __slots__ = ("_a", "_b")

    def __init__(self, components: np.ndarray):
        self._a, self._b = _boundary_pair(components, 3, "QMatrix")

    @classmethod
    def from_quaternions(cls, rows: Sequence[Sequence]) -> "QMatrix":
        data = [[_coerce_entry(e).components() for e in row] for row in rows]
        return cls(np.array(data, dtype=np.float64))

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "QMatrix":
        return cls(np.zeros((n, n if m is None else m, 4)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        out = cls.zeros(n)
        out._a[np.arange(n), np.arange(n)] = 1.0
        return out

    @classmethod
    def diag(cls, values: Sequence) -> "QMatrix":
        out = cls.zeros(len(values))
        for i, v in enumerate(values):
            q = _coerce_entry(v)
            out._a[i, i], out._b[i, i] = complex(q.w, q.x), complex(q.y, q.z)
        return out

    @classmethod
    def from_columns(cls, columns: Sequence[QVector]) -> "QMatrix":
        _check_extents((len(columns),), "QMatrix")
        return _trusted(cls, np.stack([col._a for col in columns], axis=1),
                        np.stack([col._b for col in columns], axis=1))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Quaternion:
        a, b = self._a[i, j], self._b[i, j]
        return Quaternion(a.real, a.imag, b.real, b.imag)

    def __getitem__(self, ij: tuple[int, int]) -> Quaternion:
        return self.entry(*ij)

    def column(self, j: int) -> QVector:
        return _trusted(QVector, self._a[:, j].copy(), self._b[:, j].copy())

    def to_array(self) -> np.ndarray:
        return np.stack([self._a, self._b], axis=-1).view(np.float64)

    @property
    def H(self) -> "QMatrix":
        """Adjoint: conjugate transpose, (A^H, -B^T) on the pair."""
        return _trusted(QMatrix, self._a.T.conj(), -self._b.T)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same(other)
        return _trusted(QMatrix, self._a + other._a, self._b + other._b)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same(other)
        return _trusted(QMatrix, self._a - other._a, self._b - other._b)

    def __neg__(self) -> "QMatrix":
        return _trusted(QMatrix, -self._a, -self._b)

    def __mul__(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, float)):
            s = float(scalar)
            return _trusted(QMatrix, self._a * s, self._b * s)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
            return _trusted(QMatrix, *_product(self._a, self._b, other._a, other._b))
        if isinstance(other, QVector):
            if self.cols != other.n:
                raise ShapeError(f"cannot apply {self.shape} to H^{other.n}")
            return _trusted(QVector, *_product(self._a, self._b, other._a, other._b))
        return NotImplemented

    def frobenius(self) -> float:
        return float(np.sqrt(np.vdot(self._a, self._a).real + np.vdot(self._b, self._b).real))

    def trace(self) -> Quaternion:
        a, b = np.trace(self._a), np.trace(self._b)
        return Quaternion(a.real, a.imag, b.real, b.imag)

    def allclose(self, other: "QMatrix", tol: float = 1e-12,
                 scale: float | None = None) -> bool:
        self._check_same(other)
        floor = 1.0 if scale is None else float(scale)
        bound = tol * max(floor, self.frobenius(), other.frobenius())
        return float(np.abs(self.to_array() - other.to_array()).max()) <= bound

    def equals_exact(self, other: "QMatrix") -> bool:
        return (self.shape == other.shape and np.array_equal(self._a, other._a)
                and np.array_equal(self._b, other._b))

    def _check_same(self, other: "QMatrix") -> None:
        if not isinstance(other, QMatrix):
            raise TypeError("expected a QMatrix")
        if other.shape != self.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


def _selfadjoint_residual(a: QMatrix) -> float:
    """||a - a*||_F of a square matrix, on the pair: a - a* = (A - A^H, B + B^T).

    Equal bit for bit to ``(a - a.H).frobenius()``, without building either
    matrix; a difference that overflows raises as that subtraction would.
    """
    da, db = a._a - a._a.T.conj(), a._b + a._b.T
    res = float(np.sqrt(np.vdot(da, da).real + np.vdot(db, db).real))
    if not np.isfinite(res):
        _trusted(QMatrix, da, db)
    return res


def embed_chi(a: QMatrix) -> np.ndarray:
    """Complex adjoint embedding [[A, B], [-conj(B), conj(A)]] of a = A + B j."""
    n, m = a.shape
    out = np.empty((2 * n, 2 * m), dtype=np.complex128)
    out[:n, :m] = a._a
    out[:n, m:] = a._b
    out[n:, :m] = -a._b.conj()
    out[n:, m:] = a._a.conj()
    return out


def _psi(xs: np.ndarray) -> np.ndarray:
    """Vector embedding a + b j -> [a; -conj(b)]: (..., n, 4) to (..., 2n) complex.

    psi(x) is the first column of chi(x), so chi(T) psi(x) = psi(Tx) and
    ||psi(x)|| = ||x||; stacks of vectors are embedded along the last axes.
    """
    return np.concatenate([xs[..., 0] + 1j * xs[..., 1],
                           -xs[..., 2] + 1j * xs[..., 3]], axis=-1)


def _from_psi(v: np.ndarray) -> QVector:
    """The vector x with psi(x) = v, for one (2n,) complex vector."""
    n = v.shape[0] // 2
    return _trusted(QVector, v[:n].copy(), -v[n:].conj())


def unembed_chi(m: np.ndarray, *, tol: float = 1e-8, check: bool = True) -> QMatrix:
    """Inverse of ``embed_chi``; rejects matrices off the embedded subalgebra.

    The structural test is the symplectic symmetry: the lower blocks must
    equal (-conj(B), conj(A)) within ``tol`` relative to the Frobenius norm.
    The two redundant copies of A and of B are averaged.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise ShapeError(f"embedded matrix must have even dimensions, got {m.shape}")
    n, mm = m.shape[0] // 2, m.shape[1] // 2
    _check_extents((n, mm), "QMatrix")
    if check:
        scale = max(1.0, float(np.linalg.norm(m)))
        res = float(np.linalg.norm(m[n:, :mm] + np.conj(m[:n, mm:]))
                    + np.linalg.norm(m[n:, mm:] - np.conj(m[:n, :mm])))
        if res > tol * scale:
            raise StructureError(
                f"matrix violates the embedding symmetry (residual {res:.3e})")
    return _trusted(QMatrix, 0.5 * (m[:n, :mm] + np.conj(m[n:, mm:])),
                    0.5 * (m[:n, mm:] - np.conj(m[n:, :mm])))


def _chi_eigvalsh(a: QMatrix) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of chi(a), each one twice.

    The one "extreme eigenvalue" path: callers take an end of this array.
    """
    m = embed_chi(a)
    return _eig.eigvalsh(0.5 * (m + m.conj().T))


def operator_norm(a: QMatrix) -> float:
    """Largest singular value, via the top eigenvalue of A* A."""
    return float(np.sqrt(max(float(_chi_eigvalsh(a.H @ a)[-1]), 0.0)))


@dataclass(frozen=True)
class BasisReport:
    """Outcome of checking a finite family against the Hilbert-basis conditions."""

    orthonormal_deviation: float
    complete: bool
    max_decomposition_residual: float
    max_parseval_deviation: float
    is_basis: bool
    n_samples: int
    seed: int
    tol: float


def verify_hilbert_basis(vectors: Sequence[QVector], *, n_samples: int = 64,
                         seed: int = 0, tol: float = 1e-10,
                         ortho_tol: float = 1e-8) -> BasisReport:
    """Check a family for orthonormality, decomposition, and Parseval identities.

    The family must be orthonormal within ``ortho_tol`` (anything else is an
    input error, not a report).  Decomposition u = sum_z z <z, u> and the
    Parseval identity are then sampled on ``n_samples`` deterministic unit
    vectors; completeness additionally requires the family to have full
    cardinality.
    """
    if not vectors:
        raise ShapeError("empty family")
    n = vectors[0].n
    for v in vectors:
        if v.n != n:
            raise ShapeError("family members live in different spaces")

    ortho_dev = 0.0
    for i, zi in enumerate(vectors):
        for j, zj in enumerate(vectors):
            g = inner(zi, zj)
            target = Quaternion.from_real(1.0 if i == j else 0.0)
            ortho_dev = max(ortho_dev, (g - target).norm())
    if ortho_dev > ortho_tol:
        raise PreconditionError(
            f"family is not orthonormal (deviation {ortho_dev:.3e})")

    stream = SplitMix64(seed)
    max_residual = 0.0
    max_parseval = 0.0
    for _ in range(n_samples):
        raw = stream.normals(4 * n).reshape(n, 4)
        u = QVector(raw)
        nu = u.norm()
        if nu == 0.0:
            continue
        u = u * (1.0 / nu)
        coeffs = [inner(z, u) for z in vectors]
        recon = QVector.zeros(n)
        for z, c in zip(vectors, coeffs):
            recon = recon + z * c
        max_residual = max(max_residual, (u - recon).norm())
        parseval = abs(1.0 - sum(c.norm_squared() for c in coeffs))
        max_parseval = max(max_parseval, parseval)

    complete = len(vectors) == n
    is_basis = complete and max_residual <= tol and max_parseval <= tol
    return BasisReport(
        orthonormal_deviation=ortho_dev,
        complete=complete,
        max_decomposition_residual=max_residual,
        max_parseval_deviation=max_parseval,
        is_basis=is_basis,
        n_samples=n_samples,
        seed=seed,
        tol=tol,
    )
