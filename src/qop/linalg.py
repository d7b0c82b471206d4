"""Vectors and matrices over the quaternions, as right modules.

Entries are stored as (n, m, 4) float64 component tensors in (w, x, y, z)
order.  Scalars act on vectors from the right, ``u * q``; the left scalar
action ``left_scalar_mul`` is the one induced by the standard coordinate
basis, (q u)_i = q * u_i.  Operators are right-linear and compose by the
usual row-into-column product with entrywise Hamilton multiplication.

``embed_chi`` sends an n x m quaternionic matrix to the 2n x 2m complex
matrix [[A, B], [-conj(B), conj(A)]] built from the entrywise split
q = a + b j.  The map is an injective *-homomorphism, so products,
adjoints and spectra can be computed on the complex side and pulled back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _eig
from .errors import DomainError, PreconditionError, ShapeError, StructureError
from .quaternion import Quaternion
from .rng import SplitMix64

MAX_DIM = 64

_SIGN_W = np.array([1.0, -1.0, -1.0, -1.0])
_SIGN_X = np.array([1.0, 1.0, 1.0, -1.0])
_SIGN_Y = np.array([1.0, -1.0, 1.0, 1.0])
_SIGN_Z = np.array([1.0, 1.0, -1.0, 1.0])
_PERM_X = (1, 0, 3, 2)
_PERM_Y = (2, 3, 0, 1)
_PERM_Z = (3, 2, 1, 0)


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast Hamilton product of (..., 4) component arrays."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def _matmul_components(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n, k, 4) times (k, m, 4) row-into-column Hamilton product."""
    w = np.einsum("isk,sjk->ij", p, q * _SIGN_W)
    x = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_X] * _SIGN_X)
    y = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_Y] * _SIGN_Y)
    z = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_Z] * _SIGN_Z)
    return np.stack([w, x, y, z], axis=2)


def _coerce_entry(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.from_real(value)
    if isinstance(value, complex):
        return Quaternion.from_complex(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion entry")


def _validated(arr: np.ndarray, ndim: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != ndim or a.shape[-1] != 4:
        raise ShapeError(f"{what} needs a (..., 4) component array, got shape {a.shape}")
    for extent in a.shape[:-1]:
        if not 1 <= extent <= MAX_DIM:
            raise ShapeError(f"{what} dimensions must lie in [1, {MAX_DIM}], got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StructureError(f"{what} entries must be finite")
    a = a.copy()
    a.setflags(write=False)
    return a


class QVector:
    """Column vector in H^n, scalars acting on the right."""

    __slots__ = ("_c",)

    def __init__(self, components: np.ndarray):
        self._c = _validated(components, 2, "QVector")

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
        c = np.zeros((n, 4))
        c[index, 0] = 1.0
        return cls(c)

    @property
    def n(self) -> int:
        return self._c.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Quaternion:
        return Quaternion.from_components(self._c[i])

    def to_array(self) -> np.ndarray:
        return self._c.copy()

    def __add__(self, other: "QVector") -> "QVector":
        self._check_same(other)
        return QVector(self._c + other._c)

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_same(other)
        return QVector(self._c - other._c)

    def __neg__(self) -> "QVector":
        return QVector(-self._c)

    def __mul__(self, scalar) -> "QVector":
        """Right scalar action u * q, entrywise u_i q."""
        if isinstance(scalar, (int, float)):
            return QVector(self._c * float(scalar))
        if isinstance(scalar, Quaternion):
            q = np.array(scalar.components())
            return QVector(_hamilton(self._c, q[None, :]))
        return NotImplemented

    def __rmul__(self, scalar) -> "QVector":
        if isinstance(scalar, (int, float)):
            return QVector(self._c * float(scalar))
        return NotImplemented

    def norm(self) -> float:
        return float(np.sqrt((self._c ** 2).sum()))

    def allclose(self, other: "QVector", tol: float = 1e-12,
                 scale: float | None = None) -> bool:
        self._check_same(other)
        floor = 1.0 if scale is None else float(scale)
        bound = tol * max(floor, self.norm(), other.norm())
        return float(np.abs(self._c - other._c).max()) <= bound

    def _check_same(self, other: "QVector") -> None:
        if not isinstance(other, QVector):
            raise TypeError("expected a QVector")
        if other.n != self.n:
            raise ShapeError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"


def inner(u: QVector, v: QVector) -> Quaternion:
    """Hermitian inner product sum_i conj(u_i) v_i, linear in the second slot."""
    u._check_same(v)
    a, b = u._c, v._c
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return Quaternion(
        float((aw * bw + ax * bx + ay * by + az * bz).sum()),
        float((aw * bx - ax * bw - ay * bz + az * by).sum()),
        float((aw * by + ax * bz - ay * bw - az * bx).sum()),
        float((aw * bz - ax * by + ay * bx - az * bw).sum()),
    )


def left_scalar_mul(q: Quaternion, u: QVector) -> QVector:
    """Left action (q u)_i = q u_i fixed by the standard coordinate basis."""
    qa = np.array(q.components())
    return QVector(_hamilton(qa[None, :], u._c))


def outer(u: QVector, v: QVector) -> "QMatrix":
    """Rank-one operator u v^*, sending x to u <v, x>."""
    vc = v._c.copy()
    vc[:, 1:] *= -1.0
    return QMatrix(_hamilton(u._c[:, None, :], vc[None, :, :]))


class QMatrix:
    """Dense matrix over H acting on column vectors from the left."""

    __slots__ = ("_c",)

    def __init__(self, components: np.ndarray):
        self._c = _validated(components, 3, "QMatrix")

    @classmethod
    def from_quaternions(cls, rows: Sequence[Sequence]) -> "QMatrix":
        data = [[_coerce_entry(e).components() for e in row] for row in rows]
        return cls(np.array(data, dtype=np.float64))

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "QMatrix":
        m = n if m is None else m
        return cls(np.zeros((n, m, 4)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        c = np.zeros((n, n, 4))
        c[np.arange(n), np.arange(n), 0] = 1.0
        return cls(c)

    @classmethod
    def diag(cls, values: Sequence) -> "QMatrix":
        n = len(values)
        c = np.zeros((n, n, 4))
        for i, v in enumerate(values):
            c[i, i] = _coerce_entry(v).components()
        return cls(c)

    @classmethod
    def from_columns(cls, columns: Sequence[QVector]) -> "QMatrix":
        arrs = [col._c for col in columns]
        return cls(np.stack(arrs, axis=1))

    @property
    def rows(self) -> int:
        return self._c.shape[0]

    @property
    def cols(self) -> int:
        return self._c.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Quaternion:
        return Quaternion.from_components(self._c[i, j])

    def __getitem__(self, ij: tuple[int, int]) -> Quaternion:
        return self.entry(*ij)

    def column(self, j: int) -> QVector:
        return QVector(self._c[:, j, :])

    def to_array(self) -> np.ndarray:
        return self._c.copy()

    @property
    def H(self) -> "QMatrix":
        """Adjoint: conjugate transpose."""
        t = self._c.transpose(1, 0, 2).copy()
        t[:, :, 1:] *= -1.0
        return QMatrix(t)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same(other)
        return QMatrix(self._c + other._c)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same(other)
        return QMatrix(self._c - other._c)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self._c)

    def __mul__(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, float)):
            return QMatrix(self._c * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
            return QMatrix(_matmul_components(self._c, other._c))
        if isinstance(other, QVector):
            if self.cols != other.n:
                raise ShapeError(f"cannot apply {self.shape} to H^{other.n}")
            out = _matmul_components(self._c, other._c[:, None, :])
            return QVector(out[:, 0, :])
        return NotImplemented

    def frobenius(self) -> float:
        return float(np.sqrt((self._c ** 2).sum()))

    def trace(self) -> Quaternion:
        n = min(self.rows, self.cols)
        d = self._c[np.arange(n), np.arange(n)].sum(axis=0)
        return Quaternion.from_components(d)

    def allclose(self, other: "QMatrix", tol: float = 1e-12,
                 scale: float | None = None) -> bool:
        self._check_same(other)
        floor = 1.0 if scale is None else float(scale)
        bound = tol * max(floor, self.frobenius(), other.frobenius())
        return float(np.abs(self._c - other._c).max()) <= bound

    def equals_exact(self, other: "QMatrix") -> bool:
        return self.shape == other.shape and np.array_equal(self._c, other._c)

    def _check_same(self, other: "QMatrix") -> None:
        if not isinstance(other, QMatrix):
            raise TypeError("expected a QMatrix")
        if other.shape != self.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


def embed_chi(a: QMatrix) -> np.ndarray:
    """Complex adjoint embedding [[A, B], [-conj(B), conj(A)]] of a = A + B j."""
    c = a._c
    top = np.concatenate([c[:, :, 0] + 1j * c[:, :, 1],
                          c[:, :, 2] + 1j * c[:, :, 3]], axis=1)
    bottom = np.concatenate([-np.conj(top[:, c.shape[1]:]),
                             np.conj(top[:, :c.shape[1]])], axis=1)
    return np.concatenate([top, bottom], axis=0)


def _unembed_blocks(m: np.ndarray) -> QMatrix:
    n2, m2 = m.shape
    n, mm = n2 // 2, m2 // 2
    # average the two redundant copies carried by the symmetry
    a = 0.5 * (m[:n, :mm] + np.conj(m[n:, mm:]))
    b = 0.5 * (m[:n, mm:] - np.conj(m[n:, :mm]))
    comps = np.stack([a.real, a.imag, b.real, b.imag], axis=2)
    return QMatrix(comps)


def unembed_chi(m: np.ndarray, *, tol: float = 1e-8, check: bool = True) -> QMatrix:
    """Inverse of ``embed_chi``; rejects matrices off the embedded subalgebra.

    The structural test is the symplectic symmetry: the lower blocks must
    equal (-conj(B), conj(A)) within ``tol`` relative to the Frobenius norm.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise ShapeError(f"embedded matrix must have even dimensions, got {m.shape}")
    n, mm = m.shape[0] // 2, m.shape[1] // 2
    if check:
        scale = max(1.0, float(np.linalg.norm(m)))
        res = float(np.linalg.norm(m[n:, :mm] + np.conj(m[:n, mm:]))
                    + np.linalg.norm(m[n:, mm:] - np.conj(m[:n, :mm])))
        if res > tol * scale:
            raise StructureError(
                f"matrix violates the embedding symmetry (residual {res:.3e})")
    return _unembed_blocks(m)


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
