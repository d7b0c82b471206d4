"""Vectors and matrices over the quaternions, as right modules.

A matrix T = A + B j (q = (w + x i) + (y + z i) j entrywise) is stored as
the complex pair (A, B), the top block row of its complex adjoint embedding
chi(T) = [[A, B], [-conj(B), conj(A)]]; a vector is an n x 1 matrix, and
both value types share one pair algebra, ``_Pair``.  The real (w, x, y, z)
layout is the boundary layout of the public constructors, which copy and
check their input, and of ``to_array``.  Internal results skip those
checks except finiteness: every internal pair result passes ``_checked``
or ``_trusted``, so an overflow still raises.

Scalars act on vectors from the right, ``u * q``.  Operators are
right-linear; on pairs the product is (A1 A2 - B1 conj(B2), A1 B2 + B1
conj(A2)).  chi is an injective *-homomorphism, so spectra are computed on
the complex side and pulled back.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Iterable, Sequence

import numpy as np

from . import _eig
from .errors import DomainError, ShapeError, StructureError
from .quaternion import Quaternion

MAX_DIM = 64
# the default dim of run_verify and run_fuzz, and of the qop command's --dim
DEFAULT_DIM = 4


def _coerce_entry(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion.from_real(value)
    if isinstance(value, complex):
        return Quaternion.from_complex(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion entry")


def _check_tol(tol: float) -> None:
    """Raise DomainError unless ``tol`` is finite and nonnegative: a NaN
    threshold compares false with every margin, and a negative one flips it."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_count(value: int, what: str) -> None:
    """Raise DomainError unless ``value`` is an integer of at least 1."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if count < 1:
        raise DomainError(f"{what} must be at least 1")


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


def _require_finite(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Raise StructureError unless every entry of the pair, or of a stack of pairs, is finite."""
    # a NaN or inf entry makes the squared sum non-finite; only then, since a
    # large finite matrix can overflow it too, are the entries tested one by one
    if (not math.isfinite((np.vdot(a, a) + np.vdot(b, b)).real)
            and not (np.isfinite(a).all() and np.isfinite(b).all())):
        raise StructureError(f"{what} entries must be finite")


def _checked(pair: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The pair, or pair of stacks, once every entry is checked finite as a ``QMatrix``'s."""
    _require_finite(*pair, "QMatrix")
    return pair


def _trusted(cls, a: np.ndarray, b: np.ndarray):
    """Wrap the pair computed by an internal operation: no copy, no shape re-check."""
    _require_finite(a, b, cls.__name__)
    out = object.__new__(cls)
    out._a, out._b = a, b
    return out


def _product(a1: np.ndarray, b1: np.ndarray, a2: np.ndarray,
             b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A1 + B1 j)(A2 + B2 j) on pairs, or on each pair of two stacks; the
    right factor may be a vector pair."""
    return a1 @ a2 - b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj()


def _adjoints(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair stacks of the adjoints, laid out as ``QMatrix.H`` lays out one."""
    return a.conj().swapaxes(-1, -2), -b.swapaxes(-1, -2)


def _grams(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair stacks of T*T for each T = A + B j of the pair stacks, checked finite."""
    return _checked(_product(*_adjoints(a, b), a, b))


def _hermitian_parts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair stacks of (T + T*)/2 for each T = A + B j of the pair stacks, checked finite."""
    ha, hb = _adjoints(a, b)
    return _checked(((a + ha) * 0.5, (b + hb) * 0.5))


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)``, as a view when there is one array.  ``np.stack``
    keeps each array's memory order; arrays that are all C-contiguous give
    the same C-contiguous stack through ``np.array``, in a third of the time."""
    if len(arrays) == 1:
        return arrays[0][None]
    return np.array(arrays) if all(a.flags.c_contiguous for a in arrays) else np.stack(arrays)


def _identities(k: int, n: int) -> np.ndarray:
    """k copies of the A part of ``QMatrix.identity(n)``, as a (k, n, n) stack."""
    out = np.zeros((k, n, n), dtype=np.complex128)
    out[:, np.arange(n), np.arange(n)] = 1.0
    return out


def _stack_pairs(ops: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
    """The (k, ...) stacks (A, B) of the pairs of k operators of one shape."""
    return _stacked([op._a for op in ops]), _stacked([op._b for op in ops])


class _Pair:
    """The value A + B j as the pair (A, B): the algebra both value types share."""

    __slots__ = ("_a", "_b")

    def to_array(self) -> np.ndarray:
        return np.stack([self._a, self._b], axis=-1).view(np.float64)

    def __add__(self, other):
        self._check_same(other)
        return _trusted(type(self), self._a + other._a, self._b + other._b)

    def __sub__(self, other):
        self._check_same(other)
        return _trusted(type(self), self._a - other._a, self._b - other._b)

    def __neg__(self):
        return _trusted(type(self), -self._a, -self._b)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return _trusted(type(self), self._a * float(scalar), self._b * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def allclose(self, other, tol: float = 1e-12) -> bool:
        """Every component within tol times max(1.0, both sizes), a size being
        ``norm`` or ``frobenius``: the floor 1.0 keeps comparisons with 0 meaningful."""
        self._check_same(other)
        bound = tol * max(1.0, self._size(), other._size())
        return float(np.abs(self.to_array() - other.to_array()).max()) <= bound


class QVector(_Pair):
    """Column vector in H^n, scalars acting on the right."""

    __slots__ = ()

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

    def __getitem__(self, i: int) -> Quaternion:
        a, b = self._a[i], self._b[i]
        return Quaternion(a.real, a.imag, b.real, b.imag)

    def __mul__(self, scalar) -> "QVector":
        """Right scalar action u * q, entrywise u_i q; a real scalar scales the pair."""
        if isinstance(scalar, Quaternion):
            qa, qb = complex(scalar.w, scalar.x), complex(scalar.y, scalar.z)
            a, b = self._a, self._b
            return _trusted(QVector, a * qa - b * qb.conjugate(), a * qb + b * qa.conjugate())
        return _Pair.__mul__(self, scalar)

    def norm(self) -> float:
        return float(_vector_norms(self._a[None], self._b[None])[0])

    _size = norm

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


def outer(u: QVector, v: QVector) -> "QMatrix":
    """Rank-one operator u v^*, sending x to u <v, x>."""
    return _trusted(QMatrix, *_outers(u._a, u._b, v._a, v._b))


def _outers(ua: np.ndarray, ub: np.ndarray, va: np.ndarray,
            vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``outer`` of each pair of vectors of the (..., n) and (..., m) pair stacks."""
    return _product(ua[..., :, None], ub[..., :, None], va.conj()[..., None, :], -vb[..., None, :])


class QMatrix(_Pair):
    """Dense matrix over H acting on column vectors from the left."""

    __slots__ = ()

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

    @property
    def H(self) -> "QMatrix":
        """Adjoint: conjugate transpose, (A^H, -B^T) on the pair."""
        return _trusted(QMatrix, self._a.T.conj(), -self._b.T)

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
        return math.sqrt(np.vdot(self._a, self._a).real + np.vdot(self._b, self._b).real)

    _size = frobenius

    def trace(self) -> Quaternion:
        a, b = np.trace(self._a), np.trace(self._b)
        return Quaternion(a.real, a.imag, b.real, b.imag)

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


def _selfadjoint_residual(a: np.ndarray, b: np.ndarray) -> float:
    """||x - x*||_F of the square matrix x = A + B j of the pair (A, B):
    x - x* = (A - A^H, B + B^T).

    Equal bit for bit to ``(x - x.H).frobenius()``, without building either
    matrix; a difference that overflows raises as that subtraction would.
    """
    da, db = a - a.T.conj(), b + b.T
    res = math.sqrt(np.vdot(da, da).real + np.vdot(db, db).real)
    if not math.isfinite(res):
        _trusted(QMatrix, da, db)
    return res


def _frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """``QMatrix.frobenius`` of the pair (A, B), on copies: a vector product
    on a slice of a stack need not be the one on a whole matrix bit for bit."""
    a, b = a.copy(), b.copy()
    return math.sqrt(np.vdot(a, a).real + np.vdot(b, b).real)


def embed_chi(a: QMatrix) -> np.ndarray:
    """Complex adjoint embedding [[A, B], [-conj(B), conj(A)]] of a = A + B j."""
    return _embed_pair(a._a, a._b)


def _embed_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``embed_chi`` of the pair (A, B), or of each pair of a (..., n, m) stack."""
    n, m = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * m), dtype=np.complex128)
    out[..., :n, :m] = a
    out[..., :n, m:] = b
    out[..., n:, :m] = -b.conj()
    out[..., n:, m:] = a.conj()
    return out


def _from_psi(v: np.ndarray) -> QVector:
    """The vector x with psi(x) = v, for one (2n,) complex vector, where psi
    embeds a + b j as [a; -conj(b)], the first column of chi(x): chi(T)
    psi(x) = psi(Tx), ||psi(x)|| = ||x||."""
    n = v.shape[0] // 2
    return _trusted(QVector, v[:n].copy(), -v[n:].conj())


def unembed_chi(m: np.ndarray, *, tol: float = 1e-8) -> QMatrix:
    """Inverse of ``embed_chi``; rejects matrices off the embedded subalgebra.

    The structural test is the symplectic symmetry: the lower blocks must
    equal (-conj(B), conj(A)) within ``tol`` relative to the Frobenius norm.
    The two redundant copies of A and of B are averaged.  This is the public
    boundary only: qop pulls its own products back with ``_from_chi_top``.
    """
    _check_tol(tol)
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise ShapeError(f"embedded matrix must have even dimensions, got {m.shape}")
    n, mm = m.shape[0] // 2, m.shape[1] // 2
    _check_extents((n, mm), "QMatrix")
    d1 = m[n:, :mm] + np.conj(m[:n, mm:])
    d2 = m[n:, mm:] - np.conj(m[:n, :mm])
    scale = max(1.0, float(np.sqrt(np.vdot(m, m).real)))
    res = float(np.sqrt(np.vdot(d1, d1).real) + np.sqrt(np.vdot(d2, d2).real))
    if res > tol * scale:
        raise StructureError(
            f"matrix violates the embedding symmetry (residual {res:.3e})")
    return _trusted(QMatrix, 0.5 * (m[:n, :mm] + np.conj(m[n:, mm:])),
                    0.5 * (m[:n, mm:] - np.conj(m[n:, :mm])))


def _from_chi_top(top: np.ndarray) -> QMatrix:
    """A + B j from the top block row [A, B] of a product qop built from
    whole singular or eigenvector pairs: structured by construction, unchecked."""
    m = top.shape[1] // 2
    return _trusted(QMatrix, top[:, :m], top[:, m:])


def _pair_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of chi(A + B j), each one
    twice, of the pair (A, B), or of each pair of a (k, n, n) stack as the
    rows of a (k, 2n) array, from one eigensolver call."""
    return _eig.eigvalsh(_hermitian_chi(a, b))


def _hermitian_chi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``_embed_pair(a, b)``, made in place in the
    embedding's conjugate and returned as its transpose, so the embedding
    is freed before a solve reads the result."""
    m = _embed_pair(a, b)
    c = m.conj()
    c += m.swapaxes(-1, -2)
    c *= 0.5
    return c.swapaxes(-1, -2)


def operator_norm(a: QMatrix) -> float:
    """Largest singular value, via the top eigenvalue of A* A."""
    return float(_operator_norms(a._a[None], a._b[None])[0])


def _operator_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``operator_norm`` of each operator of the (k, n, m) pair stacks (A, B),
    from one eigenvalue solve of the stacked Gram matrices."""
    return _gram_norms(*_grams(a, b))


def _gram_norms(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """``operator_norm`` of each A from the (k, m, m) pair stacks of its Gram matrix A* A."""
    return np.sqrt(np.maximum(_pair_eigvalsh(ga, gb)[:, -1], 0.0))


def _vector_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``QVector.norm`` of each vector of the (k, n) pair stacks (A, B), its
    squares summed in (w, x, y, z) order, so normalised draws keep their bits."""
    r = np.stack([a, b], axis=-1).view(np.float64)
    return np.sqrt((r ** 2).reshape(r.shape[0], -1).sum(axis=-1))

