"""Deterministic random operators for tests, probes, and fuzzing.

All draws run through the counter-based stream in ``rng``, so a generator
call is a pure function of its arguments.  Matrix entries are filled
row-major, one (w, x, y, z) component block per entry.  Generators that
need several independent ingredients derive one sub-seed per ingredient
with ``mix_seed`` instead of sharing a stream, which keeps any single
ingredient reproducible on its own.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DomainError, ShapeError
from .linalg import MAX_DIM, QMatrix, QVector
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .transforms import polar, unitary_completion


def _check_dim(n: int) -> None:
    try:
        operator.index(n)
    except TypeError:
        raise ShapeError(f"dimension must be an integer, got {n!r}") from None
    if not 1 <= n <= MAX_DIM:
        raise ShapeError(f"dimension must lie in [1, {MAX_DIM}], got {n}")


def ginibre(n: int, m: int | None = None, *, seed: int) -> QMatrix:
    """Matrix of independent quaternion entries, each component N(0, 1)."""
    m = n if m is None else m
    _check_dim(n)
    _check_dim(m)
    comps = SplitMix64(seed).normals(n * m * 4).reshape(n, m, 4)
    return QMatrix(comps)


def hermitian(n: int, *, seed: int) -> QMatrix:
    """Self-adjoint matrix (G + G*)/2 from a Ginibre draw."""
    g = ginibre(n, seed=seed)
    return (g + g.H) * 0.5


def positive(n: int, *, seed: int) -> QMatrix:
    """Positive semidefinite matrix G* G from a Ginibre draw."""
    g = ginibre(n, seed=seed)
    return g.H @ g


def ordered_pair(n: int, *, seed: int) -> tuple[QMatrix, QMatrix]:
    """Pair (A, B) with A >= B >= 0 in the operator order.

    B is a Gram matrix from the first sub-draw and A adds a second Gram
    matrix on top, so A - B is positive semidefinite by construction.
    """
    b = positive(n, seed=mix_seed(seed, 0))
    bump = positive(n, seed=mix_seed(seed, 1))
    return b + bump, b


def random_unitary(n: int, *, seed: int) -> QMatrix:
    """Haar-style unitary, the completed polar isometry of a Ginibre draw."""
    g = ginibre(n, seed=seed)
    return unitary_completion(polar(g))


def normal_with_spectrum(values: Sequence[Quaternion | complex | float], *,
                         seed: int) -> QMatrix:
    """Normal operator W diag(values) W* with a random unitary W.

    Real entries give a self-adjoint result, nonnegative entries a positive
    one; repeated entries produce genuinely degenerate spheres.
    """
    if not values:
        raise ShapeError("spectrum must be nonempty")
    d = QMatrix.diag(list(values))
    w = random_unitary(d.rows, seed=seed)
    return w @ d @ w.H


def partial_isometry(n: int, defect: int, *, seed: int) -> QMatrix:
    """Partial isometry with a kernel of dimension ``defect``."""
    _check_dim(n)
    if not 0 <= defect <= n:
        raise DomainError(f"defect must lie in [0, {n}], got {defect}")
    comps = ginibre(n, seed=seed).to_array()
    if defect:
        comps[:, n - defect:, :] = 0.0
    return polar(QMatrix(comps)).u


def near_normal(n: int, eps: float, *, seed: int) -> QMatrix:
    """Normal operator plus ``eps`` times an independent Ginibre draw."""
    _check_dim(n)
    if not math.isfinite(eps) or eps < 0.0:
        raise DomainError(f"perturbation size must be finite and nonnegative, got {eps}")
    stream = SplitMix64(mix_seed(seed, 0))
    raw = stream.normals(4 * n).reshape(n, 4)
    values = [Quaternion.from_components(row) for row in raw]
    base = normal_with_spectrum(values, seed=mix_seed(seed, 1))
    if eps == 0.0:
        return base
    return base + ginibre(n, seed=mix_seed(seed, 2)) * eps


def unit_vector(n: int, *, seed: int) -> QVector:
    """Unit vector with Gaussian components, direction uniform on the sphere."""
    _check_dim(n)
    stream = SplitMix64(seed)
    while True:
        raw = stream.normals(4 * n).reshape(n, 4)
        v = QVector(raw)
        nv = v.norm()
        if nv > 1e-6:
            return v * (1.0 / nv)
