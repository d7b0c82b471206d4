"""Deterministic random operators for tests, probes, and fuzzing.

All draws run through the counter-based stream in ``rng``, so a generator
call is a pure function of its arguments.  Matrix entries are filled
row-major, one (w, x, y, z) component block per entry.  Generators that
need several independent ingredients derive one sub-seed per ingredient
with ``mix_seed`` instead of sharing a stream, which keeps any single
ingredient reproducible on its own.

Each generator draws a stack, one operator per seed, and the public
generators are those stacks with one seed.  A stack's Gaussian entries
come from one ``block_normals`` draw, its unitaries from one SVD of the
embedded stack, and its normal operators W D W* from two stacked
products.  Each operator is bit for bit the one its seed gives alone, and
owns its arrays.  A stack is drawn whole; ``harness.run_verify`` bounds
how many trials it hands over at a time.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import (MAX_DIM, QMatrix, QVector, _adjoints, _grams, _hermitian_parts, _product,
                     _stack_pairs, _trusted)
from .quaternion import Quaternion
from .rng import SplitMix64, block_normals, mix_seed
from .spectral import _chi_svds
from .transforms import RANK_RTOL, polar, unitary_completion

Pairs = tuple[np.ndarray, np.ndarray]


def _check_dim(n: int) -> None:
    try:
        operator.index(n)
    except TypeError:
        raise ShapeError(f"dimension must be an integer, got {n!r}") from None
    if not 1 <= n <= MAX_DIM:
        raise ShapeError(f"dimension must lie in [1, {MAX_DIM}], got {n}")


def _owned(a: np.ndarray, b: np.ndarray) -> list[QMatrix]:
    """One operator per slice of the pair stacks (A, B), each on its own copy."""
    return [_trusted(QMatrix, x.copy(), y.copy()) for x, y in zip(a, b)]


def _ginibre_pairs(n: int, m: int, seeds: Sequence[int]) -> Pairs:
    """Views of the (k, n, m) pair stacks of ``ginibre(n, m, seed=s)`` over ``seeds``."""
    z = block_normals(seeds, 4 * n * m).reshape(len(seeds), n, m, 4).view(np.complex128)
    return z[..., 0], z[..., 1]


def _ginibres(n: int, m: int, seeds: Sequence[int],
              form: Callable[[np.ndarray, np.ndarray], Pairs] | None = None) -> list[QMatrix]:
    """``form`` of ``ginibre(n, m, seed=s)`` over ``seeds``, from one block draw."""
    a, b = _ginibre_pairs(n, m, seeds)
    # a product takes whole contiguous matrices, as it does from a QMatrix
    return _owned(*form(np.ascontiguousarray(a), np.ascontiguousarray(b))) if form else \
        _owned(a, b)


def ginibre(n: int, m: int | None = None, *, seed: int) -> QMatrix:
    """Matrix of independent quaternion entries, each component N(0, 1)."""
    m = n if m is None else m
    _check_dim(n)
    _check_dim(m)
    return _ginibres(n, m, [seed])[0]


def _hermitians(n: int, seeds: Sequence[int]) -> list[QMatrix]:
    return _ginibres(n, n, seeds, _hermitian_parts)


def hermitian(n: int, *, seed: int) -> QMatrix:
    """Self-adjoint matrix (G + G*)/2 from a Ginibre draw."""
    _check_dim(n)
    return _hermitians(n, [seed])[0]


def _positives(n: int, seeds: Sequence[int]) -> list[QMatrix]:
    return _ginibres(n, n, seeds, _grams)


def positive(n: int, *, seed: int) -> QMatrix:
    """Positive semidefinite matrix G* G from a Ginibre draw."""
    _check_dim(n)
    return _positives(n, [seed])[0]


def _ordered_pairs(n: int, seeds: Sequence[int]) -> list[tuple[QMatrix, QMatrix]]:
    grams = _positives(n, [mix_seed(s, j) for s in seeds for j in (0, 1)])
    return [(b + bump, b) for b, bump in zip(grams[0::2], grams[1::2])]


def ordered_pair(n: int, *, seed: int) -> tuple[QMatrix, QMatrix]:
    """Pair (A, B) with A >= B >= 0 in the operator order.

    B is a Gram matrix from the first sub-draw and A adds a second Gram
    matrix on top, so A - B is positive semidefinite by construction.
    """
    _check_dim(n)
    return _ordered_pairs(n, [seed])[0]


def _unitaries(n: int, seeds: Sequence[int]) -> list[QMatrix]:
    """``random_unitary(n, seed=s)`` over ``seeds``, from one SVD.

    A draw of full rank is the top block row of W V* from the SVD of its
    embedding, as ``polar`` forms it; a rank-deficient one is completed by
    ``polar`` and ``unitary_completion``.  No seeds make no solve.
    """
    if not seeds:
        return []
    a, b = _ginibre_pairs(n, n, seeds)
    w, sigma, vh = _chi_svds(a, b)
    full = (sigma > RANK_RTOL * sigma[:, :1]).all(axis=-1).tolist()
    out: list[QMatrix] = []
    for i, top in enumerate(w[:, :n] @ vh):
        if full[i]:
            top = top.copy()
            out.append(_trusted(QMatrix, top[:, :n], top[:, n:]))
        else:
            out.append(unitary_completion(polar(_trusted(QMatrix, a[i], b[i]))))
    return out


def random_unitary(n: int, *, seed: int) -> QMatrix:
    """Haar-style unitary, the completed polar isometry of a Ginibre draw."""
    _check_dim(n)
    return _unitaries(n, [seed])[0]


def _normals(diag: np.ndarray, units: Sequence[QMatrix]) -> list[QMatrix]:
    """W D W* for each unitary W of ``units``, with D the diagonal whose pairs
    (A, B) are the same row of the (k, n, 2) ``diag``: two stacked products."""
    n = diag.shape[1]
    idx = np.arange(n)
    wa, wb = _stack_pairs(units)
    da, db = np.zeros((2, len(units), n, n), dtype=np.complex128)
    da[:, idx, idx], db[:, idx, idx] = diag[:, :, 0], diag[:, :, 1]
    return _owned(*_product(*_product(wa, wb, da, db), *_adjoints(wa, wb)))


def normal_with_spectrum(values: Sequence[Quaternion | complex | float], *,
                         seed: int) -> QMatrix:
    """Normal operator W diag(values) W* with a random unitary W.

    Real entries give a self-adjoint result, nonnegative entries a positive
    one; repeated entries produce genuinely degenerate spheres.
    """
    _check_dim(len(values))
    d = QMatrix.diag(list(values))
    diag = np.stack([d._a.diagonal(), d._b.diagonal()], axis=-1)
    return _normals(diag[None], _unitaries(d.rows, [seed]))[0]


def partial_isometry(n: int, defect: int, *, seed: int) -> QMatrix:
    """Partial isometry with a kernel of dimension ``defect``."""
    _check_dim(n)
    try:
        operator.index(defect)
    except TypeError:
        raise DomainError(f"defect must be an integer, got {defect!r}") from None
    if not 0 <= defect <= n:
        raise DomainError(f"defect must lie in [0, {n}], got {defect}")
    t = ginibre(n, seed=seed)
    t._a[:, n - defect:] = t._b[:, n - defect:] = 0.0
    return polar(t).u


def _near_normals(n: int, epss: Sequence[float], seeds: Sequence[int]) -> list[QMatrix]:
    spectra = block_normals([mix_seed(s, 0) for s in seeds], 4 * n).reshape(len(seeds), n, 4)
    bases = _normals(spectra.view(np.complex128), _unitaries(n, [mix_seed(s, 1) for s in seeds]))
    bumps = iter(_ginibres(n, n, [mix_seed(s, 2) for s, eps in zip(seeds, epss) if eps != 0.0]))
    return [base if eps == 0.0 else base + next(bumps) * eps for base, eps in zip(bases, epss)]


def near_normal(n: int, eps: float, *, seed: int) -> QMatrix:
    """Normal operator plus ``eps`` times an independent Ginibre draw."""
    _check_dim(n)
    if not math.isfinite(eps) or eps < 0.0:
        raise DomainError(f"perturbation size must be finite and nonnegative, got {eps}")
    return _near_normals(n, [eps], [seed])[0]


def _unit_vectors(n: int, seeds: Sequence[int]) -> list[QVector]:
    raw = block_normals(seeds, 4 * n).reshape(len(seeds), n, 4)
    norms = np.sqrt((raw ** 2).reshape(len(seeds), -1).sum(axis=-1)).tolist()
    out = []
    for seed, x, nv in zip(seeds, raw, norms):
        if not nv > 1e-6:
            # redrawn from where the seed's stream left off until its norm exceeds 1e-6
            stream = SplitMix64(seed)
            stream.normals(4 * n)
            while not nv > 1e-6:
                x = stream.normals(4 * n).reshape(n, 4)
                nv = float(np.sqrt((x ** 2).sum()))
        out.append(QVector(x) * (1.0 / nv))
    return out


def unit_vector(n: int, *, seed: int) -> QVector:
    """Unit vector with Gaussian components, direction uniform on the sphere."""
    _check_dim(n)
    return _unit_vectors(n, [seed])[0]
