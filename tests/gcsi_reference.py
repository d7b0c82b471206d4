"""Per-pair GCSI hill-climb on quaternion component stacks, the test-side
reference for ``qop.oracles``.

``gcsi_margin`` and ``gcsi_sweep`` below are the quaternion-side versions
that the library replaced with its complex-side vector path: Hamilton
products through ``_matmul_components``, one candidate pair scored per
refinement step, and one stream draw per step.  ``paranormal_vector_margins``
is the vector channel of ``is_paranormal`` in the same form.  The module name
keeps it out of pytest collection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qop import matio
from qop.errors import DomainError
from qop.linalg import QMatrix, QVector, _matmul_components
from qop.oracles import DEFAULT_TOL, Margin
from qop.rng import SplitMix64, mix_seed


def _unit_vectors(n: int, count: int, stream: SplitMix64) -> np.ndarray:
    """(count, n, 4) array of unit vectors, standard basis first."""
    basis = np.zeros((min(n, count), n, 4))
    for i in range(basis.shape[0]):
        basis[i, i, 0] = 1.0
    extra = count - basis.shape[0]
    if extra <= 0:
        return basis
    raw = stream.normals(extra * n * 4).reshape(extra, n, 4)
    norms = np.sqrt((raw ** 2).sum(axis=(1, 2)))
    norms[norms < 1e-12] = 1.0
    return np.concatenate([basis, raw / norms[:, None, None]], axis=0)


def _batch_matvec(t: QMatrix, xs: np.ndarray) -> np.ndarray:
    """Apply T to a (k, n, 4) stack of vectors, returning the same shape."""
    out = _matmul_components(t._c, xs.transpose(1, 0, 2))
    return out.transpose(1, 0, 2)


def _batch_norms(xs: np.ndarray) -> np.ndarray:
    return np.sqrt((xs ** 2).sum(axis=(1, 2)))


def _batch_inner_norm(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """|<u_k, v_k>| for two (k, n, 4) stacks."""
    uw, ux, uy, uz = (us[..., i] for i in range(4))
    vw, vx, vy, vz = (vs[..., i] for i in range(4))
    cw = (uw * vw + ux * vx + uy * vy + uz * vz).sum(axis=1)
    cx = (uw * vx - ux * vw - uy * vz + uz * vy).sum(axis=1)
    cy = (uw * vy + ux * vz - uy * vw - uz * vx).sum(axis=1)
    cz = (uw * vz - ux * vy + uy * vx - uz * vw).sum(axis=1)
    return np.sqrt(cw ** 2 + cx ** 2 + cy ** 2 + cz ** 2)


def _unit_pairs(n: int, budget: int, stream: SplitMix64) -> tuple[np.ndarray, np.ndarray]:
    """(budget, n, 4) pair stacks: all ordered basis pairs first, then random."""
    basis = np.zeros((n, n, 4))
    basis[np.arange(n), np.arange(n), 0] = 1.0
    bx, by = [], []
    for i in range(n):
        for j in range(n):
            bx.append(basis[i])
            by.append(basis[j])
    bx, by = np.array(bx), np.array(by)
    if budget <= bx.shape[0]:
        return bx[:budget], by[:budget]
    extra = budget - bx.shape[0]
    raw = stream.normals(2 * extra * n * 4).reshape(2, extra, n, 4)
    norms = np.sqrt((raw ** 2).sum(axis=(2, 3)))
    norms[norms < 1e-12] = 1.0
    raw = raw / norms[:, :, None, None]
    return (np.concatenate([bx, raw[0]], axis=0),
            np.concatenate([by, raw[1]], axis=0))


def _gcsi_pair_margin(t: QMatrix, x: np.ndarray, y: np.ndarray,
                      alpha: float, beta: float) -> float:
    tx = _batch_matvec(t, x[None])[0]
    ty = _batch_matvec(t, y[None])[0]
    a = float(np.sqrt((tx ** 2).sum()))
    b = float(np.sqrt((ty ** 2).sum()))
    c = float(_batch_inner_norm(tx[None], y[None])[0])
    return float(np.power(a, alpha) * np.power(b, beta) - c)


def gcsi_margin(t: QMatrix, beta: float, *, budget: int = 1000, seed: int = 0,
                tol: float = DEFAULT_TOL, refine_steps: int = 64) -> Margin:
    """Sampled margin of |<Tx, y>| <= (||Tx|| ||y||)^alpha (||Ty|| ||x||)^beta.

    Exponents satisfy alpha = 1 - beta with beta in (0, 1], and 0^0 counts
    as 1.  All ordered standard-basis pairs are scanned before the random
    unit pairs, so textbook violations at basis vectors surface with their
    exact witnesses.  The worst pair then gets a hill-climb refinement that
    accepts only strict decreases.  A negative margin certifies
    non-membership; a nonnegative one is evidence on the sampled budget.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    alpha = 1.0 - beta
    n = t.rows
    stream = SplitMix64(mix_seed(seed, 0))
    xs, ys = _unit_pairs(n, budget, stream)
    txs = _batch_matvec(t, xs)
    tys = _batch_matvec(t, ys)
    a = _batch_norms(txs)
    b = _batch_norms(tys)
    c = _batch_inner_norm(txs, ys)
    margins = np.power(a, alpha) * np.power(b, beta) - c
    k = int(np.argmin(margins))
    best = float(margins[k])
    bx, by = xs[k].copy(), ys[k].copy()

    refine = SplitMix64(mix_seed(seed, 1))
    step = 0.5
    for _ in range(refine_steps):
        dx = refine.normals(n * 4).reshape(n, 4)
        dy = refine.normals(n * 4).reshape(n, 4)
        cx = bx + step * dx
        cy = by + step * dy
        nx, ny = np.sqrt((cx ** 2).sum()), np.sqrt((cy ** 2).sum())
        if nx < 1e-9 or ny < 1e-9:
            continue
        cand = _gcsi_pair_margin(t, cx / nx, cy / ny, alpha, beta)
        if cand < best:
            best, bx, by = cand, cx / nx, cy / ny
        else:
            step *= 0.8
    witness = None
    if best < -tol:
        witness = {"beta": beta,
                   "x": matio.vector_to_json(QVector(bx)),
                   "y": matio.vector_to_json(QVector(by))}
    return Margin(value=best, tolerance=tol, witness=witness,
                  details={"beta": beta, "budget": budget, "seed": seed})


def gcsi_sweep(t: QMatrix, *, betas: Sequence[float] = tuple(round(0.1 * k, 1) for k in range(1, 11)),
               budget: int = 1000, seed: int = 0,
               tol: float = DEFAULT_TOL) -> dict[float, Margin]:
    """Per-beta margins over a grid; membership is existential over beta.

    The matrix-vector work is shared across the grid: each sampled pair
    contributes three scalars (||Tx||, ||Ty||, |<Tx,y>|) evaluated once.
    """
    n = t.rows
    stream = SplitMix64(mix_seed(seed, 0))
    xs, ys = _unit_pairs(n, budget, stream)
    txs = _batch_matvec(t, xs)
    tys = _batch_matvec(t, ys)
    a = _batch_norms(txs)
    b = _batch_norms(tys)
    c = _batch_inner_norm(txs, ys)
    out: dict[float, Margin] = {}
    for beta in betas:
        if not 0.0 < beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        margins = np.power(a, 1.0 - beta) * np.power(b, beta) - c
        k = int(np.argmin(margins))
        best = float(margins[k])
        witness = None
        if best < -tol:
            witness = {"beta": beta,
                       "x": matio.vector_to_json(QVector(xs[k])),
                       "y": matio.vector_to_json(QVector(ys[k]))}
        out[beta] = Margin(value=best, tolerance=tol, witness=witness,
                           details={"beta": beta, "budget": budget, "seed": seed})
    return out


def paranormal_vector_margins(t: QMatrix, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(unit vectors, ||T^2 x|| ||x|| - ||Tx||^2) of the paranormal vector channel."""
    stream = SplitMix64(seed)
    xs = _unit_vectors(t.rows, samples, stream)
    tx = _batch_matvec(t, xs)
    t2x = _batch_matvec(t @ t, xs)
    return xs, _batch_norms(t2x) * _batch_norms(xs) - _batch_norms(tx) ** 2
