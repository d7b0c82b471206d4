"""Per-pair GCSI hill-climb on quaternion component stacks, the test-side
reference for ``qop.oracles``.

``gcsi_margin`` and ``gcsi_sweep`` below are the quaternion-side versions
that the library replaced with its complex-side vector path: Hamilton
products through ``quaternion_reference.matmul_components`` on the
``to_array()`` components, one candidate pair scored per refinement step,
and one stream draw per step.

``sequential_search`` and ``sequential_gcsi_margin`` are the complex-side
random-direction climb that the library replaced with its gradient
refinement: the same draws and the same arithmetic as the library had, one
candidate pair scored per step.

``refined_gcsi_margin`` is the library's current search written one start
and one candidate at a time: the quaternion-side scan above, then the
projected gradient steps with each gradient written out for its own vector
and each candidate scored on the quaternion side.  The module name keeps it
out of pytest collection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qop import matio, oracles
from qop.errors import DomainError
from qop.linalg import QMatrix, QVector, _from_psi, _psi, embed_chi
from qop.oracles import DEFAULT_TOL, Margin, _gcsi_parts
from qop.rng import SplitMix64, mix_seed
from quaternion_reference import matmul_components


def _batch_matvec(t: QMatrix, xs: np.ndarray) -> np.ndarray:
    """Apply T to a (k, n, 4) stack of vectors, returning the same shape."""
    out = matmul_components(t.to_array(), xs.transpose(1, 0, 2))
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


def _terms(chi_t: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(||Tx||, ||Ty||, |<Tx, y>|) of a (k, 2, 2n) stack, every image by one
    product: the climb's scoring, and the reference for gathered basis pairs."""
    n2 = pairs.shape[-1]
    images = (pairs.reshape(-1, n2) @ chi_t.T).reshape(pairs.shape)
    return _gcsi_parts(images, pairs)[:3]


def sequential_search(t: QMatrix, beta: float, pairs: np.ndarray, moves: np.ndarray, *,
                      seed: int, tol: float) -> Margin:
    """Scan (k, 2, 2n) embedded pairs, then climb along (steps, 2, 4n) real moves, one step at a time."""
    alpha = 1.0 - beta
    chi_t = embed_chi(t)
    a, b, c = _terms(chi_t, pairs)
    margins = np.power(a, alpha) * np.power(b, beta) - c
    k = int(np.argmin(margins))
    best = float(margins[k])
    pair = pairs[k].view(np.float64)
    step = 0.5
    for move in moves:
        cand = pair + step * move
        norms = np.sqrt((cand * cand).sum(axis=1))
        if norms.min() < 1e-9:
            continue
        cand = cand / norms[:, None]
        a, b, c = _terms(chi_t, cand.view(np.complex128)[None])
        value = float(np.power(a[0], alpha) * np.power(b[0], beta) - c[0])
        if value < best:
            best, pair = value, cand
        else:
            step *= 0.8
    witness = None
    if best < -tol:
        x, y = pair.view(np.complex128)
        witness = {"beta": beta,
                   "x": matio.vector_to_json(_from_psi(x)),
                   "y": matio.vector_to_json(_from_psi(y))}
    return Margin(value=best, tolerance=tol, witness=witness,
                  details={"beta": beta, "budget": pairs.shape[0], "seed": seed})


def sequential_gcsi_margin(t: QMatrix, beta: float, *, budget: int = 1000, seed: int = 0,
                           tol: float = DEFAULT_TOL, refine_steps: int = 64) -> Margin:
    """``gcsi_margin`` with its draws made here and its climb run one step at a time."""
    n = t.rows
    pairs = oracles._unit_pairs(n, budget, SplitMix64(mix_seed(seed, 0)))
    moves = _psi(SplitMix64(mix_seed(seed, 1)).normals(2 * refine_steps * n * 4)
                 .reshape(refine_steps, 2, n, 4)).view(np.float64)
    return sequential_search(t, beta, pairs, moves, seed=seed, tol=tol)



def _sigma(v: np.ndarray) -> np.ndarray:
    """psi(u j) for v = psi(u) = [p; q]: [conj(q); -conj(p)]."""
    n = v.shape[0] // 2
    return np.concatenate([v[n:].conj(), -v[:n].conj()])


def _refine_gradient(chi: np.ndarray, x: np.ndarray, y: np.ndarray,
                     beta: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The two descent directions at (psi(x), psi(y)), -grad f and grad c, each a
    (2, 2n) pair projected onto the spheres' tangent spaces; None where ||Tx||,
    ||Ty|| or |<Tx, y>| is 0.

    c^2 = |w^H y|^2 + |w^H s(y)|^2 = |y^H w|^2 + |y^H s(w)|^2 with w = chi x and
    s(u) = psi(u j), so grad_w c = (conj(w^H y) y + conj(w^H s(y)) s(y)) / c and
    grad_y c = (conj(y^H w) w + conj(y^H s(w)) s(w)) / c.
    """
    w, z = chi @ x, chi @ y
    a, b = np.linalg.norm(w), np.linalg.norm(z)
    p, r = np.vdot(w, y), np.vdot(w, _sigma(y))
    c = float(np.sqrt(abs(p) ** 2 + abs(r) ** 2))
    if a == 0.0 or b == 0.0 or c == 0.0:
        return None
    g = a ** (1.0 - beta) * b ** beta
    chi_h = chi.conj().T
    grad_c = np.array([chi_h @ ((p.conjugate() * y + r.conjugate() * _sigma(y)) / c),
                       (np.vdot(y, w).conjugate() * w
                        + np.vdot(y, _sigma(w)).conjugate() * _sigma(w)) / c])
    grad_g = np.array([(1.0 - beta) * g / a ** 2 * (chi_h @ w), beta * g / b ** 2 * (chi_h @ z)])
    out = []
    for d in (grad_c - grad_g, grad_c):
        for i, v in enumerate((x, y)):
            d[i] = d[i] - np.vdot(v, d[i]).real * v
        out.append(d)
    return out[0], out[1]


def refined_gcsi_margin(t: QMatrix, beta: float, *, budget: int = 1000, seed: int = 0,
                        tol: float = DEFAULT_TOL) -> Margin:
    """``gcsi_margin``: the quaternion-side scan, then ``oracles._STEPS``
    gradient steps from its worst pair, one candidate scored at a time."""
    alpha = 1.0 - beta
    n = t.rows
    xs, ys = _unit_pairs(n, budget, SplitMix64(mix_seed(seed, 0)))
    txs, tys = _batch_matvec(t, xs), _batch_matvec(t, ys)
    margins = (np.power(_batch_norms(txs), alpha) * np.power(_batch_norms(tys), beta)
               - _batch_inner_norm(txs, ys))
    k = int(np.argmin(margins))
    best, bx, by = float(margins[k]), xs[k], ys[k]
    chi = embed_chi(t)
    x, y = _psi(bx), _psi(by)
    angle = oracles._ANGLE
    for _ in range(oracles._STEPS):
        dirs = _refine_gradient(chi, x, y, beta)
        if dirs is None:
            continue
        scored = []
        for d in dirs:
            size = float(np.sqrt(sum(np.vdot(v, v).real for v in d)))
            for j in range(oracles._RUNGS):
                step = angle / size * oracles._RUNG ** j if size > 0.0 else 0.0
                cx, cy = x + step * d[0], y + step * d[1]
                cx, cy = cx / np.linalg.norm(cx), cy / np.linalg.norm(cy)
                qx, qy = _from_psi(cx).to_array(), _from_psi(cy).to_array()
                scored.append((_gcsi_pair_margin(t, qx, qy, alpha, beta), cx, cy, qx, qy, j))
        value, cx, cy, qx, qy, j = min(scored, key=lambda s: s[0])
        if value < best:
            best, x, y, bx, by = value, cx, cy, qx, qy
            angle = min(oracles._ANGLE, angle * oracles._RUNG ** (j - 1))
        else:
            angle *= oracles._RUNG ** oracles._RUNGS
    witness = None
    if best < -tol:
        witness = {"beta": beta,
                   "x": matio.vector_to_json(QVector(bx)),
                   "y": matio.vector_to_json(QVector(by))}
    return Margin(value=best, tolerance=tol, witness=witness,
                  details={"beta": beta, "budget": budget, "seed": seed})
