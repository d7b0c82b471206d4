"""Per-pair GCSI scoring on quaternion component stacks, the test-side
reference for ``qop.oracles``.

``gcsi_margin`` and ``gcsi_sweep`` below build the library's candidate set
another way and score it on the quaternion side: the x are the quaternion
vectors whose embeddings are the 2n standard basis vectors of C^{2n}, then
those of the right singular vectors of chi(T) above the rank cutoff, from
one ``np.linalg.svd``; each y is Tx / ||Tx||, or x where Tx = 0.  Every
product is a Hamilton product through
``quaternion_reference.matmul_components`` on the ``to_array()``
components, one pair at a time.  The module name keeps it out of pytest
collection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qop import matio
from qop.errors import DomainError
from qop.linalg import QMatrix, QVector, _from_psi, embed_chi
from qop.oracles import DEFAULT_TOL, SWEEP_BETAS, Margin
from qop.transforms import RANK_RTOL
from quaternion_reference import matmul_components


def _apply(t: QMatrix, x: np.ndarray) -> np.ndarray:
    """T x for one (n, 4) component vector."""
    return matmul_components(t.to_array(), x[:, None])[:, 0]


def _inner_norm(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>| for two (n, 4) component vectors."""
    uw, ux, uy, uz = u.T
    vw, vx, vy, vz = v.T
    cw = (uw * vw + ux * vx + uy * vy + uz * vz).sum()
    cx = (uw * vx - ux * vw - uy * vz + uz * vy).sum()
    cy = (uw * vy + ux * vz - uy * vw - uz * vx).sum()
    cz = (uw * vz - ux * vy + uy * vx - uz * vw).sum()
    return float(np.sqrt(cw ** 2 + cx ** 2 + cy ** 2 + cz ** 2))


def candidates(t: QMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (x, y) component pairs, in the library's order."""
    chi = embed_chi(t)
    _, s, vh = np.linalg.svd(chi)
    vs = list(np.eye(chi.shape[0], dtype=np.complex128))
    vs += [v.conj() for v, sigma in zip(vh, s) if sigma > RANK_RTOL * s[0]]
    out = []
    for v in vs:
        x = _from_psi(v).to_array()
        tx = _apply(t, x)
        norm = float(np.sqrt((tx ** 2).sum()))
        out.append((x, tx / norm if norm > 0.0 else x))
    return out


def _margins(t: QMatrix, betas: Sequence[float], tol: float) -> list[Margin]:
    scored = []
    for x, y in candidates(t):
        tx, ty = _apply(t, x), _apply(t, y)
        scored.append((float(np.sqrt((tx ** 2).sum())), float(np.sqrt((ty ** 2).sum())),
                       _inner_norm(tx, y), x, y))
    out = []
    for beta in betas:
        if not 0.0 < beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        values = [a ** (1.0 - beta) * b ** beta - c for a, b, c, _, _ in scored]
        k = int(np.argmin(values))
        witness = None
        if values[k] < -tol:
            witness = {"beta": beta, "x": matio.vector_to_json(QVector(scored[k][3])),
                       "y": matio.vector_to_json(QVector(scored[k][4]))}
        out.append(Margin(value=values[k], tolerance=tol, witness=witness,
                          details={"beta": beta}))
    return out


def gcsi_margin(t: QMatrix, beta: float, *, tol: float = DEFAULT_TOL) -> Margin:
    """The least margin over the candidate pairs, witnessed by its pair below -tol."""
    return _margins(t, (beta,), tol)[0]


def gcsi_sweep(t: QMatrix, *, tol: float = DEFAULT_TOL) -> dict[float, Margin]:
    """``gcsi_margin`` at each beta of ``SWEEP_BETAS``, the pairs scored once."""
    return dict(zip(SWEEP_BETAS, _margins(t, SWEEP_BETAS, tol)))
