"""Cyclic Jacobi eigensolver, the test-side reference for ``qop._eig``.

The library solves every eigenproblem through LAPACK.  This independent
solver (plain numpy array operations, no LAPACK eigenroutine) checks it,
and ``eigh`` / ``eigvalsh`` / ``svd`` below have the seam's signatures so a
test can run whole properties on it.  The module name keeps it out of pytest
collection.
"""

from __future__ import annotations

import numpy as np

from qop.errors import ConvergenceError


def _offdiag_norm(a: np.ndarray) -> float:
    off = np.array(a)
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def eigh_jacobi(matrix: np.ndarray, *, off_tol: float = 1e-13,
                max_sweeps: int = 40, want_vectors: bool = True):
    """Eigenvalues (ascending) and optional eigenvectors of a Hermitian matrix.

    One cyclic sweep visits every strictly upper pair (p, q) and applies a
    complex plane rotation annihilating A[p, q].  For the pivot
    [[alpha, g], [conj(g), beta]] the rotation is

        R = [[c, s*phi], [-s*conj(phi), c]],  phi = g / |g|,

    with tan(2*theta) picked by the stable tau/t recurrence, so the update
    A <- R^H A R zeroes the pivot exactly.  Eigenvectors accumulate in the
    columns of V.
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigh_jacobi expects a square matrix")
    m = a.shape[0]
    v = np.eye(m, dtype=np.complex128) if want_vectors else None
    if m == 1:
        w = np.array([a[0, 0].real])
        return (w, v) if want_vectors else (w, None)

    norm_all = float(np.linalg.norm(a))
    if norm_all == 0.0:
        w = np.zeros(m)
        return (w, v) if want_vectors else (w, None)
    skip = off_tol * norm_all / (2.0 * m * m)

    converged = False
    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= off_tol * norm_all:
            converged = True
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                g = a[p, q]
                absg = abs(g)
                if absg <= skip:
                    continue
                alpha = a[p, p].real
                beta = a[q, q].real
                phi = g / absg
                tau = (beta - alpha) / (2.0 * absg)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, s * phi], [-s * np.conj(phi), c]],
                               dtype=np.complex128)
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                # the pivot is zero by construction; keep it exact
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if want_vectors:
                    v[:, [p, q]] = v[:, [p, q]] @ rot
    else:
        converged = _offdiag_norm(a) <= off_tol * norm_all
    if not converged:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge within {max_sweeps} sweeps")

    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    w = w[order]
    if want_vectors:
        return w, v[:, order]
    return w, None


def eigh(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(matrices)
    flat = [eigh_jacobi(m) for m in a.reshape(-1, *a.shape[-2:])]
    return (np.array([w for w, _ in flat]).reshape(a.shape[:-1]),
            np.array([v for _, v in flat]).reshape(a.shape))


def eigvalsh(matrices: np.ndarray) -> np.ndarray:
    a = np.asarray(matrices)
    flat = a.reshape(-1, *a.shape[-2:])
    w = [eigh_jacobi(m, want_vectors=False)[0] for m in flat]
    return np.array(w).reshape(a.shape[:-1])


def _range_basis(halves: np.ndarray, count: int) -> np.ndarray:
    """``count`` orthonormal columns spanning the range of ``halves``.

    The halves of an orthonormal basis of a zero cluster have an
    orthogonal projector as their Gram X X*, so its top eigenvectors span
    the range exactly.
    """
    _, v = eigh_jacobi(halves @ halves.conj().T)
    return v[:, ::-1][:, :count]


# well above the Jacobi eigenvalue error, so the +-sigma pair of every kept
# singular value is separated enough to split into its two halves
ZERO_RTOL = 1e-10


def svd(matrix: np.ndarray):
    """Thin SVD with the seam's signature, from the Hermitian dilation; a
    stack is solved matrix by matrix.

    [[0, M], [M*, 0]] has eigenvalues +-sigma_i with eigenvectors
    [w_i; +-v_i] / sqrt(2), plus zeros.  Each positive eigenvalue gives a
    singular triplet; both halves are renormalised, which also undoes any
    mixing of the +-sigma pair.  Eigenvalues within ``ZERO_RTOL`` of zero
    form the zero cluster: its top halves span ker M* and its bottom halves
    span ker M, and they fill the columns of the zero singular values.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim > 2:
        parts = [svd(x) for x in m.reshape(-1, *m.shape[-2:])]
        return tuple(np.stack(f).reshape(m.shape[:-2] + f[0].shape) for f in zip(*parts))
    p, q = m.shape
    k = min(p, q)
    dilation = np.block([[np.zeros((p, p)), m], [m.conj().T, np.zeros((q, q))]])
    lam, vec = eigh_jacobi(dilation)
    cut = ZERO_RTOL * float(np.abs(lam).max(initial=0.0))
    pos = np.flatnonzero(lam > cut)[::-1]
    zero = np.abs(lam) <= cut
    w, v = vec[:p, pos], vec[p:, pos]
    w = np.hstack([w / np.linalg.norm(w, axis=0), _range_basis(vec[:p, zero], k - pos.size)])
    v = np.hstack([v / np.linalg.norm(v, axis=0), _range_basis(vec[p:, zero], k - pos.size)])
    s = np.concatenate([lam[pos], np.zeros(k - pos.size)])
    return w, s, v.conj().T
