"""Cyclic Jacobi eigensolver, the test-side reference for ``qop._eig``.

The library solves every eigenproblem through LAPACK.  This independent
solver (plain numpy array operations, no LAPACK eigenroutine) checks it,
and ``eigh`` / ``eigvalsh`` below have the seam's signatures so a test can
run whole properties on it.  The module name keeps it out of pytest
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


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return eigh_jacobi(matrix)


def eigvalsh(matrices: np.ndarray) -> np.ndarray:
    a = np.asarray(matrices)
    flat = a.reshape(-1, *a.shape[-2:])
    w = [eigh_jacobi(m, want_vectors=False)[0] for m in flat]
    return np.array(w).reshape(a.shape[:-1])
