"""The one eigensolver seam: every eigenproblem in qop is solved here.

Four thin wrappers over ``numpy.linalg`` (LAPACK):

* ``eigh``: ascending eigenvalues and orthonormal eigenvectors of a
  Hermitian matrix, or of each matrix in a stack of shape (..., m, m);
* ``eigvalsh``: ascending eigenvalues of a Hermitian matrix, or of each
  matrix in a stack of shape (..., m, m);
* ``eigvals``: eigenvalues of a general square matrix, in no set order;
* ``svd``: thin singular value decomposition, singular values descending,
  of a matrix or of each matrix in a stack.

Callers reach them as module attributes (``_eig.eigh``), never through
``from ._eig import``, so a reference solver can be swapped in for a whole
run.  A LAPACK convergence failure is raised as ``ConvergenceError``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import ConvergenceError


def _lapack(solve: Callable, *args: Any, **kwargs: Any) -> Any:
    """``solve(*args, **kwargs)``, a LAPACK failure raised as ``ConvergenceError``
    (a plain call: a generator-based context costs more than a small solve)."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix
    or of each matrix in a stack."""
    return tuple(_lapack(np.linalg.eigh, matrix))


def eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or a stack of them."""
    return _lapack(np.linalg.eigvalsh, matrices)


def eigvals(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general complex matrix."""
    return _lapack(np.linalg.eigvals, np.asarray(matrix, dtype=np.complex128))


def svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``matrix = W diag(s) Vh`` with ``s`` descending, of a matrix
    or of each matrix in a stack.

    For an m x k matrix, W is m x min(m, k) and Vh is min(m, k) x k.
    """
    return _lapack(np.linalg.svd, np.asarray(matrix, dtype=np.complex128), full_matrices=False)
