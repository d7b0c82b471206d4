"""Entrywise Hamilton arithmetic on (..., 4) component arrays, the test-side
reference for the complex-pair products in ``qop.linalg``.

The component layout is (w, x, y, z) for w + x i + y j + z k, the layout of
``to_array()``.  The module name keeps it out of pytest collection.
"""

from __future__ import annotations

import numpy as np

_SIGN_W = np.array([1.0, -1.0, -1.0, -1.0])
_SIGN_X = np.array([1.0, 1.0, 1.0, -1.0])
_SIGN_Y = np.array([1.0, -1.0, 1.0, 1.0])
_SIGN_Z = np.array([1.0, 1.0, -1.0, 1.0])
_PERM_X = (1, 0, 3, 2)
_PERM_Y = (2, 3, 0, 1)
_PERM_Z = (3, 2, 1, 0)


def hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast Hamilton product of (..., 4) component arrays."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def matmul_components(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n, k, 4) times (k, m, 4) row-into-column Hamilton product."""
    w = np.einsum("isk,sjk->ij", p, q * _SIGN_W)
    x = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_X] * _SIGN_X)
    y = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_Y] * _SIGN_Y)
    z = np.einsum("isk,sjk->ij", p, q[:, :, _PERM_Z] * _SIGN_Z)
    return np.stack([w, x, y, z], axis=2)


def conjugate(a: np.ndarray) -> np.ndarray:
    """Entrywise quaternion conjugate of a (..., 4) component array."""
    return a * np.array([1.0, -1.0, -1.0, -1.0])
