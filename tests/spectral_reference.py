"""Per-eigenvalue conjugate pairing, the test-side reference for ``qop.spectral``.

``conjugate_pairs`` is the greedy pairing walk that the library replaced
with its one-distance-matrix walk: every unpaired eigenvalue recomputes and
masks its own row of distances and takes the masked ``argmin``.
``standard_eigenvalues`` forms each midpoint on its own pair of scalars, and
``spherical_spectrum`` takes every class centre as two ``np.mean`` calls.
The module name keeps it out of pytest collection.
"""

from __future__ import annotations

import numpy as np

from qop import _eig
from qop.errors import StructureError
from qop.linalg import QMatrix, embed_chi
from qop.spectral import MERGE_TOL, PAIR_TOL, SphericalSpectrum, _tolerant_order


def conjugate_pairs(vals: np.ndarray) -> tuple[list[int], list[int], float]:
    """(first, second) index lists in walk order and the worst gap."""
    free = np.ones(vals.size, dtype=bool)
    first: list[int] = []
    second: list[int] = []
    worst = 0.0
    for i in range(vals.size):
        if not free[i]:
            continue
        free[i] = False
        dist = np.where(free, np.abs(vals - np.conj(vals[i])), np.inf)
        j = int(np.argmin(dist))
        free[j] = False
        worst = max(worst, float(dist[j]))
        first.append(i)
        second.append(j)
    return first, second, worst


def standard_eigenvalues(t: QMatrix, *, pair_tol: float = PAIR_TOL) -> tuple[complex, ...]:
    vals = _eig.eigvals(embed_chi(t))
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    first, second, worst = conjugate_pairs(vals)
    if worst > pair_tol * scale:
        raise StructureError(
            f"conjugate pairing failure (worst gap {worst:.3e} at scale {scale:.3e})")
    reps = []
    for i, j in zip(first, second):
        mid = 0.5 * (vals[i] + np.conj(vals[j]))
        reps.append(complex(mid.real, abs(mid.imag)))
    return tuple(_tolerant_order(reps, pair_tol * scale))


def spherical_spectrum(t: QMatrix, *, merge_tol: float = MERGE_TOL) -> SphericalSpectrum:
    reps = standard_eigenvalues(t)
    tol = merge_tol * max(1.0, max(abs(z) for z in reps))
    classes: list[list[complex]] = []
    for z in reps:
        home = next((c for c in classes if abs(z - c[0]) <= tol), None)
        if home is None:
            classes.append([z])
        else:
            home.append(z)
    centers = tuple(complex(np.mean([z.real for z in c]), np.mean([z.imag for z in c]))
                    for c in classes)
    mult = tuple(len(c) for c in classes)
    radius = max(abs(z) for z in centers)
    return SphericalSpectrum(classes=centers, multiplicities=mult, radius=radius)
