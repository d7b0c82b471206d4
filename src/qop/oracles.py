"""Operator-class predicates and margin-valued theorem oracles.

Every check reports a signed margin: nonnegative means the asserted
inequality held at the evaluated instance, negative quantifies the
violation.  Margins are raw (in the units of the quantity compared);
callers normalize by an operator scale when they need dimensionless
numbers.

Semantics are deliberately asymmetric.  Operator-order conditions (PSD
margins) and paranormality, decided on a quadratic eigenvalue pencil, are
certified both ways up to eigensolver tolerance.  The generalized
Cauchy-Schwarz family, quantified over all pairs of vectors, is certified
only on failure, where a concrete witness is produced; a nonnegative margin
there is sampled evidence under a recorded budget and seed, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _eig, matio
from .errors import DomainError, PreconditionError, QopError, ShapeError
from .linalg import (QMatrix, QVector, _adjoints, _check_count, _check_tol, _checked,
                     _chi_eigvalsh, _from_chi_top, _from_psi, _gram_norms, _identities,
                     _operator_norms, _outers, _pair_eigvalsh, _product, _psi, _require_finite,
                     _selfadjoint_residual, _stack_pairs, _stacked, _trusted, _vector_norms,
                     embed_chi, inner)
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .spectral import (EIGENSPACE_RTOL, _clamp_errors, _delta_qs, _eigensystems, _kernel_bases,
                       _null_basis, _psd_errors, _psd_powers, _require_selfadjoint,
                       _require_square, _selfadjoint_errors, _spectra)
from .transforms import (PolarParts, _abs_powers, _aluthge_transforms, _polars, polar,
                         unitary_completion)

DEFAULT_TOL = 1e-8
# invert's cutoff on sigma_min / sigma_max
INVERT_RTOL = 1e-10
# the beta grid of gcsi_sweep
SWEEP_BETAS = tuple(round(0.1 * k, 1) for k in range(1, 11))


def _sift(out: list, rows: Iterable[int], check: Callable | Sequence, *stacks: Any) -> tuple:
    """The rows that pass, then each stack, an array or a list over ``rows``,
    at them; the stacks themselves when every row passes.  ``check`` holds
    the QopError of each row, the one its case meets alone, or None, or is a
    function of the case index that raises or returns it; a failing row's
    error is put in ``out[i]``."""
    rows, errs = list(rows), check
    if callable(check):
        errs = []
        for i in rows:
            try:
                errs.append(check(i))
            except QopError as exc:
                errs.append(exc)
    kept = [j for j, err in enumerate(errs) if not isinstance(err, QopError)]
    if len(kept) == len(rows):
        return rows, *stacks
    for i, err in zip(rows, errs):
        if isinstance(err, QopError):
            out[i] = err
    return [rows[j] for j in kept], *(x[kept] if isinstance(x, np.ndarray) else
                                      [x[j] for j in kept] for x in stacks)


def _sole(results: list) -> Any:
    """The result of a batch of one case; its error is raised."""
    if isinstance(results[0], QopError):
        raise results[0]
    return results[0]


@dataclass(frozen=True)
class Margin:
    """Signed slack of one inequality at one instance.

    ``witness`` is a JSON-ready description of the violating instance and
    is present exactly when the margin certifies a violation.  ``details``
    carries side information (channel margins, parameters) for reports.
    """

    value: float
    tolerance: float
    witness: dict[str, Any] | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.witness is not None


def _margin(value: float, tol: float, scale: float,
            witness: Callable[[], dict[str, Any]], **details: Any) -> Margin:
    """The verdict of a scaled oracle: ``witness()`` is called, within this
    call, and kept exactly when value < -tol * scale; ``"scale"`` ends the
    details."""
    return Margin(value=value, tolerance=tol,
                  witness=witness() if value < -tol * scale else None,
                  details={**details, "scale": scale})


@dataclass(frozen=True)
class BasicClasses:
    """Membership flags for the four elementary operator classes."""

    selfadjoint: bool
    positive: bool
    normal: bool
    unitary: bool
    selfadjoint_residual: float
    positive_margin: float | None
    normal_residual: float
    unitary_residual: float
    threshold: float


def classify_basic(t: QMatrix, *, tol: float = DEFAULT_TOL) -> BasicClasses:
    """Test selfadjoint / positive / normal / unitary membership.

    Residuals are Frobenius norms of the defining defect, compared against
    tol * max(1, ||T||)^2; positivity additionally needs the smallest
    eigenvalue to clear the same threshold from below.
    """
    _check_tol(tol)
    n = _require_square(t)
    gram = t.H @ t
    thr = tol * max(1.0, float(_gram_norms(gram._a[None], gram._b[None])[0])) ** 2
    sa_res = _selfadjoint_residual(t._a, t._b)
    selfadjoint = sa_res <= thr
    co = t @ t.H
    normal_res = (gram - co).frobenius()
    unitary_res = (gram - QMatrix.identity(n)).frobenius()
    pos_margin: float | None = None
    positive = False
    if selfadjoint:
        pos_margin = float(_chi_eigvalsh(t)[0])
        positive = pos_margin >= -thr
    return BasicClasses(
        selfadjoint=selfadjoint,
        positive=positive,
        normal=normal_res <= thr,
        unitary=unitary_res <= thr,
        selfadjoint_residual=sa_res,
        positive_margin=pos_margin,
        normal_residual=normal_res,
        unitary_residual=unitary_res,
        threshold=thr,
    )


def _check_exponent(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {p}")


def is_p_hyponormal(t: QMatrix, p: float, *, tol: float = DEFAULT_TOL) -> Margin:
    """Margin of (T*T)^p - (TT*)^p against the operator order.

    p = 1 is the hyponormal case and p = 1/2 the semi-hyponormal one.  The
    witness, present when the margin is materially negative, is the unit
    vector achieving the minimal quadratic form.
    """
    _check_tol(tol)
    _check_exponent(p)
    return _p_hyponormal_grid([polar(t)], [(p,)], tol)[0][0]


def _hyponormal_diffs(parts: Sequence[PolarParts],
                      ps: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """The pair stack of D_p = (T*T)^p - (TT*)^p for each part and each p of
    its grid, in case order, checked finite.

    D_p = |T|^{2p} - U |T|^{2p} U*: both sides are built on the same SVD
    singular values, so a numerically smeared kernel cannot fake an order
    violation through the fractional power.
    """
    ha, hb = _abs_powers(parts, [[2.0 * p for p in grid] for grid in ps])
    sizes = [len(grid) for grid in ps if grid]
    ua, ub = _stack_pairs([pp.u for pp, grid in zip(parts, ps) if grid])
    if len(set(sizes)) == 1:
        # grids of one length: each U broadcast over its own grid
        ha, hb = (h.reshape(len(sizes), sizes[0], *h.shape[1:]) for h in (ha, hb))
        ua, ub = ua[:, None], ub[:, None]
    else:
        ua, ub = np.repeat(ua, sizes, axis=0), np.repeat(ub, sizes, axis=0)
    ya, yb = _product(*_product(ua, ub, ha, hb), *_adjoints(ua, ub))
    da, db = (ha - ya).reshape(-1, *ha.shape[-2:]), (hb - yb).reshape(-1, *hb.shape[-2:])
    _require_finite(da, db, "QMatrix")
    return da, db


def _p_hyponormal_grid(parts: Sequence[PolarParts], ps: Sequence[Sequence[float]],
                       tol: float) -> list[list[Margin]]:
    """``is_p_hyponormal`` at each exponent of ``ps[i]`` from the polar parts
    ``parts[i]``, every (case, exponent) pair in one eigenvalue solve.  The
    witnesses, the unit vectors of the least quadratic forms, are solved for
    only at the violated pairs, all of them in one eigensolver call."""
    if not any(ps):
        return [[] for _ in ps]
    da, db = _hyponormal_diffs(parts, ps)
    values = _pair_eigvalsh(da, db)[:, 0].tolist()
    scales = [max(1.0, max(pp.sigmas, default=0.0) ** (2.0 * p))
              for pp, grid in zip(parts, ps) for p in grid]
    low = [j for j, (value, scale) in enumerate(zip(values, scales)) if value < -tol * scale]
    systems = dict(zip(low, _eigensystems(da[low], db[low])[0] if low else ()))
    out, rows = [], iter(range(len(values)))
    for grid in ps:
        margins = []
        for p, j in zip(grid, rows):
            witness = lambda: {"p": p, "vector": matio.vector_to_json(systems[j].vectors.column(0))}
            margins.append(_margin(values[j], tol, scales[j], witness, p=p))
        out.append(margins)
    return out


def _norms(vs: np.ndarray) -> np.ndarray:
    """Euclidean norms of a stack of complex vectors along the last axis."""
    r = np.ascontiguousarray(vs).view(np.float64)
    return np.sqrt((r * r).sum(axis=-1))


# |Im lam| / max(1, ||T||^2) up to which a pencil root counts as real.  A
# dropped real root can hide a negative interval, a kept complex one only adds
# a probe: the tangent double roots of unitaries and positives (n <= 64) split
# by up to 9.9e-8, 100 times below, and Ginibre roots measured |Im| >= 5.0e-4
_REAL_ROOT_RTOL = 1e-5
# how far below is_paranormal's value, times its scale, the pencil may dip.  A
# piece's bound is >= min(g(lo), g(hi)) - (hi - lo)^2 / 4, so bisection ends
_PENCIL_RTOL = 1e-10


def is_paranormal(t: QMatrix, *, tol: float = DEFAULT_TOL) -> Margin:
    """Margin min over lam >= 0 of g(lam), the least eigenvalue of the pencil
    lam^2 I - 2 lam A + B with A = chi(T)* chi(T), B = chi(T^2)* chi(T^2); T
    is paranormal iff it is nonnegative.  g >= 0 for lam <= 0, and g changes
    sign only at real roots of det(lam^2 I - 2 lam A + B), eigenvalues of the
    companion [[0, I], [-B, 2A]], so g at 0, at those roots and at their
    midpoints, one stacked solve, decides its sign everywhere.  g - lam^2 is
    concave, so lam^2 plus its chord bounds g below on an interval: the
    negative intervals are bisected in lockstep until no bound lies
    ``_PENCIL_RTOL`` * scale below the least g found.  The scale is
    max(1, ||T||^4).  The witness is that lam and the unit x, largest entry
    real and positive, with psi(x) the bottom eigenvector there, so that
    ||T^2 x|| ||x|| < ||Tx||^2.
    """
    _check_tol(tol)
    _require_square(t)
    chi_t = embed_chi(t)
    a, b = ((g + g.conj().T) / 2.0 for g in (c.conj().T @ c for c in (chi_t, chi_t @ chi_t)))
    eye = np.eye(a.shape[0])
    top = max(float(_eig.eigvalsh(a)[-1]), 0.0)
    scale = max(1.0, top * top)
    roots = _eig.eigvals(np.block([[np.zeros_like(a), eye], [-b, 2.0 * a]]))
    # chi makes every real root at least double: every second one keeps each
    real = np.sort(roots.real[abs(roots.imag) <= _REAL_ROOT_RTOL * max(1.0, top)])[::2]
    knots = np.unique(np.append(real, 0.0))
    pencil = lambda lam: b - (2.0 * lam[:, None, None]) * a + (lam * lam)[:, None, None] * eye
    mids = (knots[:-1] + knots[1:]) / 2.0
    lams = np.concatenate([knots, mids])
    vals = _eig.eigvalsh(pencil(lams))[:, 0]
    gk, gm = vals[:len(knots)], vals[len(knots):]
    # (lo, hi, g(lo), g(hi)) of each half of each negative interval
    pieces = np.concatenate([[knots[:-1], mids, gk[:-1], gm], [mids, knots[1:], gm, gk[1:]]],
                            axis=1)[:, np.tile(gm < 0.0, 2)]
    while True:
        lo, hi, glo, ghi = pieces
        w = hi - lo
        slope = np.divide(ghi - glo, w, out=np.zeros_like(w), where=w > 0.0)
        # where lam^2 plus the chord of g - lam^2 is least on [lo, hi]
        x = np.clip((lo + hi - slope) / 2.0, lo, hi)
        bound = glo + slope * (x - lo) + (x - lo) * (x - hi)
        pieces = pieces[:, bound < vals.min() - _PENCIL_RTOL * scale]
        if not pieces.size:
            break
        lo, hi, glo, ghi = pieces
        mid = (lo + hi) / 2.0
        gmid = _eig.eigvalsh(pencil(mid))[:, 0]
        lams, vals = np.append(lams, mid), np.append(vals, gmid)
        pieces = np.concatenate([[lo, mid, glo, gmid], [mid, hi, gmid, ghi]], axis=1)
    lam = lams[[np.argmin(vals)]]
    witness = lambda: {"lambda": float(lam[0]), "vector": matio.vector_to_json(
        _null_basis(_eig.eigh(pencil(lam))[1][0, :, :1], 1)[0])}
    return _margin(float(vals.min()), tol, scale, witness)


def _unit_pairs(n: int, budget: int, stream: SplitMix64) -> np.ndarray:
    """(budget, 2, 2n) embedded pairs (x, y): all ordered basis pairs first, then random."""
    m = np.arange(min(budget, n * n))
    pairs = np.zeros((m.shape[0], 2, 2 * n), dtype=np.complex128)
    pairs[m, 0, m // n] = 1.0
    pairs[m, 1, m % n] = 1.0
    extra = budget - m.shape[0]
    if extra <= 0:
        return pairs
    raw = stream.normals(2 * extra * n * 4).reshape(2, extra, n, 4)
    norms = np.sqrt((raw ** 2).sum(axis=(2, 3)))
    norms[norms < 1e-12] = 1.0
    raw = raw / norms[:, :, None, None]
    return np.concatenate([pairs, _psi(raw).swapaxes(0, 1)], axis=0)


def _gcsi_parts(images: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(||Tx||, ||Ty||, |<Tx, y>|, w^H psi(y), its j part) of a stack of
    embedded pairs (..., 2, 2n) from their images w = psi(Tx), z = psi(Ty).

    For psi(u) = [p; q] the quaternionic inner product splits into a complex
    part and a j part: |<u, v>|^2 = |psi(u)^H psi(v)|^2 + |sum(p v_bot - q v_top)|^2.
    """
    n = pairs.shape[-1] // 2
    norms = _norms(images)
    tx, y = images[..., 0, :], pairs[..., 1, :]
    inner_c = (tx.conj() * y).sum(axis=-1)
    inner_j = (tx[..., :n] * y[..., n:] - tx[..., n:] * y[..., :n]).sum(axis=-1)
    c = np.sqrt(inner_c.real ** 2 + inner_c.imag ** 2 + inner_j.real ** 2 + inner_j.imag ** 2)
    return norms[..., 0], norms[..., 1], c, inner_c, inner_j


def _gcsi_terms(chi_t: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(||Tx||, ||Ty||, |<Tx, y>|) for a (k, 2, 2n) stack of ``_unit_pairs``.

    chi(T) psi(x) = psi(Tx).  The first min(k, n^2) pairs are the ordered
    standard-basis pairs, whose images are columns of chi(T): they are
    gathered, the same bits as multiplying, and the other pairs are scored
    in one product with chi(T)^T.
    """
    n2 = pairs.shape[-1]
    n = n2 // 2
    m = np.arange(min(pairs.shape[0], n * n))
    images = np.empty_like(pairs)
    images[:m.shape[0]] = chi_t.T[np.stack([m // n, m % n], axis=1)]
    images[m.shape[0]:] = (pairs[m.shape[0]:].reshape(-1, n2) @ chi_t.T).reshape(-1, 2, n2)
    return _gcsi_parts(images, pairs)[:3]


def _gcsi_values(terms: tuple[np.ndarray, ...], beta: float) -> np.ndarray:
    """||Tx||^(1 - beta) ||Ty||^beta - |<Tx, y>| from the ``_gcsi_terms`` of a stack.

    ``beta`` is one Python float: numpy computes a scalar exponent of 0.5 or
    2 as sqrt or square, but an array of exponents by pow, entry by entry,
    which moves the last bits.
    """
    a, b, c = terms
    return np.power(a, 1.0 - beta) * np.power(b, beta) - c


def _worst_pair(terms: tuple[np.ndarray, ...], beta: float,
                pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """The least margin over a stack of pairs and its pair, the first one on ties."""
    values = _gcsi_values(terms, beta)
    k = int(np.argmin(values))
    return float(values[k]), pairs[k]


def _gcsi_result(beta: float, value: float, pair: np.ndarray, *, budget: int,
                 seed: int, tol: float) -> Margin:
    """The sampled margin at the worst pair found, witnessed by it below -tol."""
    witness = None
    if value < -tol:
        witness = {"beta": beta,
                   "x": matio.vector_to_json(_from_psi(pair[0])),
                   "y": matio.vector_to_json(_from_psi(pair[1]))}
    return Margin(value=value, tolerance=tol, witness=witness,
                  details={"beta": beta, "budget": budget, "seed": seed})


# the refinement of each GCSI search: _STEPS projected gradient steps on the
# unit spheres of x and y.  A step tries _RUNGS lengths along each of two
# directions, -grad f and grad |<Tx, y>|, that turn the pair by the search's
# angle times _RUNG^j, j < _RUNGS.  The angle starts at _ANGLE and moves to one
# rung above the candidate taken, or below the ladder when none lowers f
_STEPS = 10
_RUNGS = 6
_RUNG = 0.35
_ANGLE = 1.0


def _check_gcsi_args(beta: float, budget: int) -> None:
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    _check_count(budget, "budget")


def _gcsi_draw(n: int, budget: int, seed: int) -> np.ndarray:
    """The seed's (budget, 2, 2n) sampled pairs."""
    return _unit_pairs(n, budget, SplitMix64(mix_seed(seed, 0)))


# one search of _gcsi_search: T, beta, the seed, and its _gcsi_draw
Search = tuple[QMatrix, float, int, np.ndarray]


def _gcsi_search(searches: Iterable[Search], *, tol: float) -> list[Margin]:
    """Scan each search's sampled pairs, then refine from its worst one.

    Each operator is scanned on its own, in one ``_gcsi_terms`` call, as
    ``searches`` reaches it, so one scan's pairs are alive at a time.  Each
    run of consecutive searches of one operator size is refined as one stack
    by ``_refine``, whose result for a start is that of the start alone.
    """
    def scanned() -> Iterator[tuple]:
        for t, beta, seed, pairs in searches:
            chi_t = embed_chi(t)
            best, pair = _worst_pair(_gcsi_terms(chi_t, pairs), beta, pairs)
            # a copy of the pair, and no name left on the pairs, frees them now
            pair, budget = pair.copy(), pairs.shape[0]
            del pairs
            yield chi_t, beta, seed, budget, best, pair

    out: list[Margin] = []
    for _, run in groupby(scanned(), lambda s: s[0].shape):
        chis, betas, seeds, budgets, best, pairs = zip(*run)
        values, pairs = _refine(_stacked(chis), betas, np.array(best), _stacked(pairs))
        out += [_gcsi_result(beta, value, pair, budget=budget, seed=seed, tol=tol)
                for beta, seed, budget, value, pair in zip(betas, seeds, budgets,
                                                           values.tolist(), pairs)]
    return out


def _flip(v: np.ndarray) -> np.ndarray:
    """conj(J v) for J = [[0, I], [-I, 0]], along the last axis."""
    n = v.shape[-1] // 2
    return np.concatenate([v[..., n:], -v[..., :n]], axis=-1).conj()


def _refine(chi_t: np.ndarray, betas: Sequence[float], values: np.ndarray,
            pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values and pairs that ``_STEPS`` gradient steps reach from a stack
    of starts: the (k, 2, 2n) embedded ``pairs``, each with its chi(T) in
    ``chi_t``, its beta and its value.

    f = a^(1 - beta) b^beta - c, with a = ||Tx||, b = ||Ty|| and c =
    |<Tx, y>| as in ``_gcsi_parts``.  With w = psi(Tx), z = psi(Ty), p the
    complex part and q the j part of <Tx, y>, the real gradients are
    grad_x a = chi(T)^H w / a, grad_y b = chi(T)^H z / b,
    grad_x c = chi(T)^H (conj(p) psi(y) + q conj(J psi(y))) / c and
    grad_y c = (p w - q conj(J w)) / c, with J = [[0, I], [-I, 0]].  Both
    directions are projected onto the tangent spaces of the two spheres,
    every candidate of every start is scored in one stacked product, and a
    start moves to its least candidate only where that strictly lowers f; a
    start with a, b or c zero stays put.  Each start's arithmetic is its
    own, and each run of one beta shares one ``_gcsi_values`` call, so a
    stack gives the bits of its starts refined alone.
    """
    k, _, n2 = pairs.shape
    beta = np.array(betas)[:, None]
    runs, lo = [], 0
    for b, run in groupby(betas):
        count = len(list(run))
        runs.append((b, slice(lo, lo + count)))
        lo += count
    forward, back = chi_t.swapaxes(-1, -2), chi_t.conj()
    ladder = _RUNG ** np.arange(_RUNGS)
    angles = np.full(k, _ANGLE)
    values, pairs = values.copy(), pairs.copy()
    images = pairs @ forward
    parts = _gcsi_parts(images, pairs)
    rows = np.arange(k)
    for _ in range(_STEPS):
        a, b, c, p, q = parts
        live = (a > 0.0) & (b > 0.0) & (c > 0.0)
        a, b, c = (np.where(live, s, 1.0)[:, None] for s in (a, b, c))
        p, q, y, w, z = p[:, None], q[:, None], pairs[:, 1], images[:, 0], images[:, 1]
        g = values[:, None] + c
        h = np.stack([w, (p.conj() * y + q * _flip(y)) / c, z], axis=1) @ back
        grad_g = np.stack([(1.0 - beta) * g / (a * a) * h[:, 0], beta * g / (b * b) * h[:, 2]],
                          axis=1)
        grad_c = np.stack([h[:, 1], (p * w - q * _flip(w)) / c], axis=1)
        dirs = np.stack([grad_c - grad_g, grad_c], axis=1)
        real, at = dirs.view(np.float64), pairs.view(np.float64)[:, None]
        dirs -= (real * at).sum(axis=-1)[..., None] * pairs[:, None]
        size = np.sqrt((real * real).reshape(k, 2, -1).sum(axis=-1))
        steps = np.divide(angles[:, None], size, out=np.zeros_like(size), where=size > 0.0)
        steps = (steps[..., None] * ladder)[..., None, None]
        cands = pairs[:, None, None] + steps * dirs[:, :, None]
        cands = (cands / _norms(cands)[..., None]).reshape(k, -1, 2, n2)
        found = (cands.reshape(k, -1, n2) @ forward).reshape(cands.shape)
        scored = _gcsi_parts(found, cands)
        vals = np.concatenate([_gcsi_values(tuple(s[span] for s in scored[:3]), b)
                               for b, span in runs])
        best = vals.argmin(axis=1)
        lowered = vals[rows, best] < values
        angles = np.where(lowered, np.minimum(_ANGLE, angles * _RUNG ** (best % _RUNGS - 1.0)),
                          angles * _RUNG ** _RUNGS)
        take = (live & lowered).nonzero()[0]
        best = best[take]
        pairs[take], images[take] = cands[take, best], found[take, best]
        for old, new in zip((values, *parts), (vals, *scored)):
            old[take] = new[take, best]
    return values, pairs


def gcsi_margin(t: QMatrix, beta: float, *, budget: int = 1000, seed: int = 0,
                tol: float = DEFAULT_TOL) -> Margin:
    """Sampled margin of |<Tx, y>| <= (||Tx|| ||y||)^alpha (||Ty|| ||x||)^beta.

    Exponents satisfy alpha = 1 - beta with beta in (0, 1], and 0^0 counts
    as 1.  All ordered standard-basis pairs are scanned before the random
    unit pairs, so textbook violations at basis vectors surface with their
    exact witnesses.  The worst pair then gets ``_STEPS`` projected gradient
    steps on the unit spheres of x and y (``_refine``), each taken only where
    it strictly lowers the margin, so the result is never above the scan's.
    Vectors are scored on the complex side, as psi(x) against chi(T).  A
    negative margin certifies non-membership; a nonnegative one is evidence
    on the sampled budget.
    """
    _check_tol(tol)
    _check_gcsi_args(beta, budget)
    return _gcsi_search([(t, beta, seed, _gcsi_draw(t.rows, budget, seed))], tol=tol)[0]


def gcsi_sweep(t: QMatrix, *, budget: int = 1000, seed: int = 0,
               tol: float = DEFAULT_TOL) -> dict[float, Margin]:
    """Per-beta margins over ``SWEEP_BETAS``; membership is existential over beta.

    The matrix-vector work is shared across the grid: each sampled pair
    contributes three scalars (||Tx||, ||Ty||, |<Tx,y>|), evaluated once on
    the complex side as in ``gcsi_margin``.  There is no refinement.
    """
    _check_tol(tol)
    _check_count(budget, "budget")
    pairs = _gcsi_draw(t.rows, budget, seed)
    terms = _gcsi_terms(embed_chi(t), pairs)
    out: dict[float, Margin] = {}
    for beta in SWEEP_BETAS:
        best, pair = _worst_pair(terms, beta, pairs)
        out[beta] = _gcsi_result(beta, best, pair, budget=budget, seed=seed, tol=tol)
    return out


def _least_scaled(margins: Sequence[Margin]) -> Margin:
    """The margin with the least value / scale, the first one on ties."""
    return min(margins, key=lambda m: m.value / m.details["scale"])


def check_holder_mccarthy(t: QMatrix, x: QVector, rs: Sequence[float], *,
                          tol: float = DEFAULT_TOL) -> Margin:
    """Rayleigh-power inequality for a positive operator, worst over ``rs``.

    For r > 1 the margin is <T^r x, x> - <Tx, x>^r ||x||^{2(1-r)}; for
    0 < r < 1 the inequality reverses and the margin is negated to keep
    nonnegative-means-holds.  r = 1 is the degenerate identity.  T is
    diagonalized once for the whole sequence, and the margin returned is
    the exponent's with the least value / scale, where the scale is
    max(1, |lhs|, |rhs|); ``details["r"]`` names it.
    """
    _check_tol(tol)
    return _sole(_holder_mccarthy_cases([(t, x, rs)], tol))


def _holder_mccarthy_args(x: QVector, rs: Sequence[float]) -> None:
    if not rs:
        raise DomainError("at least one exponent is needed")
    for r in rs:
        if r <= 0.0 or r == 1.0:
            raise DomainError(f"exponent must be positive and not 1, got {r}")
    if x.norm() == 0.0:
        raise DomainError("zero vector not allowed")


def _holder_mccarthy_cases(cases: Sequence[tuple[QMatrix, QVector, Sequence[float]]],
                           tol: float) -> list[Margin | QopError]:
    """``check_holder_mccarthy`` of each (T, x, rs) case, or its error.  The
    cases, of one size and grid length, are solved in one eigensolver call
    and their powers pulled back in one product.  Each check runs row by row
    in a lone case's order: the arguments, T self-adjoint, the clamp, then
    the forms; a lone case weighs all its exponents before its first form."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _holder_mccarthy_args(*cases[i][1:]))
    rows, = _sift(out, rows, lambda i: _require_selfadjoint(cases[i][0]))
    if not rows:
        return out
    _, w, v = _spectra(*_stack_pairs([cases[i][0] for i in rows]))
    kept, w, v = _sift(out, rows, _clamp_errors(w), w, v)
    if not kept:
        return out
    bases = [inner(cases[i][0] @ cases[i][1], cases[i][1]) for i in kept]
    powers = dict(zip(kept, zip(bases, *_psd_powers(w, v, [cases[i][2] for i in kept]))))

    def forms(i: int) -> None:
        (_, x, rs), (base, ra, rb), nx = cases[i], powers[i], cases[i][1].norm()
        margins = []
        for r, a, b in zip(rs, ra, rb):
            # T^r x on a copy of the slice: a matrix-vector product on a
            # slice of a stack need not be the one on a whole matrix bit for bit
            lhs = inner(_trusted(QVector, *_product(a.copy(), b.copy(), x._a, x._b)), x)
            imag = max(abs(lhs.x), abs(lhs.y), abs(lhs.z),
                       abs(base.x), abs(base.y), abs(base.z))
            if imag > 1e-8 * max(1.0, abs(lhs.w), abs(base.w)):
                raise PreconditionError(f"quadratic form is not real (imaginary size "
                                        f"{imag:.3e}); operator not positive?")
            rhs = max(base.w, 0.0) ** r * nx ** (2.0 * (1.0 - r))
            value = lhs.w - rhs if r > 1.0 else rhs - lhs.w
            scale = max(1.0, abs(lhs.w), abs(rhs))
            margins.append(_margin(value, tol, scale,
                                   lambda: {"r": r, "x": matio.vector_to_json(x)},
                                   r=r, lhs=lhs.w, rhs=rhs))
        out[i] = _least_scaled(margins)

    _sift(out, kept, forms)
    return out


def _ordered_systems(cases: Sequence[tuple], rows: list[int], tol: float, out: list
                     ) -> tuple[list[int], Sequence, Sequence]:
    """The rows of ``cases`` whose pair (S, T) = case[:2] has S >= T >= 0,
    with ``_eigensystems`` of their Ss and the spectra and eigenvectors of
    their Ts; the error of each other row is put in ``out``.

    Each hypothesis is decided for the batch at once, in the order that
    ``is_psd(S - T)``, ``eigh_q(T)``, ``is_psd(T)`` meet them: S - T
    self-adjoint, from one stacked subtraction; ordered, from the ends of one
    eigenvalue call; T self-adjoint; then, from the ends of one eigensolver
    call that also serves the caller, T >= 0 and the clamp of its powers.
    The Ss are solved last, through their Hermitian parts, and their clamp
    checked.  Only a failing row gets an error, worded as its lone call's.
    """
    for i in rows:
        cases[i][0]._check_same(cases[i][1])
    if not rows:
        return rows, (), ()
    sa, sb = _stack_pairs([cases[i][0] for i in rows])
    ta, tb = _stack_pairs([cases[i][1] for i in rows])
    da, db = _checked((sa - ta, sb - tb))
    rows, ta, tb, da, db = _sift(out, rows, _selfadjoint_errors(da, db), ta, tb, da, db)
    if rows:
        w = _pair_eigvalsh(da, db)
        rows, ta, tb = _sift(out, rows, _psd_errors(w, tol, "operators are not ordered"), ta, tb)
    rows, ta, tb = _sift(out, rows, _selfadjoint_errors(ta, tb), ta, tb)
    if not rows:
        return rows, (), ()
    _, wt, vt = _spectra(ta, tb)
    rows, wt, vt = _sift(out, rows, _psd_errors(wt, tol, "lower operator is not positive"), wt, vt)
    rows, wt, vt = _sift(out, rows, _clamp_errors(wt), wt, vt)
    if not rows:
        return rows, (), ()
    ssys, ws, vs = _eigensystems(*_stack_pairs([cases[i][0] for i in rows]))
    rows, *solved = _sift(out, rows, _clamp_errors(ws), ssys, ws, vs, wt, vt)
    return rows, solved[:3], solved[3:]


def check_lowner_heinz(s: QMatrix, t: QMatrix, rs: Sequence[float], *,
                       tol: float = DEFAULT_TOL, probe: bool = False) -> Margin:
    """Margin of S^r >= T^r given S >= T >= 0, worst over ``rs``.

    The monotonicity theorem covers r in [0, 1]; exponents outside that
    band are admitted only with ``probe=True``, where a negative margin is
    expected behavior rather than a bug.  The order S >= T >= 0 is checked
    once per call and each operator is diagonalized once for the whole
    sequence.  The margin returned is the exponent's with the least
    value / scale; ``details["r"]`` names it.
    """
    _check_tol(tol)
    return _sole(_lowner_heinz_cases([(s, t, rs, probe)], tol))


def _lowner_heinz_exponents(rs: Sequence[float], probe: bool) -> None:
    if not rs:
        raise DomainError("at least one exponent is needed")
    for r in rs:
        if r < 0.0:
            raise DomainError(f"exponent must be nonnegative, got {r}")
        if r > 1.0 and not probe:
            raise DomainError(f"exponent {r} outside [0, 1] requires probe mode")


def _lowner_heinz_cases(cases: Sequence[tuple[QMatrix, QMatrix, Sequence[float], bool]],
                        tol: float) -> list[Margin | QopError]:
    """``check_lowner_heinz`` of each (S, T, rs, probe) case, or its error:
    the exponents, then ``_ordered_systems``, row by row.  Each run of
    consecutive cases with one size and grid length is ordered as one
    batch, its powers are pulled back in one product per operator role, and
    every S^r - T^r is solved in one eigenvalue call.  With the exponents'
    signs and both clamps checked, every S^r is weighed before any T^r:
    S >= T meets a non-finite exponent or weight in S^r first."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _lowner_heinz_exponents(*cases[i][2:]))
    for _, run in groupby(rows, lambda i: (cases[i][0].shape, len(cases[i][2]))):
        run, ss, ts = _ordered_systems(cases, list(run), tol, out)
        if not run:
            continue
        (ssys, ws, vs), (wt, vt) = ss, ts
        exps = [cases[i][2] for i in run]
        sa, sb = _psd_powers(ws, vs, exps)
        ta, tb = _psd_powers(wt, vt, exps)
        da, db = sa - ta, sb - tb
        del sa, sb, ta, tb  # before the solve, the largest step
        _require_finite(da, db, "QMatrix")
        values = _pair_eigvalsh(da, db)[..., 0].tolist()
        for i, system, vals in zip(run, ssys, values):
            _, _, rs, probe = cases[i]
            top = max(system.eigenvalues[-1], 0.0)
            out[i] = _least_scaled([
                _margin(value, tol, max(1.0, top ** r), lambda: {"r": r, "probe": probe}, r=r)
                for r, value in zip(rs, vals)])
    return out


def check_furuta(a: QMatrix, b: QMatrix, p: float, q: float, r: float, *,
                 tol: float = DEFAULT_TOL, probe: bool = False) -> tuple[Margin, Margin]:
    """Margins of the two bracket inequalities for an ordered pair.

    Under A >= B >= 0 and (1 + 2r) q >= p + 2r with p >= 0, q >= 1, r >= 0:
    (B^r A^p B^r)^{1/q} >= B^{(p+2r)/q} and A^{(p+2r)/q} >= (A^r B^p A^r)^{1/q}.
    Exponent triples violating the constraint are admitted only in probe
    mode, for exploring how the margins degrade.
    """
    _check_tol(tol)
    return _sole(_furuta_cases([(a, b, p, q, r, probe)], tol))


def _furuta_exponents(p: float, q: float, r: float, probe: bool) -> None:
    if p < 0.0 or q < 1.0 or r < 0.0:
        raise DomainError(f"need p >= 0, q >= 1, r >= 0, got p={p} q={q} r={r}")
    if (1.0 + 2.0 * r) * q < p + 2.0 * r and not probe:
        raise PreconditionError(f"(1+2r)q >= p+2r fails: {(1 + 2 * r) * q:.4g} < {p + 2 * r:.4g}")


def _furuta_cases(cases: Sequence[tuple], tol: float) -> list[tuple[Margin, Margin] | QopError]:
    """``check_furuta`` of each (A, B, p, q, r, probe) case, or its error:
    the exponents, then ``_ordered_systems``, row by row.  The cases, of one
    size, are ordered as one batch, the brackets of every case are solved in
    one eigensolver call and the differences in one eigenvalue call.  The
    exponents differ from case to case, so each power is weighed case by case."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _furuta_exponents(*cases[i][2:]))
    rows, ss, ts = _ordered_systems(cases, rows, tol, out)
    if not rows:
        return out
    (asys, wa, va), (wb, vb) = ss, ts
    run = [cases[i] for i in rows]
    values = _pair_eigvalsh(*_furuta_differences(run, wa, va, wb, vb))[:, 0].tolist()
    k = len(run)
    for j, (i, system, (_, _, p, q, r, probe)) in enumerate(zip(rows, asys, run)):
        scale = max(1.0, max(system.eigenvalues[-1], 0.0) ** ((p + 2.0 * r) / q))
        witness = lambda: {"p": p, "q": q, "r": r, "probe": probe}
        out[i] = (_margin(values[j], tol, scale, witness, p=p, q=q, r=r),
                  _margin(values[k + j], tol, scale, witness, p=p, q=q, r=r))
    return out


def _furuta_differences(cases: Sequence[tuple], wa: np.ndarray, va: np.ndarray,
                        wb: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B^r A^p B^r)^{1/q} - B^e of each case, then A^e -
    (A^r B^p A^r)^{1/q} of each, e = (p + 2r) / q, as one (2k, n, n) pair
    stack, from the spectra and eigenvectors of the As and the Bs."""
    ba, bb = _psd_powers(wb, vb, [(r, p) for _, _, p, _, r, _ in cases])
    aa, ab = _psd_powers(wa, va, [(p, r) for _, _, p, _, r, _ in cases])
    # the outer halves B^r, A^r and the middles A^p, B^p of both brackets
    ha, hb = np.concatenate([ba[:, 0], aa[:, 1]]), np.concatenate([bb[:, 0], ab[:, 1]])
    xa, xb = _product(ha, hb, np.concatenate([aa[:, 0], ba[:, 1]]),
                      np.concatenate([ab[:, 0], bb[:, 1]]))
    _require_finite(xa, xb, "QMatrix")
    xa, xb = _product(xa, xb, ha, hb)
    _require_finite(xa, xb, "QMatrix")
    del ba, bb, aa, ab, ha, hb  # before the brackets are solved
    _, wx, vx = _spectra(xa, xb)
    la, lb = _psd_powers(wx, vx, [(1.0 / c[3],) for c in cases] * 2)
    expos = [((p + 2.0 * r) / q,) for _, _, p, q, r, _ in cases]
    ba, bb = _psd_powers(wb, vb, expos)
    aa, ab = _psd_powers(wa, va, expos)
    k = len(cases)
    da = np.concatenate([la[:k, 0] - ba[:, 0], aa[:, 0] - la[k:, 0]])
    db = np.concatenate([lb[:k, 0] - bb[:, 0], ab[:, 0] - lb[k:, 0]])
    _require_finite(da, db, "QMatrix")
    return da, db


def check_chain_semihypo(t: QMatrix, *, tol: float = DEFAULT_TOL,
                         enforce: bool = True) -> tuple[Margin, Margin]:
    """Margins of the sandwich U* |T| U >= |T| >= U |T| U*.

    The sandwich is the workhorse step for semi-hyponormal operators, so
    by default the input must pass the semi-hyponormality margin; probes on
    nearby non-members set ``enforce=False`` and read the degradation.
    """
    _check_tol(tol)
    return _sole(_chain_cases([(t, enforce)], tol))


def _chain_cases(cases: Sequence[tuple[QMatrix, bool]],
                 tol: float) -> list[tuple[Margin, Margin] | QopError]:
    """``check_chain_semihypo`` of each (T, enforce) case, or its error: the
    operators are factored in one SVD, the enforced hypotheses solved in
    one eigenvalue call and both sandwiches of every case that meets its
    hypothesis in another."""
    out: list = [None] * len(cases)
    parts = _polars([t for t, _ in cases])
    enforced = [i for i, (_, enforce) in enumerate(cases) if enforce]
    semis = dict(zip(enforced, _p_hyponormal_grid([parts[i] for i in enforced],
                                                  [(0.5,)] * len(enforced), tol)))
    rows, = _sift(out, range(len(cases)), lambda i: PreconditionError(
        f"operator is not semi-hyponormal (margin {semis[i][0].value:.3e})")
        if i in semis and semis[i][0].violated else None)
    if not rows:
        return out
    ha, hb = _abs_powers([parts[i] for i in rows], [(1.0,)] * len(rows))
    ua, ub = _stack_pairs([parts[i].u for i in rows])
    uh = _adjoints(ua, ub)
    # U* |T| U - |T|, then |T| - U |T| U*, each product checked as it is made
    xa, xb = _checked(_product(*_checked(_product(*uh, ha, hb)), ua, ub))
    upper = _checked((xa - ha, xb - hb))
    xa, xb = _checked(_product(*_checked(_product(ua, ub, ha, hb)), *uh))
    lower = _checked((ha - xa, hb - xb))
    k = len(rows)
    m = _pair_eigvalsh(*map(np.concatenate, zip(upper, lower)))[:, 0].tolist()
    for j, i in enumerate(rows):
        scale = max(1.0, max(parts[i].sigmas))
        witness = lambda: {"enforced": cases[i][1]}
        out[i] = (_margin(m[j], tol, scale, witness), _margin(m[k + j], tol, scale, witness))
    return out


@dataclass(frozen=True)
class AluthgeReport:
    """Margins for the transform theorems at one exponent, and the transform.

    ``monotone`` and the two double-transform readings are computed on
    first read and cached, from the polar parts the call already made; the
    first read of a reading computes it for every report of the call.
    """

    p: float
    transform: QMatrix
    transform_margin: Margin
    _monotone: Callable[[], tuple[tuple[float, Margin], ...]] = field(repr=False, compare=False)
    _double: Callable[[], Margin] = field(repr=False, compare=False)

    @cached_property
    def monotone(self) -> tuple[tuple[float, Margin], ...]:
        return self._monotone()

    @cached_property
    def double_reading_a(self) -> Margin | None:
        return self.double_reading_b if self.p >= 0.5 else None

    @cached_property
    def double_reading_b(self) -> Margin:
        return self._double()


def check_aluthge_theorems(t: QMatrix, p: float, *, tol: float = DEFAULT_TOL,
                           enforce: bool = True) -> AluthgeReport:
    """Transform margins for a p-hyponormal operator.

    For p in [1/2, 1] the transform must be hyponormal; for p in (0, 1/2)
    it must be (p + 1/2)-hyponormal.  The monotone ladder re-tests
    q-hyponormality for a descending grid q <= p.  The double-transform
    statement is checked twice because its hypothesis is ambiguous:
    reading A applies it only for p >= 1/2, reading B tracks the same
    margin for every p; both are reported, with the same pass criterion.
    The report carries the transform T~ itself as ``transform``.  The
    ladder and the double transform are computed when first read.
    """
    _check_tol(tol)
    return _sole(_aluthge_cases([(t, p, enforce)], tol))


def _aluthge_cases(cases: Sequence[tuple[QMatrix, float, bool]],
                   tol: float) -> list[AluthgeReport | QopError]:
    """``check_aluthge_theorems`` of each (T, p, enforce) case, or its error:
    the exponent, then the enforced hypothesis, row by row.  T and T~ are
    factored in one SVD each, and the enforced hypotheses and the transform
    margins solved in one eigenvalue call each.  The first read of any
    report's ladder solves every ladder, and that of a double reading
    factors every T~~ and solves its margins, in one call each."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _check_exponent(cases[i][1]))
    parts = dict(zip(rows, _polars([cases[i][0] for i in rows]) if rows else ()))
    enforced = [i for i in rows if cases[i][2]]
    bases = dict(zip(enforced, _p_hyponormal_grid([parts[i] for i in enforced],
                                                  [(cases[i][1],) for i in enforced], tol)))
    rows, = _sift(out, rows, lambda i: PreconditionError(
        f"operator is not {cases[i][1]}-hyponormal (margin {bases[i][0].value:.3e})")
        if i in bases and bases[i][0].violated else None)
    if not rows:
        return out
    ps = [cases[i][1] for i in rows]
    tts = _aluthge_transforms([parts[i] for i in rows])
    tt_parts = _polars(tts)
    targets = [(1.0 if p >= 0.5 else p + 0.5,) for p in ps]
    grids = [tuple(q for q in (p, 0.75 * p, 0.5 * p, 0.25 * p) if q > 1e-9) for p in ps]
    ladders = cache(lambda: [tuple(zip(grid, margins)) for grid, margins in zip(
        grids, _p_hyponormal_grid([parts[i] for i in rows], grids, tol))])
    doubles = cache(lambda: _p_hyponormal_grid(_polars(_aluthge_transforms(tt_parts)),
                                               [(1.0,)] * len(rows), tol))
    for j, (i, p, tt, (margin,)) in enumerate(
            zip(rows, ps, tts, _p_hyponormal_grid(tt_parts, targets, tol))):
        out[i] = AluthgeReport(p=p, transform=tt, transform_margin=margin,
                               _monotone=lambda j=j: ladders()[j],
                               _double=lambda j=j: doubles()[j][0])
    return out


def check_eigenspace_reducing(t: QMatrix, q: Quaternion, *,
                              tol: float = DEFAULT_TOL) -> Margin:
    """Reducing-subspace margin for the unitary polar factor's eigensphere.

    The polar isometry is completed to a unitary U, the kernel of the
    sphere polynomial of U at q is extracted, and the margin is
    -max(||(I-P)TP||, ||(I-P)T*P||) for P the projector onto that kernel.
    Zero margin means the subspace reduces T.
    """
    _check_tol(tol)
    return _sole(_eigenspace_cases([(t, q)], tol))


def _eigenspace_cases(cases: Sequence[tuple[QMatrix, Quaternion]],
                      tol: float) -> list[Margin | QopError]:
    """``check_eigenspace_reducing`` of each (T, q) case, or its error: the
    quaternion, then its eigensphere's kernel, row by row.  The operators
    are factored in one SVD, the sphere polynomials' kernels found in one
    SVD, and the norms of the two off-diagonal blocks and of T solved in one
    eigenvalue call."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: None if abs(cases[i][1].norm() - 1.0) <= 1e-6
                  else DomainError(f"unit quaternion expected, |q| = {cases[i][1].norm():.6f}"))
    if not rows:
        return out
    ua, ub = _stack_pairs([unitary_completion(pp) for pp in _polars([cases[i][0] for i in rows])])
    reps = {i: cases[i][1].similarity_representative() for i in rows}
    spheres = [Quaternion(reps[i].real, reps[i].imag, 0.0, 0.0) for i in rows]
    kernels = dict(zip(rows, _kernel_bases(*_delta_qs(ua, ub, spheres), EIGENSPACE_RTOL)))
    rows, = _sift(out, rows, lambda i: None if len(kernels[i][0]) else DomainError(
        f"{reps[i]} is not a right eigenvalue of the polar unitary"))
    if not rows:
        return out
    dims = [len(kernels[i][0]) for i in rows]
    # the projector onto each kernel, its outer products z z* summed from
    # zero in basis order, the cases of one kernel dimension together; I - P
    k, n = len(rows), ua.shape[1]
    pa, pb = np.zeros((2, k, n, n), dtype=np.complex128)
    for dim in set(dims):
        sub = [j for j, d in enumerate(dims) if d == dim]
        za, zb = (np.stack([kernels[rows[j]][f] for j in sub]) for f in (0, 1))
        oa, ob = _checked(_outers(za, zb, za, zb))
        sum_a, sum_b = pa[sub], pb[sub]
        for j in range(dim):
            sum_a, sum_b = _checked((sum_a + oa[:, j], sum_b + ob[:, j]))
        pa[sub], pb[sub] = sum_a, sum_b
    ca, cb = _checked((_identities(k, n) - pa, np.zeros_like(pb) - pb))
    ta, tb = _stack_pairs([cases[i][0] for i in rows])
    blocks = []
    for ma, mb in ((ta, tb), _adjoints(ta, tb)):
        blocks.append(_checked(_product(*_checked(_product(ca, cb, ma, mb)), pa, pb)))
    blocks.append((ta, tb))
    norms = _operator_norms(*map(np.concatenate, zip(*blocks))).tolist()
    for j, (i, dim) in enumerate(zip(rows, dims)):
        witness = lambda: {"q": matio.quaternion_to_json(cases[i][1]), "kernel_dim": dim}
        out[i] = _margin(-max(norms[j], norms[k + j]), tol, max(1.0, norms[2 * k + j]),
                         witness, kernel_dim=dim)
    return out


def invert(t: QMatrix) -> QMatrix:
    """Inverse V S^{-1} W* through the complex embedding, top block row only.

    T counts as singular when sigma_min <= INVERT_RTOL * sigma_max.
    """
    w, sing, vh = _eig.svd(embed_chi(t))
    if sing[-1] <= INVERT_RTOL * sing[0]:
        ratio = sing[-1] / sing[0] if sing[0] > 0.0 else 0.0
        raise DomainError(f"operator is singular (sigma_min/sigma_max = {ratio:.3e})")
    return _from_chi_top((vh[:, :t.rows].conj().T / sing) @ w.conj().T)


@dataclass(frozen=True)
class ClosureReport:
    """Before/after margins for one closure operation."""

    which: str
    base: Margin
    transformed: Margin


def check_gcsi_closure(t: QMatrix, which: str, *, beta: float = 0.5,
                       budget: int = 400, seed: int = 0, tol: float = DEFAULT_TOL,
                       scalar: float = 2.0, unitary: QMatrix | None = None,
                       projector: QMatrix | None = None) -> ClosureReport:
    """Re-test the sampled inequality after a class-preserving operation.

    ``which`` picks the operation: "scalar" (real multiple), "inverse",
    "unitary-equiv" (conjugation by a supplied unitary), or "compression"
    (P T P for a supplied projector onto an invariant subspace).  The
    transformed operator is tested with the same beta, budget, and seed,
    so the pairs are drawn once and both margins are those of
    ``gcsi_margin``: two scans, then one stacked gradient refinement of both
    worst pairs.  Argument errors are
    raised before the draw, then the base operator's precondition, then an
    error building the transformed operator (a singular T, or a subspace
    that is not invariant).
    """
    _check_tol(tol)
    return _sole(_gcsi_closures([(t, which, seed, scalar, unitary, projector)],
                                beta=beta, budget=budget, tol=tol)[0])


def _closure_args(which: str, unitary: QMatrix | None, projector: QMatrix | None) -> None:
    if which not in ("scalar", "inverse", "unitary-equiv", "compression"):
        raise DomainError(f"unknown closure operation {which!r}")
    if which == "unitary-equiv" and unitary is None:
        raise DomainError("unitary-equiv closure needs a unitary")
    if which == "compression" and projector is None:
        raise DomainError("compression closure needs a projector onto an invariant subspace")


def _gcsi_closures(cases: Sequence[tuple], *, beta: float, budget: int,
                   tol: float) -> tuple[list[ClosureReport | QopError], list[float]]:
    """``check_gcsi_closure`` of each case, or its error, with each ||T|| for
    a caller's scale; every search in one ``_gcsi_search``.

    A case is (T, which, seed, scalar, unitary, projector), with None for an
    operand its operation does not read.  Each case meets its errors in
    ``check_gcsi_closure``'s order: its arguments, before any draw; the base
    precondition; then building the transformed operator.  Every ||T|| and
    every compression's ||(I - P) T P|| come from one eigenvalue solve.
    """
    _check_gcsi_args(beta, budget)
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)),
                  lambda i: _closure_args(cases[i][1], *cases[i][4:]))
    ops = [case[0] for case in cases]

    def squeeze(i: int) -> None:
        t, projector = cases[i][0], cases[i][5]
        ops.append((QMatrix.identity(t.rows) - projector) @ t @ projector)

    # each compression's (I - P) T P joins the norm solve of the Ts; an
    # operand's error waits in out for the base precondition, which comes first
    squeezed, = _sift(out, [i for i in rows if cases[i][1] == "compression"], squeeze)
    norms = _operator_norms(*_stack_pairs(ops)).tolist()
    residuals = dict(zip(squeezed, norms[len(cases):]))
    transformed: dict[int, QMatrix] = {}

    def operand(i: int) -> None:
        t, which, _, scalar, unitary, projector = cases[i]
        if which == "scalar":
            transformed[i] = t * scalar
        elif which == "inverse":
            transformed[i] = invert(t)
        elif which == "unitary-equiv":
            transformed[i] = unitary.H @ t @ unitary
        elif residuals[i] > tol * max(1.0, norms[i]):
            raise PreconditionError(f"subspace is not invariant (residual {residuals[i]:.3e})")
        else:
            transformed[i] = projector @ t @ projector

    _sift(out, [i for i in rows if out[i] is None], operand)

    def searches() -> Iterator[Search]:
        for i in rows:
            draw = _gcsi_draw(cases[i][0].rows, budget, cases[i][2])
            yield cases[i][0], beta, cases[i][2], draw
            if i in transformed:
                yield transformed[i], beta, cases[i][2], draw
            del draw  # before the next case draws

    margins = iter(_gcsi_search(searches(), tol=tol))
    for i in rows:
        base, after = next(margins), next(margins) if i in transformed else None
        if base.value < -tol:
            out[i] = PreconditionError(
                f"base operator already violates the inequality (margin {base.value:.3e})")
        elif out[i] is None:
            out[i] = ClosureReport(which=cases[i][1], base=base, transformed=after)
    return out, norms[:len(cases)]


@dataclass(frozen=True)
class KernelReport:
    """Kernel containment and idempotence facts for one operator."""

    dim_ker: int
    dim_ker_star: int
    dim_ker_sq: int
    subset_residual: float
    equality_residual: float
    threshold: float
    passes: bool


def check_kernel_reduction(t: QMatrix, *, tol: float = DEFAULT_TOL) -> KernelReport:
    """Test ker T inside ker T* and ker T = ker T^2.

    Membership in the sampled inequality class forces both; the report is
    also useful in falsification mode, where a failure is consistent with
    a non-member.  Residuals are worst-case norms of T* (resp. T) on the
    computed kernel bases.
    """
    _check_tol(tol)
    return _kernel_reductions([t], tol)[0][0]


def _kernel_reductions(ts: Sequence[QMatrix],
                       tol: float) -> tuple[list[KernelReport], list[float]]:
    """``check_kernel_reduction`` of each operator of one shape, with ||T|| of
    each for a caller's scale: the kernels of T, T* and T^2 of all of them
    from one SVD, the residuals from one stacked product per kind, and ||T||
    from one eigenvalue solve."""
    for t in ts:
        _require_square(t)
    a, b = _stack_pairs(ts)
    ha, hb = _adjoints(a, b)
    sa, sb = _checked(_product(a, b, a, b))
    k = len(ts)
    bases = _kernel_bases(np.concatenate([a, ha, sa]), np.concatenate([b, hb, sb]), 1e-8)
    kers, ker_stars, ker_sqs = bases[:k], bases[k:2 * k], bases[2 * k:]
    subsets = _image_norms(a, b, kers, adjoint=True)
    equalities = _image_norms(a, b, ker_sqs, adjoint=False)
    norms = _operator_norms(a, b).tolist()
    out = []
    for (ker, _), (ker_star, _), (ker_sq, _), subset, equality, opn in zip(
            kers, ker_stars, ker_sqs, subsets, equalities, norms):
        thr = tol * max(1.0, opn)
        out.append(KernelReport(
            dim_ker=len(ker),
            dim_ker_star=len(ker_star),
            dim_ker_sq=len(ker_sq),
            subset_residual=subset,
            equality_residual=equality,
            threshold=thr,
            passes=subset <= thr and len(ker) == len(ker_sq) and equality <= thr,
        ))
    return out, norms


def _image_norms(a: np.ndarray, b: np.ndarray, bases: Sequence[tuple[np.ndarray, np.ndarray]],
                 *, adjoint: bool) -> list[float]:
    """max ||M_i x|| over the vectors x of the (d, n) pair stacks ``bases[i]``,
    0 for an empty basis, where M_i is T_i of the (k, n, n) pair stacks
    (A, B), or T_i* when ``adjoint``.  The cases of one basis size make one
    stacked matrix-vector product; indexing keeps each operator's layout, on
    which the bits of a matrix-vector product depend."""
    sizes: dict[int, list[int]] = {}
    for i, (basis, _) in enumerate(bases):
        if len(basis):
            sizes.setdefault(len(basis), []).append(i)
    out = [0.0] * len(bases)
    for idx in sizes.values():
        ma, mb = a[idx], b[idx]
        if adjoint:
            ma, mb = _adjoints(ma, mb)
        xa, xb = (np.stack([bases[i][f] for i in idx])[..., None] for f in (0, 1))
        ya, yb = _checked(_product(ma[:, None], mb[:, None], xa, xb))
        norms = _vector_norms(ya.reshape(-1, a.shape[-1]), yb.reshape(-1, a.shape[-1]))
        for i, row in zip(idx, norms.reshape(len(idx), -1).tolist()):
            out[i] = max(row)
    return out


def check_tu_star(t: QMatrix, x: QVector, *, tol: float = DEFAULT_TOL) -> Margin:
    """Margin of ||T U* x||^2 <= ||T^2 U* x|| ||U* x|| at one vector."""
    _check_tol(tol)
    return _tu_star_cases([(t, x)], tol)[0]


def _tu_star_cases(cases: Sequence[tuple[QMatrix, QVector]], tol: float) -> list[Margin]:
    """``check_tu_star`` of each (T, x) case of one shape: the operators are
    factored in one SVD, each vector product is one stacked
    product, and ||T|| comes from one eigenvalue solve."""
    parts = _polars([t for t, _ in cases])
    for (_, x), pp in zip(cases, parts):
        if x.n != pp.u.cols:
            raise ShapeError(f"cannot apply {pp.u.shape} to H^{x.n}")
    ua, ub = _stack_pairs([pp.u for pp in parts])
    xa, xb = _stack_pairs([x for _, x in cases])
    ta, tb = _stack_pairs([t for t, _ in cases])
    # U* x, T U* x and T^2 U* x, each in the layout of its lone product
    y = _checked(_product(*_adjoints(ua, ub), xa[..., None], xb[..., None]))
    ty = _checked(_product(ta, tb, *y))
    t2y = _checked(_product(ta, tb, *ty))
    ny, nty, nt2y = (_vector_norms(va[..., 0], vb[..., 0]).tolist() for va, vb in (y, ty, t2y))
    out = []
    for (_, x), a, b, c, opn in zip(cases, ny, nty, nt2y, _operator_norms(ta, tb).tolist()):
        out.append(_margin(c * a - b ** 2, tol, max(1.0, opn ** 2),
                           lambda: {"x": matio.vector_to_json(x)}))
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    """Three-way class consistency at one operator.

    ``paranormal`` and ``flagged``, which reads it, are computed on first
    read and cached.  The paranormality test is exact, and in finite
    dimension paranormal means normal, so ``flagged`` fires whenever the
    sampled inequality finds no witness at a non-normal operator.
    """

    p: float
    p_hyponormal: Margin
    gcsi: Margin
    hard_violation: bool
    _paranormal: Callable[[], Margin] = field(repr=False, compare=False)

    @cached_property
    def paranormal(self) -> Margin:
        return self._paranormal()

    @cached_property
    def flagged(self) -> bool:
        return (not self.gcsi.violated) and self.paranormal.violated


def check_gcsi_implies(t: QMatrix, p: float = 0.5, *, budget: int = 400,
                       seed: int = 0, tol: float = DEFAULT_TOL) -> ConsistencyReport:
    """Consistency of the implication chain at one operator.

    A p-hyponormal operator satisfies the sampled inequality with beta = p,
    and members of that class are paranormal.  The inequality's margin is
    ``gcsi_margin``'s at beta = p: the sampled pairs' worst one, refined by
    projected gradient steps.  ``hard_violation`` means the
    p-hyponormal margin passed while a certified inequality witness exists,
    which contradicts the implication outright.  ``flagged`` marks the
    softer inconsistency: sampling found no inequality witness, yet the
    exact ``is_paranormal`` failed with a certificate, so the sampled
    evidence missed something.  The paranormality test runs when
    ``paranormal`` or ``flagged`` is first read.  Every argument is checked
    before any solve.
    """
    _check_tol(tol)
    return _gcsi_implications([(t, p, seed)], budget=budget, tol=tol)[0]


def _gcsi_implications(cases: Sequence[tuple[QMatrix, float, int]], *, budget: int,
                       tol: float) -> list[ConsistencyReport]:
    """``check_gcsi_implies`` of each (T, p, seed) case, every search in one ``_gcsi_search``."""
    for _, p, _ in cases:
        _check_exponent(p)
    _check_count(budget, "budget")
    hyps = [m for (m,) in _p_hyponormal_grid(_polars([t for t, _, _ in cases]),
                                              [(p,) for _, p, _ in cases], tol)]
    gcsis = _gcsi_search(((t, p, seed, _gcsi_draw(t.rows, budget, seed))
                          for t, p, seed in cases), tol=tol)
    return [ConsistencyReport(
        p=p,
        p_hyponormal=hyp,
        gcsi=gcsi,
        hard_violation=not hyp.violated and gcsi.violated,
        _paranormal=partial(is_paranormal, t, tol=tol),
    ) for (t, p, seed), hyp, gcsi in zip(cases, hyps, gcsis)]
