"""Operator-class predicates and margin-valued theorem oracles.

Every check reports a signed margin: nonnegative means the asserted
inequality held at the evaluated instance, negative quantifies the
violation.  Margins are raw (in the units of the quantity compared);
callers normalize by an operator scale when they need dimensionless
numbers.

Operator-order conditions (PSD margins) and paranormality, decided on a
quadratic eigenvalue pencil, are certified both ways up to eigensolver
tolerance.  The generalized Cauchy-Schwarz family, quantified over all
pairs of vectors, is scored on a fixed set of pairs that holds a witness
whenever any pair is one, which is exactly when the operator is not
normal; its margin is the least over that set, not over all pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import groupby
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import _eig, matio
from .errors import DomainError, PreconditionError, QopError, ShapeError
from .linalg import (QMatrix, QVector, _adjoints, _check_tol, _checked, _from_chi_top,
                     _from_psi, _gram_norms, _identities, _operator_norms, _outers,
                     _pair_eigvalsh, _product, _selfadjoint_residual, _stack_pairs, _trusted,
                     _vector_norms, embed_chi, inner)
from .quaternion import Quaternion
from .spectral import (EIGENSPACE_RTOL, KERNEL_RTOL, _clamp_errors, _delta_qs, _kernel_bases,
                       _null_bases, _null_basis, _psd_errors, _psd_powers, _require_selfadjoint,
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
    kept = [j for j, err in enumerate(errs) if err is None]
    if len(kept) == len(rows):
        return rows, *stacks
    for i, err in zip(rows, errs):
        if err is not None:
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

    Each residual, a Frobenius norm of the defining defect, has a bound of
    its degree in T: ||T - T*||_F <= tol * max(1, ||T||_F), as ``eigh_q``
    checks; positive is self-adjoint with ``is_psd``'s rule on the extreme
    eigenvalues m <= M, m >= -tol * max(1, -m, M); ||T*T - TT*||_F and
    ||T*T - I||_F <= ``threshold`` = tol * max(1, ||T||)^2.
    """
    _check_tol(tol)
    n = _require_square(t)
    gram = t.H @ t
    thr = tol * max(1.0, float(_gram_norms(gram._a[None], gram._b[None])[0])) ** 2
    sa_res = _selfadjoint_residual(t._a, t._b)
    selfadjoint = sa_res <= tol * max(1.0, t.frobenius())
    co = t @ t.H
    normal_res = (gram - co).frobenius()
    unitary_res = (gram - QMatrix.identity(n)).frobenius()
    pos_margin: float | None = None
    positive = False
    if selfadjoint:
        w = _pair_eigvalsh(t._a[None], t._b[None])
        pos_margin = float(w[0, 0])
        positive = _psd_errors(w, tol, "not positive")[0] is None
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


def _check_exponent(value: float, what: str) -> None:
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{what} must lie in (0, 1], got {value}")


def is_p_hyponormal(t: QMatrix, p: float, *, tol: float = DEFAULT_TOL) -> Margin:
    """Margin of (T*T)^p - (TT*)^p against the operator order.

    p = 1 is the hyponormal case and p = 1/2 the semi-hyponormal one.  The
    witness, present when the margin is materially negative, is a unit
    vector achieving the minimal quadratic form: the bottom eigenvector of
    the difference, pulled back as ``kernel_basis`` pulls back a null
    vector, with its largest entry real and positive.  When that eigenvalue
    is simple, every correct eigensolver gives the same witness.
    """
    _check_tol(tol)
    _check_exponent(p, "exponent")
    return _p_hyponormal_grid([polar(t)], [(p,)], tol)[0][0]


def _hyponormal_diffs(parts: Sequence[PolarParts],
                      ps: Sequence[Sequence[float]]) -> tuple[np.ndarray, np.ndarray]:
    """The pair stack of D_p = (T*T)^p - (TT*)^p for each part and each p of
    its grid, in case order, checked finite.

    D_p = |T|^{2p} - |T*|^{2p}, pulled back from V_r and W_r of one SVD on the
    same singular values: a numerically smeared kernel cannot fake an order
    violation through the fractional power, and U's error does not enter.
    """
    exps = [[2.0 * p for p in grid] for grid in ps]
    ha, hb = _abs_powers(parts, exps)
    ya, yb = _abs_powers(parts, exps, [pp._w[:, :2 * pp.rank] for pp in parts])
    return _checked((ha - ya, hb - yb))


def _p_hyponormal_grid(parts: Sequence[PolarParts], ps: Sequence[Sequence[float]],
                       tol: float) -> list[list[Margin]]:
    """``is_p_hyponormal`` at each exponent of ``ps[i]`` from the polar parts
    ``parts[i]``, every (case, exponent) pair in one eigenvalue solve.  The
    witnesses, the unit vectors of the least quadratic forms, are solved for
    only at the violated pairs, all of them in one eigensolver call, and
    each is pulled back from its bottom eigenvector by the kernel rule."""
    if not any(ps):
        return [[] for _ in ps]
    da, db = _hyponormal_diffs(parts, ps)
    values = _pair_eigvalsh(da, db)[:, 0].tolist()
    scales = [max(1.0, max(pp.sigmas, default=0.0) ** (2.0 * p))
              for pp, grid in zip(parts, ps) for p in grid]
    low = [j for j, (value, scale) in enumerate(zip(values, scales)) if value < -tol * scale]
    if low:
        xa, xb = _null_bases(_spectra(da[low], db[low])[1][..., :1], 1)
        vectors = dict(zip(low, zip(xa[:, 0], xb[:, 0])))
    out, rows = [], iter(range(len(values)))
    for grid in ps:
        margins = []
        for p, j in zip(grid, rows):
            witness = lambda: {"p": p, "vector": matio.vector_to_json(
                _trusted(QVector, *vectors[j]))}
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


def _gcsi_parts(tx: np.ndarray, ty: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(||Tx||, ||Ty||, |<Tx, y>|) of a stack of embedded pairs from the
    (m, 2n) stacks psi(Tx), psi(Ty) and psi(y).

    For psi(u) = [p; q] the quaternionic inner product splits into a complex
    part and a j part: |<u, v>|^2 = |psi(u)^H psi(v)|^2 + |sum(p v_bot - q v_top)|^2.
    """
    n = y.shape[-1] // 2
    inner_c = (tx.conj() * y).sum(axis=-1)
    inner_j = (tx[:, :n] * y[:, n:] - tx[:, n:] * y[:, :n]).sum(axis=-1)
    c = np.sqrt(inner_c.real ** 2 + inner_c.imag ** 2 + inner_j.real ** 2 + inner_j.imag ** 2)
    return _norms(tx), _norms(ty), c


def _gcsi_search(ts: Sequence[QMatrix], vs: Sequence[np.ndarray],
                 betas: Sequence[Sequence[float]], tol: float) -> list[list[Margin]]:
    """The ``gcsi_margin`` of each operator of one size at each beta of its
    grid, from ``vs``, each chi(T)'s right singular vectors above the cutoff.

    Each operator brings its candidate x, the first n standard basis vectors
    psi(e_k) of C^{2n}, whose images are columns of chi(T), gathered, then
    every column of its ``vs`` entry; y is chi(T) x / ||chi(T) x||, or x
    where that image is 0.  psi(-e_k j) is not scored: x -> xq, |q| = 1,
    moves no margin.  Every pair of every operator is scored in one
    ``_gcsi_parts`` call, and the first least pair wins.  Each operator's
    products are its own, so a search gives the bits it gives alone.
    """
    if not ts:
        return []
    n = ts[0].rows
    chis = [embed_chi(t) for t in ts]
    bounds = np.cumsum([0] + [n + v.shape[1] for v in vs]).tolist()
    xs = np.zeros((bounds[-1], 2 * n), dtype=np.complex128)
    tx, ty = np.empty_like(xs), np.empty_like(xs)
    for chi, v, lo, hi in zip(chis, vs, bounds, bounds[1:]):
        xs[lo + np.arange(n), np.arange(n)] = 1.0
        xs[lo + n:hi] = v.T
        tx[lo:lo + n], tx[lo + n:hi] = chi[:, :n].T, v.T @ chi.T
    norms = _norms(tx)[:, None]
    ys = np.divide(tx, norms, out=xs.copy(), where=norms > 0.0)
    for chi, lo, hi in zip(chis, bounds, bounds[1:]):
        ty[lo:hi] = ys[lo:hi] @ chi.T
    a, b, c = _gcsi_parts(tx, ty, ys)
    out = []
    for lo, hi, grid in zip(bounds, bounds[1:], betas):
        margins = []
        for beta in grid:
            # beta is one Python float: numpy computes a scalar exponent of 0.5
            # as sqrt, but an array of exponents by pow, which moves the last bits
            values = np.power(a[lo:hi], 1.0 - beta) * np.power(b[lo:hi], beta) - c[lo:hi]
            k = int(np.argmin(values))
            witness = None
            if values[k] < -tol:
                witness = {"beta": beta, "x": matio.vector_to_json(_from_psi(xs[lo + k])),
                           "y": matio.vector_to_json(_from_psi(ys[lo + k]))}
            margins.append(Margin(value=float(values[k]), tolerance=tol, witness=witness,
                                  details={"beta": beta}))
        out.append(margins)
    return out


def gcsi_margin(t: QMatrix, beta: float, *, tol: float = DEFAULT_TOL) -> Margin:
    """Margin of |<Tx, y>| <= (||Tx|| ||y||)^alpha (||Ty|| ||x||)^beta, least
    over a fixed set of unit pairs, witnessed by its pair below -tol.

    Exponents satisfy alpha = 1 - beta with beta in (0, 1], and 0^0 counts
    as 1.  Vectors are scored on the complex side, as psi(x) against chi(T)
    (``_gcsi_search``).  The x are psi(e_k), one per basis line of H^n, so
    textbook violations at basis vectors surface with their exact witnesses,
    then the right singular vectors v_i of chi(T) above the rank cutoff;
    each y is chi(T) x / ||chi(T) x||.  The set holds a witness exactly
    when T is not normal.  With sigma_i the singular values,
    sum_i (sigma_i^4 - ||T^2 v_i||^2) = ||T*T||_F^2 - ||T^2||_F^2 =
    ||T*T - TT*||_F^2 / 2, so some v_i has ||T^2 v_i|| < ||T v_i||^2, and
    its pair scores ||Tv||^(1 - beta) (||T^2 v|| / ||Tv||)^beta - ||Tv|| < 0.
    A normal T has no witness at all: |<Tx, y>| <= ||Tx|| and
    |<Tx, y>| = |<x, T*y>| <= ||T*y|| = ||Ty||, and the margin splits
    |<Tx, y>| as the (alpha, beta) product of the two bounds.
    """
    _check_tol(tol)
    _check_exponent(beta, "beta")
    return _gcsi_search([t], [polar(t)._v], [(beta,)], tol)[0][0]


def gcsi_sweep(t: QMatrix, *, tol: float = DEFAULT_TOL) -> dict[float, Margin]:
    """Per-beta margins over ``SWEEP_BETAS``; membership is existential over beta.

    The candidate pairs of ``gcsi_margin`` and their three scalars
    (||Tx||, ||Ty||, |<Tx,y>|) come from one SVD and are shared across the
    grid.  By the identity there, the set holds a witness at every beta or
    at none; only the tolerance can tell the betas apart.
    """
    _check_tol(tol)
    return dict(zip(SWEEP_BETAS, _gcsi_search([t], [polar(t)._v], [SWEEP_BETAS], tol)[0]))


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


def _check_finite_exponent(name: str, value: float) -> None:
    """A NaN or infinite exponent is rejected by name, before it reaches a weigher."""
    if not math.isfinite(value):
        raise DomainError(f"exponent {name} must be finite, got {value}")


def _holder_mccarthy_args(x: QVector, rs: Sequence[float]) -> None:
    if not rs:
        raise DomainError("at least one exponent is needed")
    for r in rs:
        _check_finite_exponent("r", r)
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
    w, v = _spectra(*_stack_pairs([cases[i][0] for i in rows]))
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
    with the spectra and eigenvectors of their Ss and of their Ts; the
    error of each other row is put in ``out``.

    Each hypothesis is decided for the batch at once, in the order that
    ``is_psd(S - T)``, ``eigh_q(T)``, ``is_psd(T)`` meet them: S - T
    self-adjoint, from one stacked subtraction; ordered, from the ends of one
    eigenvalue call; T self-adjoint; then, from the ends of one eigensolver
    call that also serves the caller, T >= 0 and the clamp of its powers.
    The Ss are solved last, through their Hermitian parts, and their clamp
    checked.  Only a failing row gets an error, worded as its lone call's.
    """
    ss, ts = [cases[i][0] for i in rows], [cases[i][1] for i in rows]
    for s, t in zip(ss, ts):
        s._check_same(t)
    if not rows:
        return rows, (), ()
    # every later step reads the stacks' values, never their memory layout
    sa, sb = np.array([s._a for s in ss]), np.array([s._b for s in ss])
    ta, tb = np.array([t._a for t in ts]), np.array([t._b for t in ts])
    da, db = _checked((sa - ta, sb - tb))
    rows, ta, tb, da, db = _sift(out, rows, _selfadjoint_errors(da, db), ta, tb, da, db)
    if rows:
        w = _pair_eigvalsh(da, db)
        rows, ta, tb = _sift(out, rows, _psd_errors(w, tol, "operators are not ordered"), ta, tb)
    rows, ta, tb = _sift(out, rows, _selfadjoint_errors(ta, tb), ta, tb)
    if not rows:
        return rows, (), ()
    wt, vt = _spectra(ta, tb)
    rows, wt, vt = _sift(out, rows, [e or c for e, c in zip(
        _psd_errors(wt, tol, "lower operator is not positive"), _clamp_errors(wt))], wt, vt)
    if not rows:
        return rows, (), ()
    ws, vs = _spectra(*_stack_pairs([cases[i][0] for i in rows]))
    rows, *solved = _sift(out, rows, _clamp_errors(ws), ws, vs, wt, vt)
    return rows, solved[:2], solved[2:]


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
        _check_finite_exponent("r", r)
        if r < 0.0:
            raise DomainError(f"exponent must be nonnegative, got {r}")
        if r > 1.0 and not probe:
            raise DomainError(f"exponent {r} outside [0, 1] requires probe mode")


def _lowner_heinz_cases(cases: Sequence[tuple[QMatrix, QMatrix, Sequence[float], bool]],
                        tol: float) -> list[Margin | QopError]:
    """``check_lowner_heinz`` of each (S, T, rs, probe) case, or its error:
    the exponents, then ``_ordered_systems``, row by row.  Each run of
    consecutive cases with one size and grid length is ordered as one
    batch, its powers S^r and T^r are pulled back in one product, and every
    S^r - T^r is solved in one eigenvalue call.  Weights are checked before
    entries: if S^r's entries and a T^r's weight overflow, the weight's error
    is raised; S >= T to 1e-8 confines that to within 1e-8 of the float ceiling."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _lowner_heinz_exponents(*cases[i][2:]))
    for _, run in groupby(rows, lambda i: (cases[i][0].shape, len(cases[i][2]))):
        run, ss, ts = _ordered_systems(cases, list(run), tol, out)
        if not run:
            continue
        (ws, vs), (wt, vt) = ss, ts
        exps, k = [cases[i][2] for i in run], len(run)
        pa, pb = _psd_powers(np.concatenate([ws, wt]), np.concatenate([vs, vt]), exps * 2)
        da, db = _checked((pa[:k] - pa[k:], pb[:k] - pb[k:]))
        del pa, pb  # before the solve, the largest step
        values = _pair_eigvalsh(da, db)[..., 0].tolist()
        for i, top, vals in zip(run, np.maximum(ws[:, -1], 0.0).tolist(), values):
            _, _, rs, probe = cases[i]
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
    for name, value in (("p", p), ("q", q), ("r", r)):
        _check_finite_exponent(name, value)
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
    (wa, va), (wb, vb) = ss, ts
    run = [cases[i] for i in rows]
    values = _pair_eigvalsh(*_furuta_differences(run, wa, va, wb, vb))[:, 0].tolist()
    k = len(run)
    tops = np.maximum(wa[:, -1], 0.0).tolist()
    for j, (i, top, (_, _, p, q, r, probe)) in enumerate(zip(rows, tops, run)):
        scale = max(1.0, top ** ((p + 2.0 * r) / q))
        witness = lambda: {"p": p, "q": q, "r": r, "probe": probe}
        out[i] = (_margin(values[j], tol, scale, witness, p=p, q=q, r=r),
                  _margin(values[k + j], tol, scale, witness, p=p, q=q, r=r))
    return out


def _furuta_differences(cases: Sequence[tuple], wa: np.ndarray, va: np.ndarray,
                        wb: np.ndarray, vb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B^r A^p B^r)^{1/q} - B^e of each case, then A^e -
    (A^r B^p A^r)^{1/q} of each, e = (p + 2r) / q, as one (2k, n, n) pair
    stack, from the spectra and eigenvectors of the As and the Bs.  One
    product pulls back the Bs and the As at r and p, the brackets follow,
    and a second pulls back both at e.  Weights are checked before entries:
    if a B power's entries and an A power's weight overflow, the weight's error
    is raised; A >= B to 1e-8 confines that to within 1e-8 of the float ceiling."""
    k, w, v = len(cases), np.concatenate([wb, wa]), np.concatenate([vb, va])
    pa, pb = _psd_powers(w, v, [(r, p) for _, _, p, _, r, _ in cases] * 2)
    # the outer halves B^r, A^r and the middles A^p, B^p of both brackets
    ha, hb = pa[:, 0], pb[:, 0]
    xa, xb = _checked(_product(ha, hb, np.concatenate([pa[k:, 1], pa[:k, 1]]),
                               np.concatenate([pb[k:, 1], pb[:k, 1]])))
    xa, xb = _checked(_product(xa, xb, ha, hb))
    wx, vx = _spectra(xa, xb)
    la, lb = _psd_powers(wx, vx, [(1.0 / c[3],) for c in cases] * 2)
    ea, eb = _psd_powers(w, v, [((p + 2.0 * r) / q,) for _, _, p, q, r, _ in cases] * 2)
    da = np.concatenate([la[:k, 0] - ea[:k, 0], ea[k:, 0] - la[k:, 0]])
    db = np.concatenate([lb[:k, 0] - eb[:k, 0], eb[k:, 0] - lb[k:, 0]])
    return _checked((da, db))


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
    return _sole(_aluthge_cases([(t, p, enforce)], tol)[0])


def _aluthge_cases(cases: Sequence[tuple[QMatrix, float, bool]],
                   tol: float) -> tuple[list[AluthgeReport | QopError], list[float]]:
    """``check_aluthge_theorems`` of each (T, p, enforce) case, or its error,
    with ||T|| of each for a caller's scale, NaN where the exponent fails:
    the exponent, then the enforced hypothesis, row by row.  T and T~ are
    factored in one SVD each, and the enforced hypotheses and the transform
    margins solved in one eigenvalue call each.  The first read of any
    report's ladder solves every ladder, and that of a double reading
    factors every T~~ and solves its margins, in one call each."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _check_exponent(cases[i][1], "exponent"))
    parts = dict(zip(rows, _polars([cases[i][0] for i in rows]) if rows else ()))
    norms = [max(parts[i].sigmas) if i in parts else math.nan for i in range(len(cases))]
    enforced = [i for i in rows if cases[i][2]]
    bases = dict(zip(enforced, _p_hyponormal_grid([parts[i] for i in enforced],
                                                  [(cases[i][1],) for i in enforced], tol)))
    rows, = _sift(out, rows, lambda i: PreconditionError(
        f"operator is not {cases[i][1]}-hyponormal (margin {bases[i][0].value:.3e})")
        if i in bases and bases[i][0].violated else None)
    if not rows:
        return out, norms
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
    return out, norms


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
    are factored in one SVD, which gives each ||T||, the sphere polynomials'
    kernels found in one SVD, and the norms of the two off-diagonal blocks
    solved in one eigenvalue call."""
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: None if abs(cases[i][1].norm() - 1.0) <= 1e-6
                  else DomainError(f"unit quaternion expected, |q| = {cases[i][1].norm():.6f}"))
    if not rows:
        return out
    parts = dict(zip(rows, _polars([cases[i][0] for i in rows])))
    ua, ub = _stack_pairs([unitary_completion(parts[i]) for i in rows])
    reps = {i: cases[i][1].similarity_representative() for i in rows}
    spheres = [Quaternion(reps[i].real, reps[i].imag, 0.0, 0.0) for i in rows]
    kernels = dict(zip(rows, _kernel_bases(*_delta_qs(ua, ub, spheres), EIGENSPACE_RTOL)[0]))
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
    blocks = [_checked(_product(*_checked(_product(ca, cb, ma, mb)), pa, pb))
              for ma, mb in ((ta, tb), _adjoints(ta, tb))]
    norms = _operator_norms(*map(np.concatenate, zip(*blocks))).tolist()
    for j, (i, dim) in enumerate(zip(rows, dims)):
        witness = lambda: {"q": matio.quaternion_to_json(cases[i][1]), "kernel_dim": dim}
        out[i] = _margin(-max(norms[j], norms[k + j]), tol, max(1.0, max(parts[i].sigmas)),
                         witness, kernel_dim=dim)
    return out


def invert(t: QMatrix) -> QMatrix:
    """Inverse V S^{-1} W* from ``polar``'s SVD; singular at sigma_min <= INVERT_RTOL sigma_max."""
    return _inverse(polar(t))


def _inverse(pp: PolarParts) -> QMatrix:
    """``invert`` from T's polar parts, top block row only."""
    if pp.sigmas[0] <= INVERT_RTOL * pp.sigmas[-1]:
        ratio = pp.sigmas[0] / pp.sigmas[-1] if pp.sigmas[-1] > 0.0 else 0.0
        raise DomainError(f"operator is singular (sigma_min/sigma_max = {ratio:.3e})")
    return _from_chi_top((pp._v[:pp.u.rows] / pp._s) @ pp._w.conj().T)


@dataclass(frozen=True)
class ClosureReport:
    """Before/after margins for one closure operation."""

    which: str
    base: Margin
    transformed: Margin


def check_gcsi_closure(t: QMatrix, which: str, *, beta: float = 0.5,
                       tol: float = DEFAULT_TOL, scalar: float = 2.0,
                       unitary: QMatrix | None = None,
                       projector: QMatrix | None = None) -> ClosureReport:
    """Re-test the inequality after a class-preserving operation.

    ``which`` picks the operation: "scalar" (finite real multiple), "inverse",
    "unitary-equiv" (conjugation by a supplied unitary), or "compression"
    (P T P for a supplied projector onto an invariant subspace).  Both
    margins are those of ``gcsi_margin`` at ``beta``, up to round-off: cT
    and T^{-1} are searched on T's singular vectors.  Argument errors are
    raised before any solve, then the base operator's precondition, then
    an error building the transformed operator (a singular T, or a
    subspace that is not invariant).
    """
    _check_tol(tol)
    return _sole(_gcsi_closures([(t, which, scalar, unitary, projector)], beta=beta, tol=tol)[0])


def _closure_args(which: str, scalar: float | None, unitary: QMatrix | None,
                  projector: QMatrix | None) -> None:
    if which not in ("scalar", "inverse", "unitary-equiv", "compression"):
        raise DomainError(f"unknown closure operation {which!r}")
    # the real multiples that QMatrix * scalar takes
    if which == "scalar" and not (isinstance(scalar, (int, float)) and math.isfinite(scalar)):
        raise DomainError(f"scalar closure needs a finite real scalar, got {scalar!r}")
    if which == "unitary-equiv" and unitary is None:
        raise DomainError("unitary-equiv closure needs a unitary")
    if which == "compression" and projector is None:
        raise DomainError("compression closure needs a projector onto an invariant subspace")


def _gcsi_closures(cases: Sequence[tuple], *, beta: float,
                   tol: float) -> tuple[list[ClosureReport | QopError], list[float | None]]:
    """``check_gcsi_closure`` of each case of one size, or its error, with
    each ||T|| for a caller's scale, None where the arguments fail.

    A case is (T, which, scalar, unitary, projector), with None for an
    operand its operation does not read.  Each case meets its errors in
    ``check_gcsi_closure``'s order: its arguments, before any solve; the
    base precondition; then building the transformed operator.  One SVD
    factors the Ts and gives each ||T||; as chi(cT) = W (cS) V* and
    chi(T^{-1}) = V S^{-1} W*, cT is searched on V and T^{-1} on W reversed,
    descending sigma^{-1}.  One more SVD factors V* T V and P T P, and one
    eigenvalue solve gives every ||(I - P) T P||.
    """
    _check_exponent(beta, "beta")
    out: list = [None] * len(cases)
    rows, = _sift(out, range(len(cases)), lambda i: _closure_args(*cases[i][1:]))
    parts = dict(zip(rows, _polars([cases[i][0] for i in rows])))
    norms = [parts[i].sigmas[-1] if i in parts else None for i in range(len(cases))]
    squeezes: list[QMatrix] = []

    def squeeze(i: int) -> None:
        t, projector = cases[i][0], cases[i][4]
        squeezes.append((QMatrix.identity(t.rows) - projector) @ t @ projector)

    # an operand's error waits in out for the base precondition, which comes first
    squeezed, = _sift(out, [i for i in rows if cases[i][1] == "compression"], squeeze)
    residuals = dict(zip(squeezed, _operator_norms(*_stack_pairs(squeezes)).tolist()
                         if squeezes else ()))
    searches: dict[int, tuple[QMatrix, np.ndarray | None]] = {}

    def operand(i: int) -> None:
        t, which, scalar, unitary, projector = cases[i]
        if which == "scalar":
            searches[i] = t * scalar, parts[i]._v
        elif which == "inverse":
            searches[i] = _inverse(parts[i]), parts[i]._w[:, ::-1]
        elif which == "unitary-equiv":
            searches[i] = unitary.H @ t @ unitary, None
        elif residuals[i] > tol * max(1.0, norms[i]):
            raise PreconditionError(f"subspace is not invariant (residual {residuals[i]:.3e})")
        else:
            searches[i] = projector @ t @ projector, None

    _sift(out, [i for i in rows if out[i] is None], operand)
    again = [i for i, (_, v) in searches.items() if v is None]
    for i, pp in zip(again, _polars([searches[i][0] for i in again])):
        searches[i] = searches[i][0], pp._v
    pairs = [pair for i in rows for pair in ((cases[i][0], parts[i]._v), searches.get(i)) if pair]
    margins = iter(_gcsi_search([t for t, _ in pairs], [v for _, v in pairs],
                                [(beta,)] * len(pairs), tol))
    for i in rows:
        (base,), (after,) = next(margins), next(margins) if i in searches else (None,)
        if base.value < -tol:
            out[i] = PreconditionError(
                f"base operator already violates the inequality (margin {base.value:.3e})")
        elif out[i] is None:
            out[i] = ClosureReport(which=cases[i][1], base=base, transformed=after)
    return out, norms


@dataclass(frozen=True)
class KernelReport:
    """Kernel containment and idempotence facts for one operator."""

    dim_ker: int
    dim_ker_sq: int
    subset_residual: float
    equality_residual: float
    threshold: float
    passes: bool


def check_kernel_reduction(t: QMatrix, *, tol: float = DEFAULT_TOL) -> KernelReport:
    """Test ker T inside ker T* and ker T = ker T^2.

    Membership in the inequality class forces both; the report is
    also useful in falsification mode, where a failure is consistent with
    a non-member.  Residuals are worst-case norms of T* (resp. T) on the
    computed kernel bases.
    """
    _check_tol(tol)
    return _kernel_reductions([t], tol)[0][0]


def _kernel_reductions(ts: Sequence[QMatrix],
                       tol: float) -> tuple[list[KernelReport], list[float]]:
    """``check_kernel_reduction`` of each operator of one shape, with ||T|| of
    each for a caller's scale: the kernels of T and T^2 of all of them from
    one SVD, which gives each ||T||, and the residuals from one stacked
    product per kind.  T is square, so dim ker T* = dim ker T."""
    for t in ts:
        _require_square(t)
    a, b = _stack_pairs(ts)
    sa, sb = _checked(_product(a, b, a, b))
    k = len(ts)
    bases, tops = _kernel_bases(np.concatenate([a, sa]), np.concatenate([b, sb]), KERNEL_RTOL)
    kers, ker_sqs, norms = bases[:k], bases[k:], tops[:k]
    subsets = _image_norms(a, b, kers, adjoint=True)
    equalities = _image_norms(a, b, ker_sqs, adjoint=False)
    out = []
    for (ker, _), (ker_sq, _), subset, equality, opn in zip(
            kers, ker_sqs, subsets, equalities, norms):
        thr = tol * max(1.0, opn)
        out.append(KernelReport(
            dim_ker=len(ker),
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
    factored in one SVD, which gives each ||T||, and each vector product is
    one stacked product."""
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
    return [_margin(c * a - b ** 2, tol, max(1.0, max(pp.sigmas) ** 2),
                    lambda: {"x": matio.vector_to_json(x)})
            for (_, x), pp, a, b, c in zip(cases, parts, ny, nty, nt2y)]


@dataclass(frozen=True)
class ConsistencyReport:
    """The p-hyponormal and inequality margins at one operator."""

    p: float
    p_hyponormal: Margin
    gcsi: Margin
    hard_violation: bool


def check_gcsi_implies(t: QMatrix, p: float = 0.5, *,
                       tol: float = DEFAULT_TOL) -> ConsistencyReport:
    """Consistency of the implication chain at one operator.

    A p-hyponormal operator satisfies the inequality with beta = p.  The
    inequality's margin is ``gcsi_margin``'s at beta = p, from the SVD that
    the p-hyponormal margin factors.  ``hard_violation`` means the
    p-hyponormal margin passed while an inequality witness exists, which
    contradicts the implication outright.  Both margins vanish exactly at
    normal operators, but not alike: the p-hyponormal one is first order
    in ||T*T - TT*|| and the inequality's second order, so near a normal
    operator the p-hyponormal one fails first.  The p-hyponormal witness
    is ``is_p_hyponormal``'s: the bottom eigenvector of the difference,
    pulled back with its largest entry real and positive, the same under
    any correct eigensolver when that eigenvalue is simple.  Every argument
    is checked before any solve.
    """
    _check_tol(tol)
    return _gcsi_implications([(t, p)], tol=tol)[0]


def _gcsi_implications(cases: Sequence[tuple[QMatrix, float]], *,
                       tol: float) -> list[ConsistencyReport]:
    """``check_gcsi_implies`` of each (T, p) case of one size: the operators
    factored in one SVD for both margins, every search in one ``_gcsi_search``."""
    for _, p in cases:
        _check_exponent(p, "exponent")
    ts = [t for t, _ in cases]
    parts = _polars(ts)
    hyps = _p_hyponormal_grid(parts, [(p,) for _, p in cases], tol)
    gcsis = _gcsi_search(ts, [pp._v for pp in parts], [(p,) for _, p in cases], tol)
    return [ConsistencyReport(p=p, p_hyponormal=hyp, gcsi=gcsi,
                              hard_violation=not hyp.violated and gcsi.violated)
            for (_, p), (hyp,), (gcsi,) in zip(cases, hyps, gcsis)]
