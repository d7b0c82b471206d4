"""Operator-class predicates and margin-valued theorem oracles.

Every check reports a signed margin: nonnegative means the asserted
inequality held at the evaluated instance, negative quantifies the
violation.  Margins are raw (in the units of the quantity compared);
callers normalize by an operator scale when they need dimensionless
numbers.

Semantics are deliberately asymmetric.  Operator-order conditions (PSD
margins) are certified both ways up to eigensolver tolerance.  Conditions
quantified over all vectors or pairs (paranormal, the generalized
Cauchy-Schwarz family) are certified only on failure, where a concrete
witness is produced; a nonnegative margin there is sampled evidence under
a recorded budget and seed, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import _eig, matio
from .errors import DomainError, PreconditionError, StructureError
from .linalg import (QMatrix, QVector, _from_psi, _psi, _selfadjoint_residual, embed_chi, inner,
                     operator_norm, outer, unembed_chi)
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .spectral import (HermitianEigensystem, delta_q, eigh_q, is_psd,
                       kernel_basis, min_eigenvalue, spherical_eigenspace)
from .transforms import PolarParts, aluthge, polar, unitary_completion

DEFAULT_TOL = 1e-8


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
    n = t.rows
    if not t.is_square():
        raise DomainError(f"classification needs a square operator, got {t.shape}")
    thr = tol * max(1.0, operator_norm(t)) ** 2
    sa_res = _selfadjoint_residual(t)
    selfadjoint = sa_res <= thr
    gram = t.H @ t
    co = t @ t.H
    normal_res = (gram - co).frobenius()
    unitary_res = (gram - QMatrix.identity(n)).frobenius()
    pos_margin: float | None = None
    positive = False
    if selfadjoint:
        pos_margin = min_eigenvalue(0.5 * (t + t.H))
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


def is_p_hyponormal(t: QMatrix, p: float, *, tol: float = DEFAULT_TOL,
                    parts: PolarParts | None = None) -> Margin:
    """Margin of (T*T)^p - (TT*)^p against the operator order.

    p = 1 is the hyponormal case and p = 1/2 the semi-hyponormal one.  The
    witness, present when the margin is materially negative, is the unit
    vector achieving the minimal quadratic form.  A caller holding the
    polar parts of T passes them as ``parts``.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {p}")
    parts = polar(t) if parts is None else parts
    opn = max(parts.sigmas, default=0.0)
    # (T*T)^p = |T|^{2p} and (TT*)^p = U |T|^{2p} U*; both sides built on
    # the same SVD singular values, so a numerically smeared kernel
    # cannot fake an order violation through the fractional power
    half = parts.abs_power(2.0 * p)
    diff = half - parts.u @ half @ parts.u.H
    diff = 0.5 * (diff + diff.H)
    value = min_eigenvalue(diff)
    scale = max(1.0, opn ** (2.0 * p))
    witness = None
    if value < -tol * scale:
        system = eigh_q(diff)
        vec = system.vectors.column(0)
        witness = {"p": p, "vector": matio.vector_to_json(vec)}
    return Margin(value=value, tolerance=tol,
                  witness=witness, details={"p": p, "scale": scale})


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


def _norms(vs: np.ndarray) -> np.ndarray:
    """Euclidean norms of a stack of complex vectors along the last axis."""
    r = np.ascontiguousarray(vs).view(np.float64)
    return np.sqrt((r * r).sum(axis=-1))


def is_paranormal(t: QMatrix, *, tol: float = DEFAULT_TOL, grid: int = 256,
                  samples: int = 1000, seed: int = 0) -> Margin:
    """Two-channel paranormality test.

    Operator channel: min eigenvalue of T*^2 T^2 - 2 lam T*T + lam^2 I over
    a lambda grid on [0, 2 ||T||^2] with local refinement; nonnegativity
    for every lam >= 0 characterizes paranormality.  Vector channel:
    ||T^2 x|| ||x|| - ||Tx||^2 on basis-then-random unit vectors.  Both
    channels work on chi(T): the pencils are built from chi(T)* chi(T) and
    chi(T^2)* chi(T^2), and the vectors are scored as psi(x) against chi(T)
    and chi(T^2).  Channels are compared after scale normalization; the
    reported value is the raw margin of the worse channel and the witness
    (lambda or vector) comes from it.
    """
    if not t.is_square():
        raise DomainError(f"square operator required, got {t.shape}")
    n = t.rows
    chi_t = embed_chi(t)
    chi_t2 = chi_t @ chi_t
    a_c = chi_t.conj().T @ chi_t
    a_c = 0.5 * (a_c + a_c.conj().T)
    b_c = chi_t2.conj().T @ chi_t2
    b_c = 0.5 * (b_c + b_c.conj().T)
    eye = np.eye(a_c.shape[0], dtype=np.complex128)
    opn = float(np.sqrt(max(float(_eig.eigvalsh(a_c)[-1]), 0.0)))
    s2 = max(1.0, opn ** 2)
    s4 = max(1.0, opn ** 4)

    # the base grid, then two local refinements around the running best,
    # each solved as one stack of pencils B - 2 lam A + lam^2 I
    hi = 2.0 * opn ** 2
    lams = np.linspace(0.0, hi, grid) if hi > 0 else np.array([0.0])
    span = hi / max(grid - 1, 1) if hi > 0 else 0.0
    best_lam, best_val = 0.0, np.inf
    for _ in range(3):
        lam = lams[:, None, None]
        vals = _eig.eigvalsh(b_c - (2.0 * lam) * a_c + (lam * lam) * eye)[:, 0]
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_lam, best_val = float(lams[j]), float(vals[j])
        if span <= 0:
            break
        lams = np.linspace(max(best_lam - span, 0.0), best_lam + span, 17)
        span /= 8.0

    stream = SplitMix64(seed)
    xs = _unit_vectors(n, samples, stream)
    psis = _psi(xs)
    tx = psis @ chi_t.T
    t2x = psis @ chi_t2.T
    vec_margins = _norms(t2x) * _norms(psis) - _norms(tx) ** 2
    k = int(np.argmin(vec_margins))
    vec_val = float(vec_margins[k])

    details = {"grid_margin": best_val, "grid_lambda": best_lam,
               "vector_margin": vec_val, "samples": int(xs.shape[0]),
               "seed": seed}
    vector_worse = vec_val / s2 <= best_val / s4
    value = vec_val if vector_worse else best_val
    scale = s2 if vector_worse else s4
    witness = None
    if value < -tol * scale:
        if vector_worse:
            witness = {"vector": matio.vector_to_json(QVector(xs[k]))}
        else:
            witness = {"lambda": best_lam}
    return Margin(value=value, tolerance=tol, witness=witness, details=details)


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


def _gcsi_terms(chi_t: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(||Tx||, ||Ty||, |<Tx, y>|) for a (k, 2, 2n) stack of embedded pairs.

    chi(T) psi(x) = psi(Tx), and for psi(u) = [p; q] the quaternionic inner
    product splits into a complex part and a j part:
    |<u, v>|^2 = |psi(u)^H psi(v)|^2 + |sum(p v_bot - q v_top)|^2.
    """
    k, _, n2 = pairs.shape
    n = n2 // 2
    images = (pairs.reshape(2 * k, n2) @ chi_t.T).reshape(k, 2, n2)
    norms = _norms(images)
    tx, y = images[:, 0], pairs[:, 1]
    inner_c = (tx.conj() * y).sum(axis=1)
    inner_j = (tx[:, :n] * y[:, n:] - tx[:, n:] * y[:, :n]).sum(axis=1)
    c = np.sqrt(inner_c.real ** 2 + inner_c.imag ** 2 + inner_j.real ** 2 + inner_j.imag ** 2)
    return norms[:, 0], norms[:, 1], c


def _pair_witness(beta: float, pair: np.ndarray) -> dict[str, Any]:
    return {"beta": beta,
            "x": matio.vector_to_json(_from_psi(pair[0])),
            "y": matio.vector_to_json(_from_psi(pair[1]))}


def gcsi_margin(t: QMatrix, beta: float, *, budget: int = 1000, seed: int = 0,
                tol: float = DEFAULT_TOL, refine_steps: int = 64) -> Margin:
    """Sampled margin of |<Tx, y>| <= (||Tx|| ||y||)^alpha (||Ty|| ||x||)^beta.

    Exponents satisfy alpha = 1 - beta with beta in (0, 1], and 0^0 counts
    as 1.  All ordered standard-basis pairs are scanned before the random
    unit pairs, so textbook violations at basis vectors surface with their
    exact witnesses.  The worst pair then gets a hill-climb refinement that
    accepts only strict decreases and shrinks its step on every rejection;
    its directions are one block of the refinement stream, drawn up front.
    Vectors are scored on the complex side, as psi(x) against chi(T).  A
    negative margin certifies non-membership; a nonnegative one is evidence
    on the sampled budget.
    """
    if not 0.0 < beta <= 1.0:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    if refine_steps < 0:
        raise DomainError(f"refine_steps must be nonnegative, got {refine_steps}")
    alpha = 1.0 - beta
    n = t.rows
    chi_t = embed_chi(t)
    pairs = _unit_pairs(n, budget, SplitMix64(mix_seed(seed, 0)))
    a, b, c = _gcsi_terms(chi_t, pairs)
    margins = np.power(a, alpha) * np.power(b, beta) - c
    k = int(np.argmin(margins))
    best = float(margins[k])

    # normals(4n) per direction is even-sized, so one block draw is
    # bitwise the concatenation of the per-step draws; steps and rescaling
    # run on the real view, entry for entry the arithmetic of the (n, 4) form
    moves = _psi(SplitMix64(mix_seed(seed, 1)).normals(2 * refine_steps * n * 4)
                 .reshape(refine_steps, 2, n, 4)).view(np.float64)
    pair = pairs[k].view(np.float64)
    step = 0.5
    for move in moves:
        cand = pair + step * move
        norms = np.sqrt((cand * cand).sum(axis=1))
        if norms.min() < 1e-9:
            continue
        cand = cand / norms[:, None]
        a, b, c = _gcsi_terms(chi_t, cand.view(np.complex128)[None])
        value = float(np.power(a[0], alpha) * np.power(b[0], beta) - c[0])
        if value < best:
            best, pair = value, cand
        else:
            step *= 0.8
    witness = _pair_witness(beta, pair.view(np.complex128)) if best < -tol else None
    return Margin(value=best, tolerance=tol, witness=witness,
                  details={"beta": beta, "budget": budget, "seed": seed})


def gcsi_sweep(t: QMatrix, *, betas: Sequence[float] = tuple(round(0.1 * k, 1) for k in range(1, 11)),
               budget: int = 1000, seed: int = 0,
               tol: float = DEFAULT_TOL) -> dict[float, Margin]:
    """Per-beta margins over a grid; membership is existential over beta.

    The matrix-vector work is shared across the grid: each sampled pair
    contributes three scalars (||Tx||, ||Ty||, |<Tx,y>|), evaluated once on
    the complex side as in ``gcsi_margin``.  There is no refinement.
    """
    n = t.rows
    pairs = _unit_pairs(n, budget, SplitMix64(mix_seed(seed, 0)))
    a, b, c = _gcsi_terms(embed_chi(t), pairs)
    out: dict[float, Margin] = {}
    for beta in betas:
        if not 0.0 < beta <= 1.0:
            raise DomainError(f"beta must lie in (0, 1], got {beta}")
        margins = np.power(a, 1.0 - beta) * np.power(b, beta) - c
        k = int(np.argmin(margins))
        best = float(margins[k])
        witness = _pair_witness(beta, pairs[k]) if best < -tol else None
        out[beta] = Margin(value=best, tolerance=tol, witness=witness,
                           details={"beta": beta, "budget": budget, "seed": seed})
    return out


def check_holder_mccarthy(t: QMatrix, x: QVector, r: float, *,
                          tol: float = DEFAULT_TOL,
                          system: HermitianEigensystem | None = None) -> Margin:
    """Rayleigh-power inequality for a positive operator.

    For r > 1 the margin is <T^r x, x> - <Tx, x>^r ||x||^{2(1-r)}; for
    0 < r < 1 the inequality reverses and the margin is negated to keep
    nonnegative-means-holds.  r = 1 is the degenerate identity.
    """
    if r <= 0.0 or r == 1.0:
        raise DomainError(f"exponent must be positive and not 1, got {r}")
    nx = x.norm()
    if nx == 0.0:
        raise DomainError("zero vector not allowed")
    sys_t = eigh_q(t) if system is None else system
    tr = sys_t.power_psd(r)
    lhs = inner(tr @ x, x)
    base = inner(t @ x, x)
    lhs_r, base_r = lhs.w, base.w
    imag = max(abs(lhs.x), abs(lhs.y), abs(lhs.z),
               abs(base.x), abs(base.y), abs(base.z))
    if imag > 1e-8 * max(1.0, abs(lhs_r), abs(base_r)):
        raise PreconditionError(
            f"quadratic form is not real (imaginary size {imag:.3e}); operator not positive?")
    rhs = max(base_r, 0.0) ** r * nx ** (2.0 * (1.0 - r))
    value = lhs_r - rhs if r > 1.0 else rhs - lhs_r
    witness = None
    scale = max(1.0, abs(lhs_r), abs(rhs))
    if value < -tol * scale:
        witness = {"r": r, "x": matio.vector_to_json(x)}
    return Margin(value=value, tolerance=tol, witness=witness,
                  details={"r": r, "lhs": lhs_r, "rhs": rhs})


def _require_order(s: QMatrix, t: QMatrix, tol: float,
                   t_system: HermitianEigensystem | None = None,
                   diff_system: HermitianEigensystem | None = None) -> None:
    ok_t, m_t = is_psd(t, tol, system=t_system)
    if not ok_t:
        raise PreconditionError(f"lower operator is not positive (min eigenvalue {m_t:.3e})")
    ok_d, m_d = is_psd(s - t, tol, system=diff_system)
    if not ok_d:
        raise PreconditionError(f"operators are not ordered (min eigenvalue {m_d:.3e})")


def check_lowner_heinz(s: QMatrix, t: QMatrix, r: float, *,
                       tol: float = DEFAULT_TOL, probe: bool = False,
                       s_system: HermitianEigensystem | None = None,
                       t_system: HermitianEigensystem | None = None,
                       diff_system: HermitianEigensystem | None = None) -> Margin:
    """Margin of S^r >= T^r given S >= T >= 0.

    The monotonicity theorem covers r in [0, 1]; exponents outside that
    band are admitted only with ``probe=True``, where a negative margin is
    expected behavior rather than a bug.  The order S >= T >= 0 is checked
    on every call.  A supplied ``t_system`` serves the T >= 0 precondition
    and a supplied ``diff_system``, the eigensystem of S - T, serves
    S - T >= 0 (as in ``is_psd``); without them each is solved afresh.  A
    caller scoring one pair at many exponents solves S - T once this way.
    """
    if r < 0.0:
        raise DomainError(f"exponent must be nonnegative, got {r}")
    if r > 1.0 and not probe:
        raise DomainError(f"exponent {r} outside [0, 1] requires probe mode")
    _require_order(s, t, tol, t_system, diff_system)
    ssys = eigh_q(0.5 * (s + s.H)) if s_system is None else s_system
    tsys = eigh_q(0.5 * (t + t.H)) if t_system is None else t_system
    diff = ssys.power_psd(r) - tsys.power_psd(r)
    value = min_eigenvalue(0.5 * (diff + diff.H))
    scale = max(1.0, max(ssys.eigenvalues[-1], 0.0) ** r)
    witness = None
    if value < -tol * scale:
        witness = {"r": r, "probe": probe}
    return Margin(value=value, tolerance=tol, witness=witness,
                  details={"r": r, "scale": scale})


def check_furuta(a: QMatrix, b: QMatrix, p: float, q: float, r: float, *,
                 tol: float = DEFAULT_TOL, probe: bool = False,
                 a_system: HermitianEigensystem | None = None,
                 b_system: HermitianEigensystem | None = None) -> tuple[Margin, Margin]:
    """Margins of the two bracket inequalities for an ordered pair.

    Under A >= B >= 0 and (1 + 2r) q >= p + 2r with p >= 0, q >= 1, r >= 0:
    (B^r A^p B^r)^{1/q} >= B^{(p+2r)/q} and A^{(p+2r)/q} >= (A^r B^p A^r)^{1/q}.
    Exponent triples violating the constraint are admitted only in probe
    mode, for exploring how the margins degrade.
    """
    if p < 0.0 or q < 1.0 or r < 0.0:
        raise DomainError(f"need p >= 0, q >= 1, r >= 0, got p={p} q={q} r={r}")
    if (1.0 + 2.0 * r) * q < p + 2.0 * r and not probe:
        raise PreconditionError(
            f"(1+2r)q >= p+2r fails: {(1 + 2 * r) * q:.4g} < {p + 2 * r:.4g}")
    _require_order(a, b, tol)
    asys = eigh_q(0.5 * (a + a.H)) if a_system is None else a_system
    bsys = eigh_q(0.5 * (b + b.H)) if b_system is None else b_system
    expo = (p + 2.0 * r) / q

    def bracket_margin(outer_sys: HermitianEigensystem, inner_sys: HermitianEigensystem,
                       flip: bool) -> Margin:
        outer_half = outer_sys.power_psd(r)
        inner_p = inner_sys.power_psd(p)
        x = outer_half @ inner_p @ outer_half
        x = 0.5 * (x + x.H)
        lhs = eigh_q(x).power_psd(1.0 / q)
        rhs = outer_sys.power_psd(expo)
        diff = (lhs - rhs) if not flip else (rhs - lhs)
        value = min_eigenvalue(0.5 * (diff + diff.H))
        scale = max(1.0, max(asys.eigenvalues[-1], 0.0) ** expo)
        witness = None
        if value < -tol * scale:
            witness = {"p": p, "q": q, "r": r, "probe": probe}
        return Margin(value=value, tolerance=tol, witness=witness,
                      details={"p": p, "q": q, "r": r, "scale": scale})

    first = bracket_margin(bsys, asys, flip=False)
    second = bracket_margin(asys, bsys, flip=True)
    return first, second


def check_chain_semihypo(t: QMatrix, *, tol: float = DEFAULT_TOL,
                         enforce: bool = True,
                         parts: PolarParts | None = None) -> tuple[Margin, Margin]:
    """Margins of the sandwich U* |T| U >= |T| >= U |T| U*.

    The sandwich is the workhorse step for semi-hyponormal operators, so
    by default the input must pass the semi-hyponormality margin; probes on
    nearby non-members set ``enforce=False`` and read the degradation.
    """
    pp = polar(t) if parts is None else parts
    opn = max(pp.sigmas)
    if enforce:
        semi = is_p_hyponormal(t, 0.5, tol=tol, parts=pp)
        if semi.value < -tol * max(1.0, opn):
            raise PreconditionError(
                f"operator is not semi-hyponormal (margin {semi.value:.3e})")
    u, abst = pp.u, pp.abs_t
    upper = u.H @ abst @ u - abst
    lower = abst - u @ abst @ u.H
    m1 = min_eigenvalue(0.5 * (upper + upper.H))
    m2 = min_eigenvalue(0.5 * (lower + lower.H))
    scale = max(1.0, opn)
    mk = lambda v: Margin(value=v, tolerance=tol,
                          witness=None if v >= -tol * scale else {"enforced": enforce},
                          details={"scale": scale})
    return mk(m1), mk(m2)


@dataclass(frozen=True)
class AluthgeReport:
    """Margins for the transform theorems at one exponent, and the transform."""

    p: float
    transform: QMatrix
    transform_margin: Margin
    monotone: tuple[tuple[float, Margin], ...]
    double_reading_a: Margin | None
    double_reading_b: Margin


def check_aluthge_theorems(t: QMatrix, p: float, *, tol: float = DEFAULT_TOL,
                           q_grid: Sequence[float] | None = None,
                           enforce: bool = True) -> AluthgeReport:
    """Transform margins for a p-hyponormal operator.

    For p in [1/2, 1] the transform must be hyponormal; for p in (0, 1/2)
    it must be (p + 1/2)-hyponormal.  The monotone ladder re-tests
    q-hyponormality for a descending grid q <= p.  The double-transform
    statement is checked twice because its hypothesis is ambiguous:
    reading A applies it only for p >= 1/2, reading B tracks the same
    margin for every p; both are reported, with the same pass criterion.
    The report carries the transform T~ itself as ``transform``.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {p}")
    opn = operator_norm(t)
    parts = polar(t)
    if enforce:
        base = is_p_hyponormal(t, p, tol=tol, parts=parts)
        if base.value < -tol * max(1.0, opn ** (2.0 * p)):
            raise PreconditionError(
                f"operator is not {p}-hyponormal (margin {base.value:.3e})")
    tt = aluthge(t, parts=parts)
    tt_parts = polar(tt)
    target = 1.0 if p >= 0.5 else p + 0.5
    transform_margin = is_p_hyponormal(tt, target, tol=tol, parts=tt_parts)

    grid = tuple(q_grid) if q_grid is not None else tuple(
        q for q in (p, 0.75 * p, 0.5 * p, 0.25 * p) if q > 1e-9)
    ladder = []
    for qv in grid:
        if not 0.0 < qv <= p:
            raise DomainError(f"monotone grid value {qv} outside (0, p]")
        ladder.append((qv, is_p_hyponormal(t, qv, tol=tol, parts=parts)))

    tt2 = aluthge(tt, parts=tt_parts)
    double = is_p_hyponormal(tt2, 1.0, tol=tol)
    reading_a = double if p >= 0.5 else None
    return AluthgeReport(
        p=p,
        transform=tt,
        transform_margin=transform_margin,
        monotone=tuple(ladder),
        double_reading_a=reading_a,
        double_reading_b=double,
    )


def check_eigenspace_reducing(t: QMatrix, q: Quaternion, *,
                              tol: float = DEFAULT_TOL,
                              kernel_rtol: float = 1e-6) -> Margin:
    """Reducing-subspace margin for the unitary polar factor's eigensphere.

    The polar isometry is completed to a unitary U, the kernel of the
    sphere polynomial of U at q is extracted, and the margin is
    -max(||(I-P)TP||, ||(I-P)T*P||) for P the projector onto that kernel.
    Zero margin means the subspace reduces T.
    """
    if abs(q.norm() - 1.0) > 1e-6:
        raise DomainError(f"unit quaternion expected, |q| = {q.norm():.6f}")
    parts = polar(t)
    u = unitary_completion(parts)
    rep = q.similarity_representative()
    kern = spherical_eigenspace(u, rep, rtol=kernel_rtol)
    if not kern:
        raise DomainError(f"{rep} is not a right eigenvalue of the polar unitary")
    n = t.rows
    proj = QMatrix.zeros(n, n)
    for z in kern:
        proj = proj + outer(z, z)
    comp = QMatrix.identity(n) - proj
    off1 = operator_norm(comp @ t @ proj)
    off2 = operator_norm(comp @ t.H @ proj)
    value = -max(off1, off2)
    scale = max(1.0, operator_norm(t))
    witness = None
    if value < -tol * scale:
        witness = {"q": matio.quaternion_to_json(q), "kernel_dim": len(kern)}
    return Margin(value=value, tolerance=tol, witness=witness,
                  details={"kernel_dim": len(kern), "scale": scale})


def invert(t: QMatrix, *, rtol: float = 1e-10) -> QMatrix:
    """Inverse through the complex embedding; structure-checked on the way back."""
    w, sing, vh = _eig.svd(embed_chi(t))
    if sing[-1] <= rtol * sing[0]:
        ratio = sing[-1] / sing[0] if sing[0] > 0.0 else 0.0
        raise DomainError(f"operator is singular (sigma_min/sigma_max = {ratio:.3e})")
    return unembed_chi((vh.conj().T / sing) @ w.conj().T, tol=1e-6)


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
    transformed operator is tested with the same beta, budget, and seed.
    """
    base = gcsi_margin(t, beta, budget=budget, seed=seed, tol=tol)
    if base.value < -tol:
        raise PreconditionError(
            f"base operator already violates the inequality (margin {base.value:.3e})")
    if which == "scalar":
        s = t * scalar
    elif which == "inverse":
        s = invert(t)
    elif which == "unitary-equiv":
        if unitary is None:
            raise DomainError("unitary-equiv closure needs a unitary")
        s = unitary.H @ t @ unitary
    elif which == "compression":
        if projector is None:
            raise DomainError("compression closure needs a projector onto an invariant subspace")
        res = operator_norm((QMatrix.identity(t.rows) - projector) @ t @ projector)
        if res > tol * max(1.0, operator_norm(t)):
            raise PreconditionError(f"subspace is not invariant (residual {res:.3e})")
        s = projector @ t @ projector
    else:
        raise DomainError(f"unknown closure operation {which!r}")
    transformed = gcsi_margin(s, beta, budget=budget, seed=seed, tol=tol)
    return ClosureReport(which=which, base=base, transformed=transformed)


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


def check_kernel_reduction(t: QMatrix, *, tol: float = DEFAULT_TOL,
                           rank_rtol: float = 1e-8) -> KernelReport:
    """Test ker T inside ker T* and ker T = ker T^2.

    Membership in the sampled inequality class forces both; the report is
    also useful in falsification mode, where a failure is consistent with
    a non-member.  Residuals are worst-case norms of T* (resp. T) on the
    computed kernel bases.
    """
    ker = kernel_basis(t, rtol=rank_rtol)
    ker_star = kernel_basis(t.H, rtol=rank_rtol)
    ker_sq = kernel_basis(t @ t, rtol=rank_rtol)
    subset = max(((t.H @ k).norm() for k in ker), default=0.0)
    equality = max(((t @ k).norm() for k in ker_sq), default=0.0)
    thr = tol * max(1.0, operator_norm(t))
    passes = (subset <= thr and len(ker) == len(ker_sq) and equality <= thr)
    return KernelReport(
        dim_ker=len(ker),
        dim_ker_star=len(ker_star),
        dim_ker_sq=len(ker_sq),
        subset_residual=subset,
        equality_residual=equality,
        threshold=thr,
        passes=passes,
    )


def check_tu_star(t: QMatrix, x: QVector, *, tol: float = DEFAULT_TOL,
                  parts: PolarParts | None = None) -> Margin:
    """Margin of ||T U* x||^2 <= ||T^2 U* x|| ||U* x|| at one vector."""
    pp = polar(t) if parts is None else parts
    y = pp.u.H @ x
    ty = t @ y
    t2y = t @ ty
    value = t2y.norm() * y.norm() - ty.norm() ** 2
    scale = max(1.0, operator_norm(t) ** 2)
    witness = None
    if value < -tol * scale:
        witness = {"x": matio.vector_to_json(x)}
    return Margin(value=value, tolerance=tol, witness=witness,
                  details={"scale": scale})


@dataclass(frozen=True)
class ConsistencyReport:
    """Three-way class consistency at one operator."""

    p: float
    p_hyponormal: Margin
    gcsi: Margin
    paranormal: Margin
    hard_violation: bool
    flagged: bool


def check_gcsi_implies(t: QMatrix, p: float = 0.5, *, budget: int = 400,
                       seed: int = 0, tol: float = DEFAULT_TOL,
                       grid: int = 64, samples: int = 400) -> ConsistencyReport:
    """Consistency of the implication chain at one operator.

    A p-hyponormal operator satisfies the sampled inequality with beta = p,
    and members of that class are paranormal.  ``hard_violation`` means the
    p-hyponormal margin passed while a certified inequality witness exists,
    which contradicts the implication outright.  ``flagged`` marks the
    softer inconsistency: sampling found no inequality witness, yet
    paranormality failed with a certificate, so the sampled evidence missed
    something.
    """
    hyp = is_p_hyponormal(t, p, tol=tol)
    gcsi = gcsi_margin(t, beta=p, budget=budget, seed=seed, tol=tol)
    para = is_paranormal(t, tol=tol, grid=grid, samples=samples,
                         seed=mix_seed(seed, 2))
    opn = operator_norm(t)
    hyp_pass = hyp.value >= -tol * max(1.0, opn ** (2.0 * p))
    hard = hyp_pass and gcsi.violated
    flagged = (not gcsi.violated) and para.violated
    return ConsistencyReport(
        p=p,
        p_hyponormal=hyp,
        gcsi=gcsi,
        paranormal=para,
        hard_violation=hard,
        flagged=flagged,
    )
