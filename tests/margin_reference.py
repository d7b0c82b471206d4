"""Per-instance margins, the test-side reference for the stacked evaluators
of ``qop.harness``.

``MARGINS`` maps each of the seven properties that scored one instance at a
time, before the library scored a chunk of instances as stacks, to that
per-instance evaluator: every operator factored by its own ``polar``, every
kernel from its own ``kernel_basis`` and every spectrum from its own
``standard_eigenvalues``, as they were before they took stacks, with the
whole-operator ``delta_q``, ``outer`` and ``QVector.norm`` behind them.  The
oracle checks below are the per-case versions the evaluators called.  The
module name keeps it out of pytest collection.
"""

from __future__ import annotations

import numpy as np

from qop import _eig, matio
from qop.errors import DomainError, PreconditionError, ShapeError, StructureError
from qop.harness import _hausdorff
from qop.linalg import (QMatrix, QVector, _from_chi_top, _from_psi, _pair_eigvalsh, _product,
                        _require_finite, _trusted, embed_chi)
from qop.oracles import Margin, _margin
from qop.quaternion import Quaternion
from qop.spectral import (_GS_ACCEPT, EIGENSPACE_RTOL, MERGE_TOL, PAIR_TOL, SphericalSpectrum,
                          _conjugate_pairs, _hermitian_from_chi,
                          _tolerant_order)
from qop.transforms import RANK_RTOL, PolarParts

# ------------------------------------------------------ whole-operator forms


def _norm(x: QVector) -> float:
    return float(np.sqrt((x.to_array() ** 2).sum()))


def outer(u: QVector, v: QVector) -> QMatrix:
    return _trusted(QMatrix, *_product(u._a[:, None], u._b[:, None],
                                       v._a.conj()[None, :], -v._b[None, :]))


def delta_q(t: QMatrix, q: Quaternion) -> QMatrix:
    return t @ t - t * (2.0 * q.w) + QMatrix.identity(t.rows) * q.norm_squared()


# ------------------------------------------------- per-operator factorizations


def _chi_svd(a: QMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w, s2, vh = _eig.svd(embed_chi(a))
    return w, s2.reshape(-1, 2).mean(axis=1), vh.conj().T


def polar(t: QMatrix) -> PolarParts:
    if not t.is_square():
        raise ShapeError(f"polar decomposition needs a square operator, got {t.shape}")
    w, sigma, v = _chi_svd(t)
    rank = int(np.count_nonzero(sigma > RANK_RTOL * float(sigma[0])))
    r2 = 2 * rank
    v_r = np.array(v[:, :r2])
    return PolarParts(
        u=_from_chi_top(w[:t.rows, :r2] @ v_r.conj().T),
        rank=rank,
        sigmas=tuple(sigma[::-1].tolist()),
        _v=v_r,
        _w=np.array(w),
        _s=np.repeat(sigma[:rank], 2),
        _ker_v=np.array(v[:, r2:]),
    )


def _quaternionic_basis(v: np.ndarray, need: int) -> list[QVector]:
    rest = np.array(v, dtype=np.complex128)
    n = rest.shape[0] // 2
    out: list[QVector] = []
    for _ in range(need):
        norms = np.linalg.norm(rest, axis=0)
        k = int(np.argmax(norms))
        if norms[k] <= _GS_ACCEPT:
            raise StructureError(
                f"eigenvector recovery produced {len(out)} of {need} vectors")
        x = rest[:, k] / norms[k]
        line = np.stack([x, np.concatenate([-np.conj(x[n:]), np.conj(x[:n])])], axis=1)
        rest -= line @ (line.conj().T @ rest)
        out.append(_from_psi(x))
    return out


def _null_basis(v: np.ndarray, need: int) -> tuple[QVector, ...]:
    out = []
    for x in _quaternionic_basis(v, need):
        lead = x[int(np.argmax((x.to_array() ** 2).sum(axis=1)))]
        out.append(x * (lead.conjugate() / lead.norm()))
    return tuple(out)


def bottom_vector(d: QMatrix) -> QVector:
    """The witness of D's least quadratic form: the bottom eigenvector of
    the Hermitian part of chi(D), pulled back with its largest entry made
    real and positive, as a null vector is."""
    m = embed_chi(d)
    return _null_basis(_eig.eigh((m + m.conj().T) / 2.0)[1][:, :1], 1)[0]


def kernel_basis(a: QMatrix, *, rtol: float = 1e-8) -> list[QVector]:
    if a.rows < a.cols:
        raise ShapeError("kernel extraction expects rows >= cols")
    _, sigma, v = _chi_svd(a)
    rank = int(np.count_nonzero(sigma > rtol * max(1.0, float(sigma[0]))))
    return list(_null_basis(v[:, 2 * rank:], a.cols - rank))


def standard_eigenvalues(t: QMatrix) -> tuple[complex, ...]:
    if not t.is_square():
        raise ShapeError(f"square operator required, got {t.shape}")
    vals = _eig.eigvals(embed_chi(t))
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    first, second, worst = _conjugate_pairs(vals)
    if worst > PAIR_TOL * scale:
        raise StructureError(
            f"conjugate pairing failure (worst gap {worst:.3e} at scale {scale:.3e})")
    sums = vals[first] + np.conj(vals[second])
    mids = np.empty_like(sums)
    mids.real = 0.5 * sums.real - 0.0 * sums.imag
    mids.imag = np.abs(0.5 * sums.imag + 0.0 * sums.real)
    return tuple(_tolerant_order(mids.tolist(), PAIR_TOL * scale))


def spherical_spectrum(t: QMatrix) -> SphericalSpectrum:
    reps = standard_eigenvalues(t)
    tol = MERGE_TOL * max(1.0, max(abs(z) for z in reps))
    classes: list[list[complex]] = []
    for z in reps:
        home = next((c for c in classes if abs(z - c[0]) <= tol), None)
        if home is None:
            classes.append([z])
        else:
            home.append(z)
    centers = tuple(complex(c[0].real + 0.0, c[0].imag + 0.0) if len(c) == 1 else
                    complex(np.mean([z.real for z in c]), np.mean([z.imag for z in c]))
                    for c in classes)
    return SphericalSpectrum(classes=centers, multiplicities=tuple(len(c) for c in classes),
                             radius=max(abs(z) for z in centers))


def operator_norm(a: QMatrix) -> float:
    gram = a.H @ a
    return float(np.sqrt(max(float(_pair_eigvalsh(gram._a, gram._b)[-1]), 0.0)))


def unitary_completion(parts: PolarParts) -> QMatrix:
    u = parts.u
    need = parts.u.rows - parts.rank
    cokernel = _null_basis(parts._w[:, 2 * parts.rank:], need)
    for x, y in zip(_null_basis(parts._ker_v, need), cokernel):
        u = u + outer(y, x)
    return u


def aluthge(parts: PolarParts) -> QMatrix:
    half = parts.abs_power(0.5)
    return half @ parts.u @ half


# ------------------------------------------------------------ oracle checks


def p_hyponormal_grid(parts: PolarParts, ps, tol: float) -> list[Margin]:
    fw = np.stack([parts._s ** (2.0 * p) for p in ps])
    ha, hb = _hermitian_from_chi(parts._v, fw)
    ya, yb = _hermitian_from_chi(parts._w[:, :2 * parts.rank], fw)
    da, db = ha - ya, hb - yb
    _require_finite(da, db, "QMatrix")
    values = _pair_eigvalsh(da, db)[:, 0]
    opn = max(parts.sigmas, default=0.0)
    out = []
    for p, value, a, b in zip(ps, values.tolist(), da, db):
        def witness(p=p, a=a, b=b):
            vec = bottom_vector(_trusted(QMatrix, a, b))
            return {"p": p, "vector": matio.vector_to_json(vec)}
        out.append(_margin(value, tol, max(1.0, opn ** (2.0 * p)), witness, p=p))
    return out


def check_chain_semihypo(t: QMatrix, tol: float, enforce: bool) -> tuple[Margin, Margin]:
    pp = polar(t)
    opn = max(pp.sigmas)
    if enforce:
        semi = p_hyponormal_grid(pp, (0.5,), tol)[0]
        if semi.violated:
            raise PreconditionError(f"operator is not semi-hyponormal (margin {semi.value:.3e})")
    u, abst = pp.u, pp.abs_t
    upper = u.H @ abst @ u - abst
    lower = abst - u @ abst @ u.H
    m1 = float(_pair_eigvalsh(upper._a, upper._b)[0])
    m2 = float(_pair_eigvalsh(lower._a, lower._b)[0])
    scale = max(1.0, opn)
    witness = lambda: {"enforced": enforce}
    return _margin(m1, tol, scale, witness), _margin(m2, tol, scale, witness)


def check_aluthge_theorems(t: QMatrix, p: float, tol: float, enforce: bool,
                           readings: bool) -> dict:
    """The transform and its margin, and with ``readings`` the ladder and the
    double transform."""
    if not 0.0 < p <= 1.0:
        raise DomainError(f"exponent must lie in (0, 1], got {p}")
    parts = polar(t)
    if enforce:
        base = p_hyponormal_grid(parts, (p,), tol)[0]
        if base.violated:
            raise PreconditionError(f"operator is not {p}-hyponormal (margin {base.value:.3e})")
    tt = aluthge(parts)
    tt_parts = polar(tt)
    target = 1.0 if p >= 0.5 else p + 0.5
    report = {"transform": tt, "transform_margin": p_hyponormal_grid(tt_parts, (target,), tol)[0]}
    if not readings:
        return report
    grid = tuple(q for q in (p, 0.75 * p, 0.5 * p, 0.25 * p) if q > 1e-9)
    report["monotone"] = tuple(zip(grid, p_hyponormal_grid(parts, grid, tol))) if grid else ()
    report["double"] = p_hyponormal_grid(polar(aluthge(tt_parts)), (1.0,), tol)[0]
    return report


def check_eigenspace_reducing(t: QMatrix, q: Quaternion, tol: float) -> Margin:
    if not abs(q.norm() - 1.0) <= 1e-6:
        raise DomainError(f"unit quaternion expected, |q| = {q.norm():.6f}")
    parts = polar(t)
    u = unitary_completion(parts)
    rep = q.similarity_representative()
    kern = kernel_basis(delta_q(u, Quaternion(rep.real, rep.imag, 0.0, 0.0)),
                        rtol=EIGENSPACE_RTOL)
    if not kern:
        raise DomainError(f"{rep} is not a right eigenvalue of the polar unitary")
    n = t.rows
    proj = QMatrix.zeros(n, n)
    for z in kern:
        proj = proj + outer(z, z)
    comp = QMatrix.identity(n) - proj
    off1 = operator_norm(comp @ t @ proj)
    off2 = operator_norm(comp @ t.H @ proj)
    witness = lambda: {"q": matio.quaternion_to_json(q), "kernel_dim": len(kern)}
    return _margin(-max(off1, off2), tol, max(1.0, max(parts.sigmas)), witness,
                   kernel_dim=len(kern))


def check_kernel_reduction(t: QMatrix) -> tuple[int, int, float, float]:
    """dim ker T, dim ker T^2 and the two residuals."""
    ker = kernel_basis(t)
    ker_sq = kernel_basis(t @ t)
    subset = max((_norm(t.H @ k) for k in ker), default=0.0)
    equality = max((_norm(t @ k) for k in ker_sq), default=0.0)
    return len(ker), len(ker_sq), subset, equality


def check_tu_star(t: QMatrix, x: QVector, tol: float) -> Margin:
    parts = polar(t)
    y = parts.u.H @ x
    ty = t @ y
    t2y = t @ ty
    value = _norm(t2y) * _norm(y) - _norm(ty) ** 2
    return _margin(value, tol, max(1.0, max(parts.sigmas) ** 2),
                   lambda: {"x": matio.vector_to_json(x)})


# ------------------------------------------------------------- the margins


def _scaled(m: Margin) -> float:
    return m.value / m.details["scale"]


def _chain_margin(inst, tol):
    m1, m2 = check_chain_semihypo(inst["T"], tol, not inst.get("probe", False))
    return min(m1.value, m2.value) / m1.details["scale"], {}


def _aluthge_margin(inst, tol):
    t, p = inst["T"], inst["p"]
    report = check_aluthge_theorems(t, p, tol, True, True)
    vals = [-(report["transform"] - t).frobenius() / max(1.0, max(polar(t).sigmas)),
            _scaled(report["transform_margin"])]
    vals += [_scaled(m) for _, m in report["monotone"]]
    if p >= 0.5:
        vals.append(_scaled(report["double"]))
    vals.append(_scaled(report["double"]))
    return min(vals), {}


def _aluthge_gain_margin(inst, tol):
    report = check_aluthge_theorems(inst["T"], inst["p"], tol, not inst.get("probe", False),
                                    False)
    return _scaled(report["transform_margin"]), {}


def _eigenspace_margin(inst, tol):
    return _scaled(check_eigenspace_reducing(inst["T"], inst["q"], tol)), {}


def _kernel_margin(inst, tol):
    t = inst["T"]
    dim_ker, dim_ker_sq, subset, equality = check_kernel_reduction(t)
    scale = max(1.0, max(polar(t).sigmas))
    vals = [-subset / scale, -equality / scale]
    if dim_ker != dim_ker_sq:
        vals.append(-1.0)
    return min(vals), {}


def _tu_star_margin(inst, tol):
    return _scaled(check_tu_star(inst["T"], inst["x"], tol)), {}


def _st_ts_margin(inst, tol):
    s, t = inst["S"], inst["T"]
    reps_st = list(spherical_spectrum(s @ t).classes) + [0j]
    reps_ts = list(spherical_spectrum(t @ s).classes) + [0j]
    r_st = max(abs(z) for z in reps_st)
    r_ts = max(abs(z) for z in reps_ts)
    scale = max(1.0, r_st, r_ts)
    dist = _hausdorff(reps_st, reps_ts)
    return min(-dist / (100.0 * scale), -abs(r_st - r_ts) / scale), {}


MARGINS = {
    "chain": _chain_margin,
    "aluthge": _aluthge_margin,
    "aluthge-gain": _aluthge_gain_margin,
    "eigenspace-reducing": _eigenspace_margin,
    "kernel-reduction": _kernel_margin,
    "tu-star": _tu_star_margin,
    "spectrum-st-ts": _st_ts_margin,
}
