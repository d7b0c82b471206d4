"""Randomized verification engine over the theorem oracles.

Each named property owns a trial function: given a trial seed it draws an
instance from the generators, runs the matching oracle, and reports one
dimensionless margin (raw margin divided by an instance scale), so a single
tolerance applies uniformly across properties.  Per-trial seeds are derived
as mix_seed(seed, index); the aggregate is a deterministic min-fold with
ties broken by lowest trial index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import generators, matio, oracles
from .errors import DomainError, PreconditionError, QopError
from .linalg import QMatrix, QVector, operator_norm
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .spectral import eigh_q, rayleigh_bounds, spherical_spectrum
from .transforms import aluthge, polar

DEFAULT_TOL = oracles.DEFAULT_TOL
DEFAULT_DIM = 4

LH_R_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
HM_R_GRID = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
HYP_P_GRID = (0.25, 0.5, 1.0)

PROBE_PAIR_A = ((2.0, 1.0), (1.0, 1.0))
PROBE_PAIR_B = ((1.0, 0.0), (0.0, 0.0))


@dataclass(frozen=True)
class TrialContext:
    trial_seed: int
    index: int
    dim: int
    tol: float
    probe: bool


@dataclass(frozen=True)
class TrialOutcome:
    margin: float
    witness: dict[str, Any] | None = None
    instance: dict[str, Any] | None = None


@dataclass(frozen=True)
class VerificationReport:
    property: str
    trials: int
    seed: int
    dim: int
    tol: float
    min_margin: float
    witness: dict[str, Any] | None
    per_trial: tuple[tuple[int, float], ...]

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "property": self.property,
            "trials": self.trials,
            "seed": self.seed,
            "dim": self.dim,
            "tol": self.tol,
            "min_margin": self.min_margin,
            "per_trial": [[s, m] for s, m in self.per_trial],
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def dumps(self) -> str:
        return matio.dumps_canonical(self.to_json())


def _scale_op(t: QMatrix) -> float:
    return max(1.0, operator_norm(t))


def _random_unit_quaternion(stream: SplitMix64) -> Quaternion:
    while True:
        c = stream.normals(4)
        n = float(np.sqrt((c ** 2).sum()))
        if n > 1e-6:
            return Quaternion(float(c[0] / n), float(c[1] / n),
                              float(c[2] / n), float(c[3] / n))


def _mat_witness(name: str, m: QMatrix) -> dict[str, Any]:
    return {name: matio.matrix_to_json(m)}


# ---------------------------------------------------------------- trials


def _trial_lowner_heinz(ctx: TrialContext) -> TrialOutcome:
    if ctx.probe:
        stream = SplitMix64(mix_seed(ctx.trial_seed, 3))
        if ctx.index == 0:
            a = QMatrix.from_quaternions(PROBE_PAIR_A)
            b = QMatrix.from_quaternions(PROBE_PAIR_B)
            r = 2.0
        else:
            a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
            r = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        m = oracles.check_lowner_heinz(a, b, r, tol=ctx.tol, probe=True)
        norm = m.value / m.details["scale"]
        wit = None
        if norm < -ctx.tol:
            wit = {"r": r, "A": matio.matrix_to_json(a), "B": matio.matrix_to_json(b)}
        return TrialOutcome(norm, wit, {"A": a, "B": b, "r": r})

    a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
    ssys = eigh_q(0.5 * (a + a.H))
    tsys = eigh_q(0.5 * (b + b.H))
    worst = math.inf
    worst_r = LH_R_GRID[0]
    for r in LH_R_GRID:
        m = oracles.check_lowner_heinz(a, b, r, tol=ctx.tol,
                                       s_system=ssys, t_system=tsys)
        norm = m.value / m.details["scale"]
        if norm < worst:
            worst, worst_r = norm, r
    wit = None
    if worst < -ctx.tol:
        wit = {"r": worst_r, "A": matio.matrix_to_json(a), "B": matio.matrix_to_json(b)}
    return TrialOutcome(worst, wit, {"A": a, "B": b, "r": worst_r})


def _trial_holder_mccarthy(ctx: TrialContext) -> TrialOutcome:
    t = generators.positive(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))
    x = generators.unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    system = eigh_q(0.5 * (t + t.H))
    worst = math.inf
    worst_r = HM_R_GRID[0]
    for r in HM_R_GRID:
        m = oracles.check_holder_mccarthy(t, x, r, tol=ctx.tol, system=system)
        scale = max(1.0, abs(m.details["lhs"]), abs(m.details["rhs"]))
        norm = m.value / scale
        if norm < worst:
            worst, worst_r = norm, r
    wit = None
    if worst < -ctx.tol:
        wit = {"r": worst_r, "T": matio.matrix_to_json(t), "x": matio.vector_to_json(x)}
    return TrialOutcome(worst, wit, {"T": t, "x": x, "r": worst_r})


def _draw_furuta_exponents(stream: SplitMix64, violating: bool) -> tuple[float, float, float]:
    for _ in range(200):
        p = 3.0 * stream.uniform(0.0, 1.0)
        r = 2.0 * stream.uniform(0.0, 1.0)
        q = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        ok = (1.0 + 2.0 * r) * q >= p + 2.0 * r
        if ok != violating:
            return p, q, r
    return (3.0, 1.0, 0.0) if violating else (1.0, 1.0, 0.0)


def _trial_furuta(ctx: TrialContext) -> TrialOutcome:
    a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
    stream = SplitMix64(mix_seed(ctx.trial_seed, 5))
    p, q, r = _draw_furuta_exponents(stream, violating=ctx.probe)
    m1, m2 = oracles.check_furuta(a, b, p, q, r, tol=ctx.tol, probe=ctx.probe)
    norm = min(m1.value / m1.details["scale"], m2.value / m2.details["scale"])
    wit = None
    if norm < -ctx.tol:
        wit = {"p": p, "q": q, "r": r, "probe": ctx.probe,
               "A": matio.matrix_to_json(a), "B": matio.matrix_to_json(b)}
    return TrialOutcome(norm, wit, {"A": a, "B": b, "p": p, "q": q, "r": r})


def _random_spectrum(stream: SplitMix64, n: int, *, min_radius: float = 0.0,
                     zeros: int = 0) -> list[Quaternion]:
    values: list[Quaternion] = []
    for i in range(n):
        if i < zeros:
            values.append(Quaternion(0.0, 0.0, 0.0, 0.0))
            continue
        u = _random_unit_quaternion(stream)
        radius = min_radius + 0.2 + 1.8 * stream.uniform(0.0, 1.0)
        values.append(u * Quaternion(radius, 0.0, 0.0, 0.0))
    return values


def _trial_chain(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.probe:
        eps = 10.0 ** (-1.0 - 3.0 * stream.uniform(0.0, 1.0))
        t = generators.near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
        m1, m2 = oracles.check_chain_semihypo(t, tol=ctx.tol, enforce=False)
    else:
        vals = _random_spectrum(stream, ctx.dim)
        t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
        m1, m2 = oracles.check_chain_semihypo(t, tol=ctx.tol)
    scale = m1.details["scale"]
    norm = min(m1.value, m2.value) / scale
    wit = _mat_witness("T", t) if norm < -ctx.tol else None
    return TrialOutcome(norm, wit, {"T": t})


def _aluthge_margins(t: QMatrix, p: float, tol: float, enforce: bool) -> float:
    fixed = -(aluthge(t) - t).frobenius() / _scale_op(t)
    report = oracles.check_aluthge_theorems(t, p, tol=tol, enforce=enforce)
    vals = [fixed, report.transform_margin.value / report.transform_margin.details["scale"]]
    for _, m in report.monotone:
        vals.append(m.value / m.details["scale"])
    if report.double_reading_a is not None:
        vals.append(report.double_reading_a.value / report.double_reading_a.details["scale"])
    vals.append(report.double_reading_b.value / report.double_reading_b.details["scale"])
    return min(vals)


def _trial_aluthge(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        vals = _random_spectrum(stream, ctx.dim)
        t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    p = 0.5 + 0.5 * stream.uniform(0.0, 1.0)
    norm = _aluthge_margins(t, p, ctx.tol, enforce=True)
    wit = None
    if norm < -ctx.tol:
        wit = {"p": p, "T": matio.matrix_to_json(t)}
    return TrialOutcome(norm, wit, {"T": t, "p": p})


def _trial_aluthge_gain(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    p = 0.05 + 0.4 * stream.uniform(0.0, 1.0)
    if ctx.probe:
        eps = 10.0 ** (-2.0 - 2.0 * stream.uniform(0.0, 1.0))
        t = generators.near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
        enforce = False
    else:
        vals = _random_spectrum(stream, ctx.dim)
        t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
        enforce = True
    report = oracles.check_aluthge_theorems(t, p, tol=ctx.tol, enforce=enforce)
    m = report.transform_margin
    norm = m.value / m.details["scale"]
    wit = None
    if norm < -ctx.tol:
        wit = {"p": p, "probe": ctx.probe, "T": matio.matrix_to_json(t)}
    return TrialOutcome(norm, wit, {"T": t, "p": p})


def _trial_eigenspace_reducing(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    units = [_random_unit_quaternion(stream) for _ in range(ctx.dim)]
    vals = []
    for u in units:
        radius = 0.3 + 2.0 * stream.uniform(0.0, 1.0)
        vals.append(u * Quaternion(radius, 0.0, 0.0, 0.0))
    t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
    q = units[0]
    m = oracles.check_eigenspace_reducing(t, q, tol=ctx.tol)
    norm = m.value / m.details["scale"]
    wit = None
    if norm < -ctx.tol:
        wit = {"q": matio.quaternion_to_json(q), "T": matio.matrix_to_json(t)}
    return TrialOutcome(norm, wit, {"T": t, "q": q})


_CLOSURE_CYCLE = ("scalar", "inverse", "unitary-equiv", "compression")


def _block_unitary(dim: int, seed: int) -> tuple[QMatrix, QMatrix]:
    """Block-diagonal unitary and the projector onto its leading block."""
    n1 = max(dim // 2, 1)
    n2 = dim - n1
    t = np.zeros((dim, dim, 4))
    t[:n1, :n1] = generators.random_unitary(n1, seed=mix_seed(seed, 0)).to_array()
    if n2 > 0:
        t[n1:, n1:] = generators.random_unitary(n2, seed=mix_seed(seed, 1)).to_array()
    proj = np.zeros((dim, dim, 4))
    proj[np.arange(n1), np.arange(n1), 0] = 1.0
    return QMatrix(t), QMatrix(proj)


def _trial_gcsi_closure(ctx: TrialContext) -> TrialOutcome:
    which = _CLOSURE_CYCLE[ctx.index % len(_CLOSURE_CYCLE)]
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    inst: dict[str, Any] = {"which": which, "seed": mix_seed(ctx.trial_seed, 3)}
    if which == "compression":
        inst["T"], inst["projector"] = _block_unitary(ctx.dim, mix_seed(ctx.trial_seed, 1))
    else:
        inst["T"] = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
        if which == "scalar":
            inst["scalar"] = 0.5 + 2.0 * stream.uniform(0.0, 1.0)
        elif which == "unitary-equiv":
            inst["unitary"] = generators.random_unitary(
                ctx.dim, seed=mix_seed(ctx.trial_seed, 2))
    norm, report = _closure_margin(inst, ctx.tol)
    wit = None
    if norm < -ctx.tol:
        wit = {"which": which, "T": matio.matrix_to_json(inst["T"])}
        if report.transformed.witness is not None:
            wit["pair"] = report.transformed.witness
    return TrialOutcome(norm, wit, inst)


def _closure_margin(inst: dict[str, Any], tol: float) -> tuple[float, oracles.ClosureReport]:
    """Base and transformed margins, each over its own operator's scale."""
    t = inst["T"]
    kwargs = {k: inst[k] for k in ("scalar", "unitary", "projector") if k in inst}
    report = oracles.check_gcsi_closure(t, inst["which"], beta=0.5, budget=300,
                                        seed=inst["seed"], tol=tol, **kwargs)
    base = report.base.value / _scale_op(t)
    scale_s = max(1.0, abs(kwargs.get("scalar", 1.0)) * operator_norm(t))
    return min(base, report.transformed.value / scale_s), report


def _kernel_margin(report: oracles.KernelReport, t: QMatrix) -> float:
    scale = _scale_op(t)
    vals = [-report.subset_residual / scale, -report.equality_residual / scale]
    if report.dim_ker != report.dim_ker_sq:
        vals.append(-1.0)
    return min(vals)


def _trial_kernel_reduction(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    zeros = 1 + ctx.index % max(ctx.dim - 1, 1)
    vals = _random_spectrum(stream, ctx.dim, zeros=zeros)
    t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
    report = oracles.check_kernel_reduction(t, tol=ctx.tol)
    norm = _kernel_margin(report, t)
    wit = _mat_witness("T", t) if norm < -ctx.tol else None
    return TrialOutcome(norm, wit, {"T": t})


def _trial_tu_star(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        t = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    else:
        vals = _random_spectrum(stream, ctx.dim)
        t = generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))
    x = generators.unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 2))
    m = oracles.check_tu_star(t, x, tol=ctx.tol)
    norm = m.value / m.details["scale"]
    wit = None
    if norm < -ctx.tol:
        wit = {"T": matio.matrix_to_json(t), "x": matio.vector_to_json(x)}
    return TrialOutcome(norm, wit, {"T": t, "x": x})


def _trial_gcsi_implies(ctx: TrialContext) -> TrialOutcome:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    family = ctx.index % 4
    sub = mix_seed(ctx.trial_seed, 1)
    if family == 0:
        t = generators.random_unitary(ctx.dim, seed=sub)
    elif family == 1:
        vals = _random_spectrum(stream, ctx.dim)
        t = generators.normal_with_spectrum(vals, seed=sub)
    elif family == 2:
        t = generators.positive(ctx.dim, seed=sub)
    else:
        t = generators.ginibre(ctx.dim, seed=sub)
    inst = {"T": t, "p": 0.25 + 0.5 * stream.uniform(0.0, 1.0),
            "seed": mix_seed(ctx.trial_seed, 2)}
    norm, report = _implies_margin(inst, ctx.tol)
    wit = None
    if norm < -ctx.tol:
        wit = {"p": inst["p"], "T": matio.matrix_to_json(t),
               "gcsi_witness": report.gcsi.witness}
    return TrialOutcome(norm, wit, inst)


def _implies_margin(inst: dict[str, Any], tol: float) -> tuple[float, oracles.ConsistencyReport]:
    """0, or -1 on a hard violation, with the GCSI oracle sampled at the instance's seed."""
    report = oracles.check_gcsi_implies(inst["T"], inst["p"], budget=300, seed=inst["seed"],
                                        tol=tol, grid=48, samples=300)
    return (-1.0 if report.hard_violation else 0.0), report


def _collapse_margin(t: QMatrix, tol: float) -> float:
    gram = t.H @ t
    co = t @ t.H
    scale = max(1.0, operator_norm(t)) ** 2
    normality = (gram - co).frobenius()
    gsys = eigh_q(gram)
    csys = eigh_q(co)
    vals = []
    for p in HYP_P_GRID:
        tr_g = gsys.power_psd(p).trace().w
        tr_c = csys.power_psd(p).trace().w
        tr_scale = max(1.0, abs(tr_g), abs(tr_c))
        vals.append(-abs(tr_g - tr_c) / tr_scale)
        if normality > 1e-4 * scale:
            hyp = oracles.is_p_hyponormal(t, p, tol=tol)
            if hyp.value >= 0.0:
                vals.append(-1.0)
    return min(vals)


def _trial_collapse(ctx: TrialContext) -> TrialOutcome:
    t = generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))
    norm = _collapse_margin(t, ctx.tol)
    wit = _mat_witness("T", t) if norm < -ctx.tol else None
    return TrialOutcome(norm, wit, {"T": t})


def _class_reps_with_zero(t: QMatrix) -> list[complex]:
    spec = spherical_spectrum(t)
    reps = list(spec.classes)
    reps.append(0.0 + 0.0j)
    return reps


def _hausdorff(a: list[complex], b: list[complex]) -> float:
    if not a or not b:
        return math.inf
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


def _st_ts_margin(s: QMatrix, t: QMatrix) -> float:
    reps_st = _class_reps_with_zero(s @ t)
    reps_ts = _class_reps_with_zero(t @ s)
    r_st = max(abs(z) for z in reps_st)
    r_ts = max(abs(z) for z in reps_ts)
    scale = max(1.0, r_st, r_ts)
    dist = _hausdorff(reps_st, reps_ts)
    return min(-dist / (100.0 * scale), -abs(r_st - r_ts) / scale)


def _trial_spectrum_st_ts(ctx: TrialContext) -> TrialOutcome:
    s = generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))
    t = generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    norm = _st_ts_margin(s, t)
    wit = None
    if norm < -ctx.tol:
        wit = {"S": matio.matrix_to_json(s), "T": matio.matrix_to_json(t)}
    return TrialOutcome(norm, wit, {"S": s, "T": t})


def _conjugation_margin(u: QMatrix, s: QMatrix) -> float:
    s = 0.5 * (s + s.H)
    lo, _ = rayleigh_bounds(s)
    shift = -lo + 1.0

    def f(x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(x + shift, 0.0))

    fs = eigh_q(s).apply(f)
    conj = u @ s @ u.H
    lhs = eigh_q(0.5 * (conj + conj.H)).apply(f)
    rhs = u @ fs @ u.H
    return -(lhs - rhs).frobenius() / max(1.0, fs.frobenius())


def _trial_conjugation(ctx: TrialContext) -> TrialOutcome:
    u = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))
    s = generators.hermitian(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    norm = _conjugation_margin(u, s)
    wit = None
    if norm < -ctx.tol:
        wit = {"U": matio.matrix_to_json(u), "S": matio.matrix_to_json(s)}
    return TrialOutcome(norm, wit, {"U": u, "S": s})


PROPERTIES: dict[str, Callable[[TrialContext], TrialOutcome]] = {
    "lowner-heinz": _trial_lowner_heinz,
    "holder-mccarthy": _trial_holder_mccarthy,
    "furuta": _trial_furuta,
    "chain": _trial_chain,
    "aluthge": _trial_aluthge,
    "aluthge-gain": _trial_aluthge_gain,
    "eigenspace-reducing": _trial_eigenspace_reducing,
    "gcsi-closure": _trial_gcsi_closure,
    "kernel-reduction": _trial_kernel_reduction,
    "tu-star": _trial_tu_star,
    "gcsi-implies": _trial_gcsi_implies,
    "collapse": _trial_collapse,
    "spectrum-st-ts": _trial_spectrum_st_ts,
    "conjugation-lemma": _trial_conjugation,
}


def run_verify(prop: str, *, trials: int, seed: int, dim: int = DEFAULT_DIM,
               tol: float = DEFAULT_TOL, probe: bool = False) -> VerificationReport:
    """Run `trials` independent trials of a named property.

    The report's witness is present exactly when min_margin < -tol; it is
    the violating trial's own witness when the oracle produced one, or a
    pointer to the trial seed otherwise.
    """
    if prop not in PROPERTIES:
        raise DomainError(f"unknown property {prop!r}; known: {', '.join(sorted(PROPERTIES))}")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    fn = PROPERTIES[prop]
    per: list[tuple[int, float]] = []
    min_margin = math.inf
    best_witness: dict[str, Any] | None = None
    best_seed = 0
    for idx in range(trials):
        ts = mix_seed(seed, idx)
        out = fn(TrialContext(ts, idx, dim, tol, probe))
        per.append((ts, float(out.margin)))
        if out.margin < min_margin:
            min_margin = float(out.margin)
            best_witness = out.witness
            best_seed = ts
    witness = None
    if min_margin < -tol:
        witness = dict(best_witness) if best_witness is not None else {}
        witness.setdefault("trial_seed", best_seed)
        witness["margin"] = min_margin
    return VerificationReport(
        property=prop, trials=trials, seed=seed, dim=dim, tol=tol,
        min_margin=min_margin, witness=witness, per_trial=tuple(per))


# ------------------------------------------------- instance re-evaluation


def _eval_lowner_heinz(inst: dict[str, Any], tol: float) -> float:
    m = oracles.check_lowner_heinz(inst["A"], inst["B"], inst["r"], tol=tol, probe=True)
    return m.value / m.details["scale"]


def _eval_furuta(inst: dict[str, Any], tol: float) -> float:
    m1, m2 = oracles.check_furuta(inst["A"], inst["B"], inst["p"], inst["q"],
                                  inst["r"], tol=tol, probe=True)
    return min(m1.value / m1.details["scale"], m2.value / m2.details["scale"])


def _eval_holder_mccarthy(inst: dict[str, Any], tol: float) -> float:
    m = oracles.check_holder_mccarthy(inst["T"], inst["x"], inst["r"], tol=tol)
    scale = max(1.0, abs(m.details["lhs"]), abs(m.details["rhs"]))
    return m.value / scale


def _eval_chain(inst: dict[str, Any], tol: float) -> float:
    m1, m2 = oracles.check_chain_semihypo(inst["T"], tol=tol, enforce=False)
    return min(m1.value, m2.value) / m1.details["scale"]


def _eval_aluthge(inst: dict[str, Any], tol: float) -> float:
    return _aluthge_margins(inst["T"], inst["p"], tol, enforce=False)


def _eval_aluthge_gain(inst: dict[str, Any], tol: float) -> float:
    report = oracles.check_aluthge_theorems(inst["T"], inst["p"], tol=tol, enforce=False)
    m = report.transform_margin
    return m.value / m.details["scale"]


def _eval_eigenspace(inst: dict[str, Any], tol: float) -> float:
    m = oracles.check_eigenspace_reducing(inst["T"], inst["q"], tol=tol)
    return m.value / m.details["scale"]


def _eval_gcsi_closure(inst: dict[str, Any], tol: float) -> float:
    return _closure_margin(inst, tol)[0]


def _eval_kernel_reduction(inst: dict[str, Any], tol: float) -> float:
    return _kernel_margin(oracles.check_kernel_reduction(inst["T"], tol=tol), inst["T"])


def _eval_tu_star(inst: dict[str, Any], tol: float) -> float:
    m = oracles.check_tu_star(inst["T"], inst["x"], tol=tol)
    return m.value / m.details["scale"]


def _eval_gcsi_implies(inst: dict[str, Any], tol: float) -> float:
    return _implies_margin(inst, tol)[0]


def _eval_collapse(inst: dict[str, Any], tol: float) -> float:
    return _collapse_margin(inst["T"], tol)


def _eval_spectrum_st_ts(inst: dict[str, Any], tol: float) -> float:
    return _st_ts_margin(inst["S"], inst["T"])


def _eval_conjugation(inst: dict[str, Any], tol: float) -> float:
    return _conjugation_margin(inst["U"], inst["S"])


_EVALUATORS: dict[str, Callable[[dict[str, Any], float], float]] = {
    "lowner-heinz": _eval_lowner_heinz,
    "holder-mccarthy": _eval_holder_mccarthy,
    "furuta": _eval_furuta,
    "chain": _eval_chain,
    "aluthge": _eval_aluthge,
    "aluthge-gain": _eval_aluthge_gain,
    "eigenspace-reducing": _eval_eigenspace,
    "gcsi-closure": _eval_gcsi_closure,
    "kernel-reduction": _eval_kernel_reduction,
    "tu-star": _eval_tu_star,
    "gcsi-implies": _eval_gcsi_implies,
    "collapse": _eval_collapse,
    "spectrum-st-ts": _eval_spectrum_st_ts,
    "conjugation-lemma": _eval_conjugation,
}


def evaluate_instance(prop: str, instance: dict[str, Any],
                      tol: float = DEFAULT_TOL) -> float:
    """Dimensionless margin of a concrete instance under a named property."""
    if prop not in _EVALUATORS:
        raise DomainError(f"no instance evaluator for property {prop!r}")
    return _EVALUATORS[prop](instance, tol)


def _zero_entry_candidates(val: Any) -> list[tuple[Any, Any]]:
    """(position, zeroed copy) pairs, in row-major order, nonzero entries only."""
    if not isinstance(val, (QMatrix, QVector)):
        return []
    arr = val.to_array()
    out: list[tuple[Any, Any]] = []
    for pos in map(tuple, np.argwhere(arr.any(axis=-1)).tolist()):
        cand = arr.copy()
        cand[pos] = 0.0
        out.append((pos if len(pos) > 1 else pos[0], type(val)(cand)))
    return out


def minimize_counterexample(prop: str, instance: dict[str, Any], *,
                            budget: int = 512,
                            tol: float = DEFAULT_TOL) -> dict[str, Any]:
    """Greedy shrink of a violating instance by zeroing quaternion entries.

    Pass order is deterministic: instance keys sorted by name, entries in
    row-major order, repeated until a full sweep makes no progress or the
    evaluation budget runs out.  A candidate is accepted only if it still
    violates (margin < -tol); candidates that break a precondition are
    rejected and charged to the budget.  Raises PreconditionError if the
    input itself does not violate.
    """
    margin = evaluate_instance(prop, instance, tol)
    evals = 1
    if margin >= -tol:
        raise PreconditionError(
            f"instance does not violate {prop!r} (margin {margin:.3e} >= {-tol:.1e})")
    current = dict(instance)
    improved = True
    while improved and evals < budget:
        improved = False
        for key in sorted(current):
            for _, cand_val in _zero_entry_candidates(current[key]):
                if evals >= budget:
                    return current
                cand = dict(current)
                cand[key] = cand_val
                evals += 1
                try:
                    m = evaluate_instance(prop, cand, tol)
                except QopError:
                    continue
                if m < -tol:
                    current = cand
                    improved = True
                    break
    return current


def _serialize_instance(instance: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, val in instance.items():
        if isinstance(val, QMatrix):
            out[key] = matio.matrix_to_json(val)
        elif isinstance(val, QVector):
            out[key] = matio.vector_to_json(val)
        elif isinstance(val, Quaternion):
            out[key] = matio.quaternion_to_json(val)
        else:
            out[key] = val
    return out


def run_fuzz(prop: str, *, budget: int, seed: int, dim: int = DEFAULT_DIM,
             tol: float = DEFAULT_TOL,
             shrink_budget: int = 256) -> VerificationReport:
    """Draw trials until the budget is spent or a violation appears.

    On violation the instance is shrunk with minimize_counterexample and
    the report's witness carries both the original oracle witness and the
    shrunken instance.
    """
    if prop not in PROPERTIES:
        raise DomainError(f"unknown property {prop!r}; known: {', '.join(sorted(PROPERTIES))}")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    fn = PROPERTIES[prop]
    per: list[tuple[int, float]] = []
    min_margin = math.inf
    witness: dict[str, Any] | None = None
    for idx in range(budget):
        ts = mix_seed(seed, idx)
        out = fn(TrialContext(ts, idx, dim, tol, False))
        per.append((ts, float(out.margin)))
        min_margin = min(min_margin, float(out.margin))
        if out.margin < -tol:
            witness = dict(out.witness) if out.witness is not None else {}
            witness["trial_seed"] = ts
            witness["margin"] = float(out.margin)
            if out.instance is not None and prop in _EVALUATORS:
                shrunk = minimize_counterexample(prop, out.instance,
                                                 budget=shrink_budget, tol=tol)
                witness["shrunk"] = _serialize_instance(shrunk)
                witness["shrunk_margin"] = evaluate_instance(prop, shrunk, tol)
            break
    return VerificationReport(
        property=prop, trials=len(per), seed=seed, dim=dim, tol=tol,
        min_margin=min_margin, witness=witness, per_trial=tuple(per))
