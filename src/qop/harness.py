"""Randomized verification engine over the theorem oracles.

Each named property is one ``Property`` record.  Its ``draw`` builds an
instance (operators, vectors, exponents) from a trial's seeds, and its
``evaluate`` scores an instance as one dimensionless margin (raw margin
divided by an instance scale), so a single tolerance applies uniformly
across properties.  A trial is ``evaluate(draw(ctx))``, and the shrinker
scores its candidates with the same ``evaluate``, so it minimises exactly
what the trial measured, hypotheses included.  Per-trial seeds are derived
as mix_seed(seed, index); the aggregate is a deterministic min-fold with
ties broken by lowest trial index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import generators, matio, oracles
from .errors import DomainError, PreconditionError, QopError
from .linalg import QMatrix, QVector, operator_norm
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .spectral import eigh_q, rayleigh_bounds, spherical_spectrum

DEFAULT_TOL = oracles.DEFAULT_TOL
DEFAULT_DIM = 4

LH_R_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
HM_R_GRID = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
HYP_P_GRID = (0.25, 0.5, 1.0)

PROBE_PAIR_A = ((2.0, 1.0), (1.0, 1.0))
PROBE_PAIR_B = ((1.0, 0.0), (0.0, 0.0))

Instance = dict[str, Any]


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
    witness: dict[str, Any] | None
    instance: Instance


@dataclass(frozen=True)
class Property:
    """A named property; calling it with a TrialContext runs one trial.

    ``draw`` builds an instance from the trial's seeds.  ``evaluate`` scores
    an instance and returns the margin with the witness entries that are not
    instance fields; an exponent grid in the instance is replaced by its
    worst exponent.  ``witness_keys`` are the instance fields a witness
    reports.  The record is not slotted, so a ``functools.wraps`` wrapper
    around it still exposes ``evaluate``.
    """

    draw: Callable[[TrialContext], Instance]
    evaluate: Callable[[Instance, float], tuple[float, dict[str, Any]]]
    witness_keys: tuple[str, ...]

    def __call__(self, ctx: TrialContext) -> TrialOutcome:
        inst = self.draw(ctx)
        margin, extras = self.evaluate(inst, ctx.tol)
        witness = None
        if margin < -ctx.tol:
            witness = _serialize_instance({k: inst[k] for k in self.witness_keys})
            witness.update(extras)
        return TrialOutcome(margin, witness, inst)


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


def _scaled(m: oracles.Margin) -> float:
    return m.value / m.details["scale"]


def _random_unit_quaternion(stream: SplitMix64) -> Quaternion:
    while True:
        c = stream.normals(4)
        n = float(np.sqrt((c ** 2).sum()))
        if n > 1e-6:
            return Quaternion(float(c[0] / n), float(c[1] / n),
                              float(c[2] / n), float(c[3] / n))


def _random_normal(ctx: TrialContext, stream: SplitMix64, zeros: int = 0) -> QMatrix:
    """Normal operator: `zeros` zero eigenvalues, the rest of modulus in [0.2, 2)."""
    vals = [Quaternion(0.0, 0.0, 0.0, 0.0)] * zeros
    for _ in range(ctx.dim - zeros):
        u = _random_unit_quaternion(stream)
        vals.append(u * Quaternion(0.2 + 1.8 * stream.uniform(0.0, 1.0), 0.0, 0.0, 0.0))
    return generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))


def _worst_over_r(inst: Instance, margin_at: Callable[[float], float]) -> float:
    """Least margin over inst["r"]; a tuple there is a grid, replaced by its argmin."""
    grid = inst["r"] if isinstance(inst["r"], tuple) else (inst["r"],)
    worst, inst["r"] = min(((margin_at(r), r) for r in grid), key=lambda mr: mr[0])
    return worst


# ------------------------------------------------------------ properties


def _draw_lowner_heinz(ctx: TrialContext) -> Instance:
    if not ctx.probe:
        a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
        return {"A": a, "B": b, "r": LH_R_GRID}
    if ctx.index == 0:
        return {"A": QMatrix.from_quaternions(PROBE_PAIR_A),
                "B": QMatrix.from_quaternions(PROBE_PAIR_B), "r": 2.0}
    a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
    stream = SplitMix64(mix_seed(ctx.trial_seed, 3))
    return {"A": a, "B": b, "r": 1.0 + 2.0 * stream.uniform(0.0, 1.0)}


def _lowner_heinz_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """S^r >= T^r; an exponent r > 1 lies outside the theorem and is a probe."""
    a, b = inst["A"], inst["B"]
    # a grid shares one eigensolve per operator and one of S - T, which every
    # exponent's order check reads; a single exponent lets the oracle check
    # the order first, so a rejected candidate exits early
    grid = isinstance(inst["r"], tuple)
    ssys = eigh_q(0.5 * (a + a.H)) if grid else None
    tsys = eigh_q(0.5 * (b + b.H)) if grid else None
    dsys = eigh_q(a - b) if grid else None

    def at(r: float) -> float:
        return _scaled(oracles.check_lowner_heinz(a, b, r, tol=tol, probe=r > 1.0,
                                                  s_system=ssys, t_system=tsys,
                                                  diff_system=dsys))

    return _worst_over_r(inst, at), {}


def _draw_holder_mccarthy(ctx: TrialContext) -> Instance:
    return {"T": generators.positive(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "x": generators.unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 1)),
            "r": HM_R_GRID}


def _holder_mccarthy_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    t, x = inst["T"], inst["x"]
    system = eigh_q(0.5 * (t + t.H)) if isinstance(inst["r"], tuple) else None

    def at(r: float) -> float:
        m = oracles.check_holder_mccarthy(t, x, r, tol=tol, system=system)
        return m.value / max(1.0, abs(m.details["lhs"]), abs(m.details["rhs"]))

    return _worst_over_r(inst, at), {}


def _draw_furuta_exponents(stream: SplitMix64, violating: bool) -> tuple[float, float, float]:
    for _ in range(200):
        p = 3.0 * stream.uniform(0.0, 1.0)
        r = 2.0 * stream.uniform(0.0, 1.0)
        q = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        ok = (1.0 + 2.0 * r) * q >= p + 2.0 * r
        if ok != violating:
            return p, q, r
    return (3.0, 1.0, 0.0) if violating else (1.0, 1.0, 0.0)


def _draw_furuta(ctx: TrialContext) -> Instance:
    a, b = generators.ordered_pair(ctx.dim, seed=ctx.trial_seed)
    stream = SplitMix64(mix_seed(ctx.trial_seed, 5))
    p, q, r = _draw_furuta_exponents(stream, violating=ctx.probe)
    return {"A": a, "B": b, "p": p, "q": q, "r": r}


def _furuta_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """Both brackets; exponents with (1+2r)q < p+2r lie outside the theorem and are a probe."""
    p, q, r = inst["p"], inst["q"], inst["r"]
    probe = (1.0 + 2.0 * r) * q < p + 2.0 * r
    m1, m2 = oracles.check_furuta(inst["A"], inst["B"], p, q, r, tol=tol, probe=probe)
    return min(_scaled(m1), _scaled(m2)), {"probe": probe}


def _draw_chain(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.probe:
        eps = 10.0 ** (-1.0 - 3.0 * stream.uniform(0.0, 1.0))
        t = generators.near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "probe": ctx.probe}


def _chain_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """The sandwich; T must be semi-hyponormal unless the instance is a probe."""
    m1, m2 = oracles.check_chain_semihypo(inst["T"], tol=tol,
                                          enforce=not inst.get("probe", False))
    return min(m1.value, m2.value) / m1.details["scale"], {}


def _draw_aluthge(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        t = _random_normal(ctx, stream)
    else:
        t = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    return {"T": t, "p": 0.5 + 0.5 * stream.uniform(0.0, 1.0)}


def _aluthge_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """Every transform theorem for a p-hyponormal T, and T~ = T for normal T."""
    t = inst["T"]
    report = oracles.check_aluthge_theorems(t, inst["p"], tol=tol)
    vals = [-(report.transform - t).frobenius() / _scale_op(t), _scaled(report.transform_margin)]
    vals += [_scaled(m) for _, m in report.monotone]
    if report.double_reading_a is not None:
        vals.append(_scaled(report.double_reading_a))
    vals.append(_scaled(report.double_reading_b))
    return min(vals), {}


def _draw_aluthge_gain(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    p = 0.05 + 0.4 * stream.uniform(0.0, 1.0)
    if ctx.probe:
        eps = 10.0 ** (-2.0 - 2.0 * stream.uniform(0.0, 1.0))
        t = generators.near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "p": p, "probe": ctx.probe}


def _aluthge_gain_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """The transform's gain; T must be p-hyponormal unless the instance is a probe."""
    report = oracles.check_aluthge_theorems(inst["T"], inst["p"], tol=tol,
                                            enforce=not inst.get("probe", False))
    return _scaled(report.transform_margin), {}


def _draw_eigenspace_reducing(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    units = [_random_unit_quaternion(stream) for _ in range(ctx.dim)]
    vals = [u * Quaternion(0.3 + 2.0 * stream.uniform(0.0, 1.0), 0.0, 0.0, 0.0)
            for u in units]
    return {"T": generators.normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1)),
            "q": units[0]}


def _eigenspace_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    return _scaled(oracles.check_eigenspace_reducing(inst["T"], inst["q"], tol=tol)), {}


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


def _draw_gcsi_closure(ctx: TrialContext) -> Instance:
    which = _CLOSURE_CYCLE[ctx.index % len(_CLOSURE_CYCLE)]
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    inst: Instance = {"which": which, "seed": mix_seed(ctx.trial_seed, 3)}
    if which == "compression":
        inst["T"], inst["projector"] = _block_unitary(ctx.dim, mix_seed(ctx.trial_seed, 1))
    else:
        inst["T"] = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
        if which == "scalar":
            inst["scalar"] = 0.5 + 2.0 * stream.uniform(0.0, 1.0)
        elif which == "unitary-equiv":
            inst["unitary"] = generators.random_unitary(
                ctx.dim, seed=mix_seed(ctx.trial_seed, 2))
    return inst


def _closure_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """Base and transformed margins, each over its own operator's scale."""
    t = inst["T"]
    kwargs = {k: inst[k] for k in ("scalar", "unitary", "projector") if k in inst}
    report = oracles.check_gcsi_closure(t, inst["which"], beta=0.5, budget=300,
                                        seed=inst["seed"], tol=tol, **kwargs)
    base = report.base.value / _scale_op(t)
    scale_s = max(1.0, abs(kwargs.get("scalar", 1.0)) * operator_norm(t))
    pair = report.transformed.witness
    return (min(base, report.transformed.value / scale_s),
            {} if pair is None else {"pair": pair})


def _draw_kernel_reduction(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    return {"T": _random_normal(ctx, stream, zeros=1 + ctx.index % max(ctx.dim - 1, 1))}


def _kernel_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    t = inst["T"]
    report = oracles.check_kernel_reduction(t, tol=tol)
    scale = _scale_op(t)
    vals = [-report.subset_residual / scale, -report.equality_residual / scale]
    if report.dim_ker != report.dim_ker_sq:
        vals.append(-1.0)
    return min(vals), {}


def _draw_tu_star(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        t = generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "x": generators.unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 2))}


def _tu_star_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    return _scaled(oracles.check_tu_star(inst["T"], inst["x"], tol=tol)), {}


def _draw_gcsi_implies(ctx: TrialContext) -> Instance:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    family = ctx.index % 4
    sub = mix_seed(ctx.trial_seed, 1)
    if family == 0:
        t = generators.random_unitary(ctx.dim, seed=sub)
    elif family == 1:
        t = _random_normal(ctx, stream)
    elif family == 2:
        t = generators.positive(ctx.dim, seed=sub)
    else:
        t = generators.ginibre(ctx.dim, seed=sub)
    return {"T": t, "p": 0.25 + 0.5 * stream.uniform(0.0, 1.0),
            "seed": mix_seed(ctx.trial_seed, 2)}


def _implies_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    """0, or -1 on a hard violation, with the GCSI oracle sampled at the instance's seed."""
    report = oracles.check_gcsi_implies(inst["T"], inst["p"], budget=300, seed=inst["seed"],
                                        tol=tol, grid=48, samples=300)
    return (-1.0 if report.hard_violation else 0.0), {"gcsi_witness": report.gcsi.witness}


def _draw_collapse(ctx: TrialContext) -> Instance:
    return {"T": generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))}


def _collapse_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    t = inst["T"]
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
    return min(vals), {}


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


def _draw_spectrum_st_ts(ctx: TrialContext) -> Instance:
    return {"S": generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "T": generators.ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))}


def _st_ts_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    s, t = inst["S"], inst["T"]
    reps_st = _class_reps_with_zero(s @ t)
    reps_ts = _class_reps_with_zero(t @ s)
    r_st = max(abs(z) for z in reps_st)
    r_ts = max(abs(z) for z in reps_ts)
    scale = max(1.0, r_st, r_ts)
    dist = _hausdorff(reps_st, reps_ts)
    return min(-dist / (100.0 * scale), -abs(r_st - r_ts) / scale), {}


def _draw_conjugation(ctx: TrialContext) -> Instance:
    return {"U": generators.random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "S": generators.hermitian(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))}


def _conjugation_margin(inst: Instance, tol: float) -> tuple[float, dict[str, Any]]:
    u, s = inst["U"], inst["S"]
    s = 0.5 * (s + s.H)
    lo, _ = rayleigh_bounds(s)
    shift = -lo + 1.0

    def f(x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(x + shift, 0.0))

    fs = eigh_q(s).apply(f)
    conj = u @ s @ u.H
    lhs = eigh_q(0.5 * (conj + conj.H)).apply(f)
    rhs = u @ fs @ u.H
    return -(lhs - rhs).frobenius() / max(1.0, fs.frobenius()), {}


PROPERTIES: dict[str, Property] = {
    "lowner-heinz": Property(_draw_lowner_heinz, _lowner_heinz_margin, ("A", "B", "r")),
    "holder-mccarthy": Property(_draw_holder_mccarthy, _holder_mccarthy_margin,
                                ("T", "x", "r")),
    "furuta": Property(_draw_furuta, _furuta_margin, ("A", "B", "p", "q", "r")),
    "chain": Property(_draw_chain, _chain_margin, ("T",)),
    "aluthge": Property(_draw_aluthge, _aluthge_margin, ("T", "p")),
    "aluthge-gain": Property(_draw_aluthge_gain, _aluthge_gain_margin, ("T", "p", "probe")),
    "eigenspace-reducing": Property(_draw_eigenspace_reducing, _eigenspace_margin, ("T", "q")),
    "gcsi-closure": Property(_draw_gcsi_closure, _closure_margin, ("which", "T")),
    "kernel-reduction": Property(_draw_kernel_reduction, _kernel_margin, ("T",)),
    "tu-star": Property(_draw_tu_star, _tu_star_margin, ("T", "x")),
    "gcsi-implies": Property(_draw_gcsi_implies, _implies_margin, ("T", "p")),
    "collapse": Property(_draw_collapse, _collapse_margin, ("T",)),
    "spectrum-st-ts": Property(_draw_spectrum_st_ts, _st_ts_margin, ("S", "T")),
    "conjugation-lemma": Property(_draw_conjugation, _conjugation_margin, ("U", "S")),
}


def _lookup(prop: str) -> Property:
    if prop not in PROPERTIES:
        raise DomainError(f"unknown property {prop!r}; known: {', '.join(sorted(PROPERTIES))}")
    return PROPERTIES[prop]


def run_verify(prop: str, *, trials: int, seed: int, dim: int = DEFAULT_DIM,
               tol: float = DEFAULT_TOL, probe: bool = False) -> VerificationReport:
    """Run `trials` independent trials of a named property.

    The report's witness is present exactly when min_margin < -tol; it is
    the violating trial's own witness when the oracle produced one, or a
    pointer to the trial seed otherwise.
    """
    fn = _lookup(prop)
    if trials < 1:
        raise DomainError("trials must be at least 1")
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


def evaluate_instance(prop: str, instance: Instance,
                      tol: float = DEFAULT_TOL) -> float:
    """Dimensionless margin of a concrete instance under a named property.

    This is the trial's own margin: an instance a trial returned scores
    what the trial scored, and an instance breaking the property's
    hypothesis raises PreconditionError as the trial would.
    """
    return _lookup(prop).evaluate(dict(instance), tol)[0]


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


def minimize_counterexample(prop: str, instance: Instance, *,
                            budget: int = 512,
                            tol: float = DEFAULT_TOL) -> Instance:
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


def _serialize_instance(instance: Instance) -> dict[str, Any]:
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
    fn = _lookup(prop)
    if budget < 1:
        raise DomainError("budget must be at least 1")
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
            shrunk = minimize_counterexample(prop, out.instance, budget=shrink_budget, tol=tol)
            witness["shrunk"] = _serialize_instance(shrunk)
            witness["shrunk_margin"] = evaluate_instance(prop, shrunk, tol)
            break
    return VerificationReport(
        property=prop, trials=len(per), seed=seed, dim=dim, tol=tol,
        min_margin=min_margin, witness=witness, per_trial=tuple(per))
