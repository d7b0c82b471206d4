"""Randomized verification engine over the theorem oracles.

Each named property is one ``Property`` record.  Its ``draw`` builds the
instances (operators, vectors, exponents) of a list of trials from their
seeds, and its ``evaluate`` scores a batch of instances, each as one
dimensionless margin (raw margin divided by an instance scale), so a single
tolerance applies uniformly across properties, or else as the error that
the instance alone raises.  ``run_verify`` and ``run_fuzz`` share one loop
over chunks of at most ``_BATCH`` trials, fewer at large dims
(``_chunk_trials``), the one place that bounds a stack.  The shrinker
scores the candidates of every key of a sweep as one batch through the
same ``evaluate``, so it minimises exactly what the trial measured,
hypotheses included.  A chunk is drawn and scored as stacks (one block draw per
stream of Gaussian entries, one SVD or eigenvalue call per operator role,
the GCSI candidate pairs in one scoring), each instance and margin bit for bit the one
its trial gives alone.  Per-trial seeds are derived as mix_seed(seed,
index), whatever the chunk; the aggregate is a deterministic min-fold with
ties broken by lowest trial index, and an error surfaces from the lowest
failing trial.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import generators, matio, oracles
from .errors import DomainError, PreconditionError, QopError, ShapeError
from .linalg import (DEFAULT_DIM, QMatrix, QVector, _adjoints, _check_count, _check_tol, _checked,
                     _frobenius, _grams, _hermitian_parts, _pair_eigvalsh, _product,
                     _stack_pairs, _trusted)
from .quaternion import Quaternion
from .rng import SplitMix64, block_uniforms, mix_seed, unit_quaternions
from .spectral import (_NOT_FINITE, _hermitian_from_chi, _psd_powers, _require_square, _spectra,
                       _spherical, _standard_eigenvalues)
from .transforms import _polars

DEFAULT_TOL = oracles.DEFAULT_TOL

LH_R_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
HM_R_GRID = (0.3, 0.5, 0.7, 1.5, 2.0, 3.0)
HYP_P_GRID = (0.25, 0.5, 1.0)
SHRINK_BUDGET = 256
# run_verify's chunks: at most _BATCH trials, and only as many as keep 16
# copies of each trial's T within _STACK_BYTES (an embedding is 4 times T's
# bytes, and an SVD keeps it, its two factors and the conjugated V)
_BATCH = 16
_STACK_BYTES = 1 << 19

PROBE_PAIR_A = ((2.0, 1.0), (1.0, 1.0))
PROBE_PAIR_B = ((1.0, 0.0), (0.0, 0.0))

Instance = dict[str, Any]
# one instance's margin and the witness entries that are not instance fields
Scored = tuple[float, dict[str, Any]]


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
    """A named property; calling it with a list of TrialContexts runs those trials.

    ``draw`` builds the instances of a list of contexts, which share their
    dim, tol and probe, from each trial's seeds.  ``evaluate`` scores a
    list of instances drawn at one dim, as one stack, at one tolerance and
    returns, per instance, the margin with the witness entries that are
    not instance fields, or the QopError that the instance alone raises; an
    exponent grid in an instance is replaced by its worst exponent.  An
    error that names no instance, such as a non-finite stack, may still
    raise for the whole batch.  ``witness_keys`` are the instance fields a
    witness reports.  A call returns the outcomes, or errors, in order.
    The record is not slotted, so a ``functools.wraps`` wrapper around it
    still exposes ``draw`` and ``evaluate``.
    """

    draw: Callable[[list[TrialContext]], list[Instance]]
    evaluate: Callable[[list[Instance], float], list[Scored | QopError]]
    witness_keys: tuple[str, ...]

    def __call__(self, ctxs: list[TrialContext]) -> list[TrialOutcome | QopError]:
        insts = self.draw(ctxs)
        outs: list[TrialOutcome | QopError] = []
        for c, inst, res in zip(ctxs, insts, self.evaluate(insts, ctxs[0].tol)):
            if not isinstance(res, QopError):
                margin, extras = res
                witness = None
                if margin < -c.tol:
                    witness = _serialize_instance({k: inst[k] for k in self.witness_keys})
                    witness.update(extras)
                res = TrialOutcome(margin, witness, inst)
            outs.append(res)
        return outs


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


def _scaled(m: oracles.Margin) -> float:
    return m.value / m.details["scale"]


def _scored(results: list, score: Callable[..., Scored],
            *columns: Sequence) -> list[Scored | QopError]:
    """``score(result, *column entries)`` of each result of a batch; an error is passed on."""
    return [r if isinstance(r, QopError) else score(r, *cols)
            for r, *cols in zip(results, *columns)]


def _scaled_units(units: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Each unit quaternion of a (..., 4) stack times its real modulus: the
    ``Quaternion`` product term for term, so signed zeros come out as there."""
    w, x, y, z = np.moveaxis(units, -1, 0)
    m = moduli
    return np.stack([w * m - x * 0.0 - y * 0.0 - z * 0.0, w * 0.0 + x * m + y * 0.0 - z * 0.0,
                     w * 0.0 - x * 0.0 + y * m + z * 0.0, w * 0.0 + x * 0.0 - y * 0.0 + z * m],
                    axis=-1)


def _random_normals(streams: list[SplitMix64], units: list[QMatrix], flags: list[bool],
                    zeros: list[int] | None = None) -> list[QMatrix]:
    """``units``, each one at a true flag replaced by the normal operator W D W*
    with that unitary as W: D holds the trial's ``zeros`` zero eigenvalues,
    then unit quaternions from its stream, each times a modulus in [0.2, 2)
    drawn after it."""
    rows = [i for i, flag in enumerate(flags) if flag]
    if not rows:
        return units
    dim = units[rows[0]].rows
    zs = [zeros[i] if zeros else 0 for i in rows]
    drawn, after = unit_quaternions([streams[i] for i in rows], [dim - z for z in zs], extra=1)
    drawn = _scaled_units(drawn, 0.2 + 1.8 * after[..., 0])
    spectra = np.zeros((len(rows), dim, 4))
    for k, z in enumerate(zs):
        spectra[k, z:] = drawn[k, :dim - z]
    normals = iter(generators._normals(spectra.view(np.complex128), [units[i] for i in rows]))
    return [next(normals) if flag else u for flag, u in zip(flags, units)]


def _streams(ctxs: list[TrialContext], index: int) -> list[SplitMix64]:
    return [SplitMix64(mix_seed(c.trial_seed, index)) for c in ctxs]


def _seeds(ctxs: list[TrialContext], index: int) -> list[int]:
    return [mix_seed(c.trial_seed, index) for c in ctxs]


def _normal_or_near(ctxs: list[TrialContext], streams: list[SplitMix64],
                    lo: float, span: float) -> list[QMatrix]:
    """Random normal operators, or when probing near-normal ones at
    eps = 10^(-lo - span u) with u from each stream, on sub-seed 1."""
    dim, seeds = ctxs[0].dim, _seeds(ctxs, 1)
    if ctxs[0].probe:
        eps = [10.0 ** (-lo - span * s.uniform(0.0, 1.0)) for s in streams]
        return generators._near_normals(dim, eps, seeds)
    return _random_normals(streams, generators._unitaries(dim, seeds), [True] * len(ctxs))


# ------------------------------------------------------------ properties


def _draw_lowner_heinz(ctxs: list[TrialContext]) -> list[Instance]:
    fixed = [c.probe and c.index == 0 for c in ctxs]
    pairs = iter(generators._ordered_pairs(
        ctxs[0].dim, [c.trial_seed for c, f in zip(ctxs, fixed) if not f]))
    out = []
    for c, f in zip(ctxs, fixed):
        if f:
            out.append({"A": QMatrix.from_quaternions(PROBE_PAIR_A),
                        "B": QMatrix.from_quaternions(PROBE_PAIR_B), "r": 2.0})
            continue
        a, b = next(pairs)
        r = (1.0 + 2.0 * SplitMix64(mix_seed(c.trial_seed, 3)).uniform(0.0, 1.0) if c.probe
             else LH_R_GRID)
        out.append({"A": a, "B": b, "r": r})
    return out


def _exponents(inst: Instance) -> tuple:
    """A tuple is the trial's grid; a float is a probe's exponent or a grid's argmin."""
    return inst["r"] if isinstance(inst["r"], tuple) else (inst["r"],)


def _lowner_heinz_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """S^r >= T^r; an exponent r > 1 lies outside the theorem and is a probe."""
    grids = [_exponents(inst) for inst in insts]
    cases = [(inst["A"], inst["B"], rs, max(rs) > 1.0) for inst, rs in zip(insts, grids)]
    return _scored(oracles._lowner_heinz_cases(cases, tol), _grid_scored, insts)


def _grid_scored(m: oracles.Margin, inst: Instance) -> Scored:
    """The scaled margin; the instance's grid is replaced by its worst exponent."""
    inst["r"] = m.details["r"]
    return _scaled(m), {}


def _draw_holder_mccarthy(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    return [{"T": t, "x": x, "r": HM_R_GRID}
            for t, x in zip(generators._positives(dim, _seeds(ctxs, 0)),
                            generators._unit_vectors(dim, _seeds(ctxs, 1)))]


def _holder_mccarthy_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    cases = [(inst["T"], inst["x"], _exponents(inst)) for inst in insts]
    return _scored(oracles._holder_mccarthy_cases(cases, tol), _grid_scored, insts)


def _draw_furuta_exponents(stream: SplitMix64, violating: bool) -> tuple[float, float, float]:
    for _ in range(200):
        p = 3.0 * stream.uniform(0.0, 1.0)
        r = 2.0 * stream.uniform(0.0, 1.0)
        q = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        ok = (1.0 + 2.0 * r) * q >= p + 2.0 * r
        if ok != violating:
            return p, q, r
    return (3.0, 1.0, 0.0) if violating else (1.0, 1.0, 0.0)


def _draw_furuta(ctxs: list[TrialContext]) -> list[Instance]:
    out = []
    for c, (a, b) in zip(ctxs, generators._ordered_pairs(ctxs[0].dim,
                                                         [c.trial_seed for c in ctxs])):
        p, q, r = _draw_furuta_exponents(SplitMix64(mix_seed(c.trial_seed, 5)),
                                         violating=c.probe)
        out.append({"A": a, "B": b, "p": p, "q": q, "r": r})
    return out


def _furuta_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """Both brackets; exponents with (1+2r)q < p+2r lie outside the theorem and are a probe."""
    probes = [(1.0 + 2.0 * inst["r"]) * inst["q"] < inst["p"] + 2.0 * inst["r"]
              for inst in insts]
    cases = [(inst["A"], inst["B"], inst["p"], inst["q"], inst["r"], probe)
             for inst, probe in zip(insts, probes)]
    return _scored(oracles._furuta_cases(cases, tol),
                   lambda ms, probe: (min(map(_scaled, ms)), {"probe": probe}), probes)


def _draw_chain(ctxs: list[TrialContext]) -> list[Instance]:
    ts = _normal_or_near(ctxs, _streams(ctxs, 0), 1.0, 3.0)
    return [{"T": t, "probe": c.probe} for c, t in zip(ctxs, ts)]


def _chain_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """The sandwich; T must be semi-hyponormal unless the instance is a probe."""
    cases = [(inst["T"], not inst.get("probe", False)) for inst in insts]
    return _scored(oracles._chain_cases(cases, tol),
                   lambda ms: (min(ms[0].value, ms[1].value) / ms[0].details["scale"], {}))


def _draw_aluthge(ctxs: list[TrialContext]) -> list[Instance]:
    streams = _streams(ctxs, 0)
    ts = _random_normals(streams, generators._unitaries(ctxs[0].dim, _seeds(ctxs, 1)),
                         [c.index % 2 == 0 for c in ctxs])
    return [{"T": t, "p": 0.5 + 0.5 * s.uniform(0.0, 1.0)} for t, s in zip(ts, streams)]


def _aluthge_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """Every transform theorem for a p-hyponormal T, and T~ = T for normal T.
    The first report read solves the ladders and double transforms of the batch."""
    ts = [inst["T"] for inst in insts]
    reports, norms = oracles._aluthge_cases([(t, i["p"], True) for t, i in zip(ts, insts)], tol)

    def score(report: oracles.AluthgeReport, t: QMatrix, scale: float) -> Scored:
        vals = [-(report.transform - t).frobenius() / scale, _scaled(report.transform_margin)]
        vals += [_scaled(m) for _, m in report.monotone]
        vals.append(_scaled(report.double_reading_b))
        return min(vals), {}

    return _scored(reports, score, ts, [max(1.0, opn) for opn in norms])


def _draw_aluthge_gain(ctxs: list[TrialContext]) -> list[Instance]:
    streams = _streams(ctxs, 0)
    ps = [0.05 + 0.4 * s.uniform(0.0, 1.0) for s in streams]
    ts = _normal_or_near(ctxs, streams, 2.0, 2.0)
    return [{"T": t, "p": p, "probe": c.probe} for c, t, p in zip(ctxs, ts, ps)]


def _aluthge_gain_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """The transform's gain; T must be p-hyponormal unless the instance is a probe."""
    cases = [(inst["T"], inst["p"], not inst.get("probe", False)) for inst in insts]
    return _scored(oracles._aluthge_cases(cases, tol)[0],
                   lambda r: (_scaled(r.transform_margin), {}))


def _draw_eigenspace_reducing(ctxs: list[TrialContext]) -> list[Instance]:
    dim, streams = ctxs[0].dim, _streams(ctxs, 0)
    units, _ = unit_quaternions(streams, [dim] * len(ctxs))
    spectra = _scaled_units(units, 0.3 + 2.0 * block_uniforms(streams, dim))
    ts = generators._normals(spectra.view(np.complex128),
                             generators._unitaries(dim, _seeds(ctxs, 1)))
    return [{"T": t, "q": Quaternion(*q)} for t, q in zip(ts, units[:, 0].tolist())]


def _eigenspace_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    cases = [(inst["T"], inst["q"]) for inst in insts]
    return _scored(oracles._eigenspace_cases(cases, tol), lambda m: (_scaled(m), {}))


_CLOSURE_CYCLE = ("scalar", "inverse", "unitary-equiv", "compression")


def _block_unitaries(dim: int, seeds: list[int]) -> list[tuple[QMatrix, QMatrix]]:
    """Block-diagonal unitaries and the projector onto their leading block."""
    n1 = max(dim // 2, 1)
    n2 = dim - n1
    firsts = generators._unitaries(n1, [mix_seed(s, 0) for s in seeds])
    seconds = generators._unitaries(n2, [mix_seed(s, 1) for s in seeds]) if n2 else firsts
    out = []
    for u1, u2 in zip(firsts, seconds):
        ta, tb, pa = (np.zeros((dim, dim), dtype=np.complex128) for _ in range(3))
        ta[:n1, :n1], tb[:n1, :n1] = u1._a, u1._b
        if n2:
            ta[n1:, n1:], tb[n1:, n1:] = u2._a, u2._b
        pa[np.arange(n1), np.arange(n1)] = 1.0
        out.append((_trusted(QMatrix, ta, tb), _trusted(QMatrix, pa, np.zeros_like(pa))))
    return out


def _draw_gcsi_closure(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    which = [_CLOSURE_CYCLE[c.index % len(_CLOSURE_CYCLE)] for c in ctxs]
    plain = [c for c, w in zip(ctxs, which) if w != "compression"]
    equiv = [c for c, w in zip(ctxs, which) if w == "unitary-equiv"]
    us = generators._unitaries(dim, _seeds(plain, 1) + _seeds(equiv, 2))
    ts, vs = iter(us[:len(plain)]), iter(us[len(plain):])
    blocks = iter(_block_unitaries(dim, _seeds([c for c, w in zip(ctxs, which)
                                                if w == "compression"], 1)))
    insts = []
    for c, w in zip(ctxs, which):
        inst: Instance = {"which": w}
        if w == "compression":
            inst["T"], inst["projector"] = next(blocks)
        else:
            inst["T"] = next(ts)
            if w == "scalar":
                inst["scalar"] = 0.5 + 2.0 * SplitMix64(mix_seed(c.trial_seed, 0)).uniform(0.0, 1.0)
            elif w == "unitary-equiv":
                inst["unitary"] = next(vs)
        insts.append(inst)
    return insts


def _closure_margins(insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """Base and transformed margins, each over its own operator's scale."""
    cases = [(inst["T"], inst["which"], inst.get("scalar"), inst.get("unitary"),
              inst.get("projector")) for inst in insts]
    def score(report: oracles.ClosureReport, inst: Instance, opn: float) -> Scored:
        scale_s = max(1.0, abs(inst.get("scalar", 1.0)) * opn)
        pair = report.transformed.witness
        return (min(report.base.value / max(1.0, opn), report.transformed.value / scale_s),
                {} if pair is None else {"pair": pair})

    reports, norms = oracles._gcsi_closures(cases, beta=0.5, tol=tol)
    return _scored(reports, score, insts, norms)


def _draw_kernel_reduction(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    ts = _random_normals(_streams(ctxs, 0), generators._unitaries(dim, _seeds(ctxs, 1)),
                         [True] * len(ctxs), [1 + c.index % max(dim - 1, 1) for c in ctxs])
    return [{"T": t} for t in ts]


def _kernel_margins(insts: list[Instance], tol: float) -> list[Scored]:
    out = []
    for report, opn in zip(*oracles._kernel_reductions([inst["T"] for inst in insts], tol)):
        scale = max(1.0, opn)
        vals = [-report.subset_residual / scale, -report.equality_residual / scale]
        if report.dim_ker != report.dim_ker_sq:
            vals.append(-1.0)
        out.append((min(vals), {}))
    return out


def _draw_tu_star(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    ts = _random_normals(_streams(ctxs, 0), generators._unitaries(dim, _seeds(ctxs, 1)),
                         [c.index % 2 == 1 for c in ctxs])
    return [{"T": t, "x": x} for t, x in zip(ts, generators._unit_vectors(dim, _seeds(ctxs, 2)))]


def _tu_star_margins(insts: list[Instance], tol: float) -> list[Scored]:
    cases = [(inst["T"], inst["x"]) for inst in insts]
    return [(_scaled(m), {}) for m in oracles._tu_star_cases(cases, tol)]


def _draw_gcsi_implies(ctxs: list[TrialContext]) -> list[Instance]:
    """Families by trial index mod 4: unitary, normal, positive, Ginibre; a
    normal operator is drawn on the unitary of its sub-seed."""
    dim, streams, subs = ctxs[0].dim, _streams(ctxs, 0), _seeds(ctxs, 1)
    family = [c.index % 4 for c in ctxs]
    pick = [[s for s, f in zip(subs, family) if max(f, 1) == k] for k in range(4)]
    pools = {1: iter(generators._unitaries(dim, pick[1])),
             2: iter(generators._positives(dim, pick[2])),
             3: iter(generators._ginibres(dim, dim, pick[3]))}
    ts = _random_normals(streams, [next(pools[max(f, 1)]) for f in family],
                         [f == 1 for f in family])
    return [{"T": t, "p": 0.25 + 0.5 * s.uniform(0.0, 1.0)} for t, s in zip(ts, streams)]


def _implies_margins(insts: list[Instance], tol: float) -> list[Scored]:
    """0, or -1 on a hard violation."""
    reports = oracles._gcsi_implications([(inst["T"], inst["p"]) for inst in insts], tol=tol)
    return [((-1.0 if r.hard_violation else 0.0), {"gcsi_witness": r.gcsi.witness})
            for r in reports]


def _draw_collapse(ctxs: list[TrialContext]) -> list[Instance]:
    return [{"T": t} for t in generators._ginibres(ctxs[0].dim, ctxs[0].dim, _seeds(ctxs, 0))]


def _collapse_margins(insts: list[Instance], tol: float) -> list[Scored]:
    """tr (T*T)^p = tr (TT*)^p over HYP_P_GRID, and a non-normal T is not
    p-hyponormal.  The batch's T*T and TT* are solved in one eigensolver
    call, whose top of T*T is ||T||^2, and its non-normal operators are
    factored in one SVD."""
    ts = [inst["T"] for inst in insts]
    for t in ts:
        _require_square(t)
    a, b = _stack_pairs(ts)
    ga, gb = _grams(a, b)
    ca, cb = _checked(_product(a, b, *_adjoints(a, b)))
    w, v = _spectra(np.concatenate([ga, ca]), np.concatenate([gb, cb]))
    skewed = []
    for i, top in enumerate(w[:len(ts), -1].tolist()):
        skewed.append(_frobenius(ga[i] - ca[i], gb[i] - cb[i]) > 1e-4 * max(1.0, top))
    pa, _ = _psd_powers(w, v, [HYP_P_GRID] * w.shape[0])
    traces = [[float(np.trace(x).real) for x in rows] for rows in pa]
    # the p-hyponormal margins are read as values only, so no witness is solved for
    parts = _polars([t for t, skew in zip(ts, skewed) if skew])
    hyps = iter(_pair_eigvalsh(*oracles._hyponormal_diffs(
        parts, [HYP_P_GRID] * len(parts)))[:, 0].reshape(len(parts), -1) if parts else ())
    out = []
    for skew, tr_gs, tr_cs in zip(skewed, traces, traces[len(ts):]):
        hyp = next(hyps) if skew else None
        vals = []
        for k, (tr_g, tr_c) in enumerate(zip(tr_gs, tr_cs)):
            vals.append(-abs(tr_g - tr_c) / max(1.0, abs(tr_g), abs(tr_c)))
            if hyp is not None and hyp[k] >= 0.0:
                vals.append(-1.0)
        out.append((min(vals), {}))
    return out


def _hausdorff(a: list[complex], b: list[complex]) -> float:
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


def _draw_spectrum_st_ts(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    ops = generators._ginibres(dim, dim, [mix_seed(c.trial_seed, j) for c in ctxs for j in (0, 1)])
    return [{"S": s, "T": t} for s, t in zip(ops[0::2], ops[1::2])]


def _st_ts_margins(insts: list[Instance], tol: float) -> list[Scored]:
    """sigma(ST) and sigma(TS), each with 0 added, in Hausdorff distance and
    spectral radius; every ST and TS of the batch is solved in one call."""
    for inst in insts:
        s, t = inst["S"], inst["T"]
        if s.cols != t.rows:
            raise ShapeError(f"cannot multiply {s.shape} by {t.shape}")
        if s.rows != t.cols:
            raise ShapeError(f"square operator required, got {(s.rows, t.cols)}")
    sa, sb = _stack_pairs([inst["S"] for inst in insts])
    ta, tb = _stack_pairs([inst["T"] for inst in insts])
    st, ts = _checked(_product(sa, sb, ta, tb)), _checked(_product(ta, tb, sa, sb))
    spectra = [list(_spherical(reps).classes) + [0j] for reps in
               _standard_eigenvalues(*map(np.concatenate, zip(st, ts)))]
    out = []
    for reps_st, reps_ts in zip(spectra, spectra[len(insts):]):
        r_st = max(abs(z) for z in reps_st)
        r_ts = max(abs(z) for z in reps_ts)
        scale = max(1.0, r_st, r_ts)
        dist = _hausdorff(reps_st, reps_ts)
        out.append((min(-dist / (100.0 * scale), -abs(r_st - r_ts) / scale), {}))
    return out


def _draw_conjugation(ctxs: list[TrialContext]) -> list[Instance]:
    dim = ctxs[0].dim
    return [{"U": u, "S": s} for u, s in zip(generators._unitaries(dim, _seeds(ctxs, 0)),
                                             generators._hermitians(dim, _seeds(ctxs, 1)))]


def _conjugation_margins(insts: list[Instance], tol: float) -> list[Scored]:
    """f(U S U*) = U f(S) U* for f(x) = sqrt(x - min spec S + 1), S made
    Hermitian.  The batch's S and U S U* are solved in one eigensolver call,
    whose least pair mean of each S gives its shift."""
    for inst in insts:
        u, s = inst["U"], inst["S"]
        _require_square(s)
        if u.shape != s.shape:
            raise ShapeError(f"cannot multiply {u.shape} by {s.shape}")
    ua, ub = _stack_pairs([inst["U"] for inst in insts])
    sa, sb = _stack_pairs([inst["S"] for inst in insts])
    sa, sb = _hermitian_parts(sa, sb)
    xa, xb = _checked(_product(*_checked(_product(ua, ub, sa, sb)), *_adjoints(ua, ub)))
    w, v = _spectra(np.concatenate([sa, xa]), np.concatenate([sb, xb]))
    k = len(insts)
    shifts = np.tile(-w[:k, :1] + 1.0, (2, 1))
    fw = np.sqrt(np.maximum(w + shifts, 0.0))
    if not np.isfinite(fw).all():
        raise DomainError(_NOT_FINITE)
    fa, fb = _hermitian_from_chi(v, fw)
    ra, rb = _checked(_product(*_product(ua, ub, fa[:k], fb[:k]), *_adjoints(ua, ub)))
    return [(-_frobenius(fa[k + i] - ra[i], fb[k + i] - rb[i])
             / max(1.0, _frobenius(fa[i], fb[i])), {}) for i in range(k)]


PROPERTIES: dict[str, Property] = {
    "lowner-heinz": Property(_draw_lowner_heinz, _lowner_heinz_margins, ("A", "B", "r")),
    "holder-mccarthy": Property(_draw_holder_mccarthy, _holder_mccarthy_margins,
                                ("T", "x", "r")),
    "furuta": Property(_draw_furuta, _furuta_margins, ("A", "B", "p", "q", "r")),
    "chain": Property(_draw_chain, _chain_margins, ("T",)),
    "aluthge": Property(_draw_aluthge, _aluthge_margins, ("T", "p")),
    "aluthge-gain": Property(_draw_aluthge_gain, _aluthge_gain_margins,
                             ("T", "p", "probe")),
    "eigenspace-reducing": Property(_draw_eigenspace_reducing,
                                    _eigenspace_margins, ("T", "q")),
    "gcsi-closure": Property(_draw_gcsi_closure, _closure_margins, ("which", "T")),
    "kernel-reduction": Property(_draw_kernel_reduction, _kernel_margins, ("T",)),
    "tu-star": Property(_draw_tu_star, _tu_star_margins, ("T", "x")),
    "gcsi-implies": Property(_draw_gcsi_implies, _implies_margins, ("T", "p")),
    "collapse": Property(_draw_collapse, _collapse_margins, ("T",)),
    "spectrum-st-ts": Property(_draw_spectrum_st_ts, _st_ts_margins, ("S", "T")),
    "conjugation-lemma": Property(_draw_conjugation, _conjugation_margins, ("U", "S")),
}


def _lookup(prop: str) -> Property:
    if prop not in PROPERTIES:
        raise DomainError(f"unknown property {prop!r}; known: {', '.join(sorted(PROPERTIES))}")
    return PROPERTIES[prop]


def _chunk_trials(dim: int) -> int:
    """The trials of one chunk at ``dim``: 16 up to dim 11, 8 at dim 16, 2
    at dim 32 and 1 from dim 46 on.  T's A part takes 16 dim^2 bytes, so 16
    copies of it take 256 dim^2."""
    return max(1, min(_BATCH, _STACK_BYTES // (256 * dim * dim)))


@functools.cache
def _blas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The thread-count setter and getter of the OpenBLAS bundled with numpy,
    found once per process through ctypes; None where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):  # numpy 2 and numpy 1 wheels
            if hasattr(lib, f"{prefix}_set_num_threads64_"):
                set_threads = getattr(lib, f"{prefix}_set_num_threads64_")
                get_threads = getattr(lib, f"{prefix}_get_num_threads64_")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def _run(prop: str, count: int, what: str, *, seed: int, dim: int, tol: float, probe: bool,
         fuzz: bool) -> VerificationReport:
    """``run_verify``, or with ``fuzz`` ``run_fuzz``: the trials are drawn and
    evaluated in chunks of ``_chunk_trials(dim)`` by the ``PROPERTIES`` entry,
    and the lowest failing trial's error is raised.  Fuzzing ends the report
    at the first violation and shrinks its instance.  The trials and the
    shrink run on one OpenBLAS thread, as the ``qop`` command does, so the
    report's bytes do not depend on the caller's thread count; without the
    bundled OpenBLAS's setter they run unpinned."""
    fn = _lookup(prop)
    _check_count(count, what)
    generators._check_dim(dim)
    _check_tol(tol)
    blas = _blas_threads()
    threads = blas[1]() if blas is not None else 1
    if threads != 1:
        blas[0](1)
    try:
        return _trials(fn, prop, count, seed=seed, dim=dim, tol=tol, probe=probe, fuzz=fuzz)
    finally:
        if threads != 1:
            blas[0](threads)


def _trials(fn: Property, prop: str, count: int, *, seed: int, dim: int, tol: float,
            probe: bool, fuzz: bool) -> VerificationReport:
    """``_run``'s trial loop and shrink, after its argument checks."""
    per: list[tuple[int, float]] = []
    min_margin, best = math.inf, None
    while len(per) < count and not (fuzz and min_margin < -tol):
        ctxs = [TrialContext(mix_seed(seed, idx), idx, dim, tol, probe)
                for idx in range(len(per), min(len(per) + _chunk_trials(dim), count))]
        for ctx, out in zip(ctxs, fn(ctxs)):
            if isinstance(out, QopError):
                raise out
            per.append((ctx.trial_seed, float(out.margin)))
            if per[-1][1] < min_margin:
                min_margin, best = per[-1][1], (ctx, out)
            if fuzz and min_margin < -tol:
                break
    witness = None
    if best is not None and min_margin < -tol:
        ctx, out = best
        witness = dict(out.witness) if out.witness is not None else {}
        witness.setdefault("trial_seed", ctx.trial_seed)
        witness["margin"] = min_margin
        if fuzz:
            shrunk, witness["shrunk_margin"], _ = _shrink(prop, out.instance, SHRINK_BUDGET, tol)
            witness["shrunk"] = _serialize_instance(shrunk)
    return VerificationReport(
        property=prop, trials=len(per), seed=seed, dim=dim, tol=tol,
        min_margin=min_margin, witness=witness, per_trial=tuple(per))


def run_verify(prop: str, *, trials: int, seed: int, dim: int = DEFAULT_DIM,
               tol: float = DEFAULT_TOL, probe: bool = False) -> VerificationReport:
    """Run `trials` independent trials of a named property.

    The report's witness is present exactly when min_margin < -tol; it is
    the violating trial's own witness when the oracle produced one, or a
    pointer to the trial seed otherwise.  Before the first trial, ``trials``
    must be an integer of at least 1 and ``tol`` finite and nonnegative
    (DomainError), and ``dim`` must lie in [1, MAX_DIM] (ShapeError).
    """
    return _run(prop, trials, "trials", seed=seed, dim=dim, tol=tol, probe=probe, fuzz=False)


# ------------------------------------------------- instance re-evaluation


def _evaluate(prop: str, insts: list[Instance], tol: float) -> list[Scored | QopError]:
    """The property's scores of copies of the instances.  A field that the
    property reads and an instance lacks is a DomainError naming both."""
    fn = _lookup(prop)
    _check_tol(tol)
    try:
        return fn.evaluate([dict(inst) for inst in insts], tol)
    except KeyError as exc:
        key = exc.args[0] if exc.args else None
        if isinstance(key, str) and any(key not in inst for inst in insts):
            raise DomainError(f"{prop!r} instance has no field {key!r}") from None
        raise


def evaluate_instance(prop: str, instance: Instance,
                      tol: float = DEFAULT_TOL) -> float:
    """Dimensionless margin of a concrete instance under a named property.

    This is the trial's own margin: an instance a trial returned scores
    what the trial scored, and an instance breaking the property's
    hypothesis raises PreconditionError as the trial would.  An instance
    without a field the property reads raises DomainError.
    """
    (out,) = _evaluate(prop, [instance], tol)
    if isinstance(out, QopError):
        raise out
    return out[0]


def _zero_entry_candidates(val: Any, limit: int) -> list[tuple[Any, Any]]:
    """(position, zeroed copy) pairs, in row-major order, nonzero entries
    only, the first ``limit`` of them.  The copies are the slices of one
    stack, finite as ``val`` is."""
    if not isinstance(val, (QMatrix, QVector)):
        return []
    a, b = val._a, val._b
    # -0.0 compares equal to 0, so an entry with only signed-zero components is zero
    flat = ((a != 0) | (b != 0)).ravel().nonzero()[0][:limit]
    k, at = len(flat), (np.arange(len(flat)), flat)
    ca, cb = a.reshape(1, -1).repeat(k, axis=0), b.reshape(1, -1).repeat(k, axis=0)
    ca[at] = cb[at] = 0j
    out: list[tuple[Any, Any]] = []
    for f, za, zb in zip(flat.tolist(), ca.reshape(k, *a.shape), cb.reshape(k, *a.shape)):
        cand = object.__new__(type(val))
        cand._a, cand._b = za, zb
        out.append((divmod(f, a.shape[-1]) if a.ndim > 1 else f, cand))
    return out


def minimize_counterexample(prop: str, instance: Instance, *,
                            budget: int = 512,
                            tol: float = DEFAULT_TOL) -> Instance:
    """Greedy shrink of a violating instance by zeroing quaternion entries.

    Pass order is deterministic: instance keys sorted by name, entries in
    row-major order, repeated until a full sweep makes no progress or the
    evaluation budget runs out.  A sweep's candidates are scored as one
    batch, the input with the first, and the first in that order that still
    violates (margin < -tol) is accepted; the rest of the sweep is scored
    again from it.  The budget is charged up to and including it, so a
    candidate that breaks a precondition costs an evaluation, though no
    solve past the check it fails.  Raises DomainError, before any
    evaluation, unless ``budget`` is an integer of at least 1;
    PreconditionError if the input does not violate; and DomainError, from
    that evaluation, on an unknown property, a missing field or a
    tolerance that is not finite and nonnegative.
    """
    return _shrink(prop, instance, budget, tol)[0]


def _shrink(prop: str, instance: Instance, budget: int,
            tol: float) -> tuple[Instance, float, int]:
    """``minimize_counterexample``'s instance, margin and evaluations charged.
    None stands for the input among the keys.  Every result is per case, but
    an error raised for a whole batch may come from a candidate the walk
    never reaches: then each key is scored alone as the walk reaches it."""
    _check_count(budget, "budget")
    current, margin, evals, improved = dict(instance), math.nan, 0, True
    while improved and evals < budget:
        improved = False
        keys: list = [None] * (evals == 0) + sorted(current)
        while keys:
            groups, left = [], budget - evals
            for key in keys:
                groups.append([current] if key is None else [
                    {**current, key: val} for _, val in _zero_entry_candidates(current[key], left)])
                left -= len(groups[-1])
            if not any(groups):
                break
            try:
                merged = iter(_evaluate(prop, [c for g in groups for c in g], tol))
            except QopError:
                merged = None
            for n, (key, cands) in enumerate(zip(keys, groups)):
                outs = ([next(merged) for _ in cands] if merged else
                        _evaluate(prop, cands, tol) if cands else [])
                hit = next((j for j, out in enumerate(outs)
                            if not isinstance(out, QopError) and out[0] < -tol), len(outs))
                if key is None:  # the input, which must violate
                    if hit:
                        raise outs[0] if isinstance(outs[0], QopError) else PreconditionError(
                            f"instance does not violate {prop!r} "
                            f"(margin {outs[0][0]:.3e} >= {-tol:.1e})")
                    margin, evals = outs[0][0], 1
                    continue
                evals += min(hit + 1, len(outs))
                if hit < len(outs):
                    val = cands[hit][key]  # copied: the instance keeps no candidate stack
                    current = {**current, key: _trusted(type(val), val._a.copy(), val._b.copy())}
                    margin, improved, keys = outs[hit][0], True, keys[n + 1:]
                    break
            else:
                keys = []
    return current, margin, evals


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
             tol: float = DEFAULT_TOL) -> VerificationReport:
    """Draw trials until the budget is spent or a violation appears.

    The report ends at the first violating trial.  Its instance is shrunk
    with minimize_counterexample on a budget of ``SHRINK_BUDGET``
    evaluations, and the report's witness carries both the original oracle
    witness and the shrunken instance with its margin.  ``budget``, ``dim``
    and ``tol`` are checked as ``run_verify`` checks ``trials``, ``dim`` and
    ``tol``.
    """
    return _run(prop, budget, "budget", seed=seed, dim=dim, tol=tol, probe=False, fuzz=True)
