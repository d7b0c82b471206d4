"""Per-trial draws, the test-side reference for the chunk draws of
``qop.harness`` and the stacked generators of ``qop.generators``.

``DRAWS`` maps each property to the draw it made one trial at a time
before the library drew a chunk of trials as stacks: every operator from
its own stream, every unitary from its own ``polar`` and
``unitary_completion``, every normal operator W D W* from two products of
one matrix each, and every unit quaternion from its own rejection loop.
The generators below are the per-draw versions that the library replaced
with stacks of one seed.  The module name keeps it out of pytest
collection.
"""

from __future__ import annotations

import numpy as np

from qop.harness import (_CLOSURE_CYCLE, HM_R_GRID, LH_R_GRID, PROBE_PAIR_A, PROBE_PAIR_B,
                         TrialContext)
from qop.linalg import QMatrix, QVector
from qop.quaternion import Quaternion
from qop.rng import SplitMix64, mix_seed
from qop.transforms import polar, unitary_completion

# ------------------------------------------------------------ generators


def ginibre(n: int, m: int | None = None, *, seed: int) -> QMatrix:
    m = n if m is None else m
    return QMatrix(SplitMix64(seed).normals(n * m * 4).reshape(n, m, 4))


def hermitian(n: int, *, seed: int) -> QMatrix:
    g = ginibre(n, seed=seed)
    return (g + g.H) * 0.5


def positive(n: int, *, seed: int) -> QMatrix:
    g = ginibre(n, seed=seed)
    return g.H @ g


def ordered_pair(n: int, *, seed: int) -> tuple[QMatrix, QMatrix]:
    b = positive(n, seed=mix_seed(seed, 0))
    bump = positive(n, seed=mix_seed(seed, 1))
    return b + bump, b


def random_unitary(n: int, *, seed: int) -> QMatrix:
    return unitary_completion(polar(ginibre(n, seed=seed)))


def normal_with_spectrum(values, *, seed: int) -> QMatrix:
    d = QMatrix.diag(list(values))
    w = random_unitary(d.rows, seed=seed)
    return w @ d @ w.H


def near_normal(n: int, eps: float, *, seed: int) -> QMatrix:
    raw = SplitMix64(mix_seed(seed, 0)).normals(4 * n).reshape(n, 4)
    base = normal_with_spectrum([Quaternion.from_components(row) for row in raw],
                                seed=mix_seed(seed, 1))
    if eps == 0.0:
        return base
    return base + ginibre(n, seed=mix_seed(seed, 2)) * eps


def unit_vector(n: int, *, seed: int) -> QVector:
    stream = SplitMix64(seed)
    while True:
        v = QVector(stream.normals(4 * n).reshape(n, 4))
        nv = v.norm()
        if nv > 1e-6:
            return v * (1.0 / nv)


# ------------------------------------------------------------ trial draws


def _random_unit_quaternion(stream: SplitMix64) -> Quaternion:
    while True:
        c = stream.normals(4)
        n = float(np.sqrt((c ** 2).sum()))
        if n > 1e-6:
            return Quaternion(float(c[0] / n), float(c[1] / n),
                              float(c[2] / n), float(c[3] / n))


def _random_normal(ctx: TrialContext, stream: SplitMix64, zeros: int = 0) -> QMatrix:
    vals = [Quaternion(0.0, 0.0, 0.0, 0.0)] * zeros
    for _ in range(ctx.dim - zeros):
        u = _random_unit_quaternion(stream)
        vals.append(u * Quaternion(0.2 + 1.8 * stream.uniform(0.0, 1.0), 0.0, 0.0, 0.0))
    return normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1))


def _draw_lowner_heinz(ctx: TrialContext) -> dict:
    if not ctx.probe:
        a, b = ordered_pair(ctx.dim, seed=ctx.trial_seed)
        return {"A": a, "B": b, "r": LH_R_GRID}
    if ctx.index == 0:
        return {"A": QMatrix.from_quaternions(PROBE_PAIR_A),
                "B": QMatrix.from_quaternions(PROBE_PAIR_B), "r": 2.0}
    a, b = ordered_pair(ctx.dim, seed=ctx.trial_seed)
    stream = SplitMix64(mix_seed(ctx.trial_seed, 3))
    return {"A": a, "B": b, "r": 1.0 + 2.0 * stream.uniform(0.0, 1.0)}


def _draw_holder_mccarthy(ctx: TrialContext) -> dict:
    return {"T": positive(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "x": unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 1)),
            "r": HM_R_GRID}


def _draw_furuta_exponents(stream: SplitMix64, violating: bool) -> tuple[float, float, float]:
    for _ in range(200):
        p = 3.0 * stream.uniform(0.0, 1.0)
        r = 2.0 * stream.uniform(0.0, 1.0)
        q = 1.0 + 2.0 * stream.uniform(0.0, 1.0)
        ok = (1.0 + 2.0 * r) * q >= p + 2.0 * r
        if ok != violating:
            return p, q, r
    return (3.0, 1.0, 0.0) if violating else (1.0, 1.0, 0.0)


def _draw_furuta(ctx: TrialContext) -> dict:
    a, b = ordered_pair(ctx.dim, seed=ctx.trial_seed)
    stream = SplitMix64(mix_seed(ctx.trial_seed, 5))
    p, q, r = _draw_furuta_exponents(stream, violating=ctx.probe)
    return {"A": a, "B": b, "p": p, "q": q, "r": r}


def _draw_chain(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.probe:
        eps = 10.0 ** (-1.0 - 3.0 * stream.uniform(0.0, 1.0))
        t = near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "probe": ctx.probe}


def _draw_aluthge(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        t = _random_normal(ctx, stream)
    else:
        t = random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    return {"T": t, "p": 0.5 + 0.5 * stream.uniform(0.0, 1.0)}


def _draw_aluthge_gain(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    p = 0.05 + 0.4 * stream.uniform(0.0, 1.0)
    if ctx.probe:
        eps = 10.0 ** (-2.0 - 2.0 * stream.uniform(0.0, 1.0))
        t = near_normal(ctx.dim, eps, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "p": p, "probe": ctx.probe}


def _draw_eigenspace_reducing(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    units = [_random_unit_quaternion(stream) for _ in range(ctx.dim)]
    vals = [u * Quaternion(0.3 + 2.0 * stream.uniform(0.0, 1.0), 0.0, 0.0, 0.0)
            for u in units]
    return {"T": normal_with_spectrum(vals, seed=mix_seed(ctx.trial_seed, 1)),
            "q": units[0]}


def _block_unitary(dim: int, seed: int) -> tuple[QMatrix, QMatrix]:
    n1 = max(dim // 2, 1)
    n2 = dim - n1
    t = np.zeros((dim, dim, 4))
    t[:n1, :n1] = random_unitary(n1, seed=mix_seed(seed, 0)).to_array()
    if n2 > 0:
        t[n1:, n1:] = random_unitary(n2, seed=mix_seed(seed, 1)).to_array()
    proj = np.zeros((dim, dim, 4))
    proj[np.arange(n1), np.arange(n1), 0] = 1.0
    return QMatrix(t), QMatrix(proj)


def _draw_gcsi_closure(ctx: TrialContext) -> dict:
    which = _CLOSURE_CYCLE[ctx.index % len(_CLOSURE_CYCLE)]
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    inst = {"which": which}
    if which == "compression":
        inst["T"], inst["projector"] = _block_unitary(ctx.dim, mix_seed(ctx.trial_seed, 1))
    else:
        inst["T"] = random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
        if which == "scalar":
            inst["scalar"] = 0.5 + 2.0 * stream.uniform(0.0, 1.0)
        elif which == "unitary-equiv":
            inst["unitary"] = random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 2))
    return inst


def _draw_kernel_reduction(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    return {"T": _random_normal(ctx, stream, zeros=1 + ctx.index % max(ctx.dim - 1, 1))}


def _draw_tu_star(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    if ctx.index % 2 == 0:
        t = random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))
    else:
        t = _random_normal(ctx, stream)
    return {"T": t, "x": unit_vector(ctx.dim, seed=mix_seed(ctx.trial_seed, 2))}


def _draw_gcsi_implies(ctx: TrialContext) -> dict:
    stream = SplitMix64(mix_seed(ctx.trial_seed, 0))
    family = ctx.index % 4
    sub = mix_seed(ctx.trial_seed, 1)
    if family == 0:
        t = random_unitary(ctx.dim, seed=sub)
    elif family == 1:
        t = _random_normal(ctx, stream)
    elif family == 2:
        t = positive(ctx.dim, seed=sub)
    else:
        t = ginibre(ctx.dim, seed=sub)
    return {"T": t, "p": 0.25 + 0.5 * stream.uniform(0.0, 1.0)}


def _draw_collapse(ctx: TrialContext) -> dict:
    return {"T": ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0))}


def _draw_spectrum_st_ts(ctx: TrialContext) -> dict:
    return {"S": ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "T": ginibre(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))}


def _draw_conjugation(ctx: TrialContext) -> dict:
    return {"U": random_unitary(ctx.dim, seed=mix_seed(ctx.trial_seed, 0)),
            "S": hermitian(ctx.dim, seed=mix_seed(ctx.trial_seed, 1))}


DRAWS = {
    "lowner-heinz": _draw_lowner_heinz,
    "holder-mccarthy": _draw_holder_mccarthy,
    "furuta": _draw_furuta,
    "chain": _draw_chain,
    "aluthge": _draw_aluthge,
    "aluthge-gain": _draw_aluthge_gain,
    "eigenspace-reducing": _draw_eigenspace_reducing,
    "gcsi-closure": _draw_gcsi_closure,
    "kernel-reduction": _draw_kernel_reduction,
    "tu-star": _draw_tu_star,
    "gcsi-implies": _draw_gcsi_implies,
    "collapse": _draw_collapse,
    "spectrum-st-ts": _draw_spectrum_st_ts,
    "conjugation-lemma": _draw_conjugation,
}
