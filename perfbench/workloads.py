"""The four benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed into groups of ops.  Each group draws
its own inputs from the seed and the group index, except in
decompose-large, whose inputs cost a polar decomposition each to make and
are shared by every group.  Checks compare outputs with independent numpy
computations through the complex adjoint embedding and never with stored
bytes, so a correct change of eigensolver, which moves low-order bits,
still passes them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from qop import generators, harness, matio, oracles, spectral, transforms
from qop.errors import QopError
from qop.rng import SplitMix64, mix_seed

DIM = 4
TOL = oracles.DEFAULT_TOL


class ReportedViolation(QopError):
    """A kernel-reduction trial reported ker T != ker T^2 for a normal T.

    This is a known defect of the kernel dimension decision, not a wrong
    theorem, so the op counts as a failed op with its seed, like any
    QopError, and the run goes on.  Any other witness is a wrong answer
    and fails the run's correctness check.
    """


@dataclass
class Op:
    id: str
    run: Callable[[], Any]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    headroom: float | None = None


def chi(comps: np.ndarray) -> np.ndarray:
    """Complex adjoint embedding of an (n, m, 4) component array.

    Written here from the definition q = (w + x i) + (y + z i) j, so the
    checks do not reuse the library's own embedding.
    """
    a = comps[..., 0] + 1j * comps[..., 1]
    b = comps[..., 2] + 1j * comps[..., 3]
    return np.block([[a, b], [-b.conj(), a.conj()]])


def _components(entries) -> np.ndarray:
    return np.asarray(entries, dtype=np.float64)


def _rel_check(name: str, residual: float, scale: float, tol: float) -> Check:
    bound = tol * scale
    headroom = math.inf if residual == 0.0 else bound / residual
    return Check(name, residual <= bound,
                 f"residual {residual:.3e} vs bound {bound:.3e}", headroom)


def polar_residual(t: np.ndarray, u: np.ndarray, abs_t: np.ndarray) -> tuple[float, float]:
    """||U|T| - T|| and ||T|| (Frobenius, through the embedding)."""
    ct = chi(t)
    return float(np.linalg.norm(chi(u) @ chi(abs_t) - ct)), float(np.linalg.norm(ct))


def spectral_radius(t: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(chi(t))).max())


def nonzero_entries(instance: dict[str, Any]) -> int:
    count = 0
    for value in instance.values():
        if hasattr(value, "to_array"):
            count += int(np.count_nonzero(np.any(value.to_array() != 0.0, axis=-1)))
    return count


class Workload:
    name = ""
    why = ""
    # wall seconds of one group on a 2-core Xeon VM when the benchmark was
    # defined; a run measures --seconds / group_s groups
    group_s = 1.0

    def setup(self, seed: int, root: str, groups: int) -> list[list[Op]]:
        """Generate the inputs; return ``groups`` lists of ops."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def canonical(self, op_id: str, output: Any) -> str:
        raise NotImplementedError

    def check(self, outputs: dict[str, Any]) -> list[Check]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------- verify-small


class VerifySmall(Workload):
    name = "verify-small"
    why = ("everyday qop verify load: 14 properties at dim 4, many 8x8 "
           "eigensolves inside Python per-object overhead; a solver change shows "
           "here first")
    trials = 4
    group_s = 5.0

    def setup(self, seed, root, groups):
        self.seed = seed
        props = sorted(harness.PROPERTIES)
        return [[Op(f"g{g}/verify:{prop}",
                    lambda p=prop, s=mix_seed(seed, g * len(props) + i): self._verify(p, s))
                 for i, prop in enumerate(props)]
                for g in range(groups)]

    def _verify(self, prop: str, seed: int):
        report = harness.run_verify(prop, trials=self.trials, seed=seed, dim=DIM)
        if report.witness is not None and prop == "kernel-reduction":
            kernels = oracles.check_kernel_reduction(
                matio.json_to_matrix(report.witness["T"]), tol=TOL)
            if kernels.dim_ker != kernels.dim_ker_sq:
                raise ReportedViolation(
                    f"{prop} --seed {seed}: dim ker T {kernels.dim_ker} != dim ker T^2 "
                    f"{kernels.dim_ker_sq} at trial seed {report.witness['trial_seed']}")
        return report

    def warm_up(self):
        harness.run_verify("holder-mccarthy", trials=1, seed=self.seed, dim=DIM)

    def canonical(self, op_id, output):
        return output.dumps()

    def check(self, outputs):
        bad = [op for op, rep in outputs.items()
               if rep.witness is not None or len(rep.per_trial) != self.trials
               or rep.min_margin != min(m for _, m in rep.per_trial)
               or rep.min_margin < -rep.tol]
        return [Check("verify-small reports: no witness, min_margin is the least "
                      "per-trial margin and within tolerance", not bad,
                      f"{len(outputs)} reports" + (f"; wrong: {bad}" if bad else ""))]


# -------------------------------------------------------- decompose-large


class DecomposeLarge(Workload):
    name = "decompose-large"
    why = ("polar, aluthge, spectrum, eigh_q, classify and kernel_basis at n=16 "
           "and 32: O(n^3) eigensolves, the general eigensolver and "
           "rank-deficient polar")
    sizes = (16, 32)
    group_s = 7.5
    skipped = {"n64": "skipped: >20 s per group (one polar takes 6.9 s) until the "
                      "eigensolver seam lands"}

    def setup(self, seed, root, groups):
        ops: list[tuple[str, Callable[[], Any]]] = []
        self.inputs: dict[str, Any] = {}
        for n in self.sizes:
            g = generators.ginibre(n, seed=mix_seed(seed, 3 * n))
            h = generators.hermitian(n, seed=mix_seed(seed, 3 * n + 1))
            p = generators.partial_isometry(n, n // 4, seed=mix_seed(seed, 3 * n + 2))
            self.inputs.update({f"G{n}": g, f"H{n}": h, f"P{n}": p})
            ops += [
                (f"polar:G{n}", lambda g=g: transforms.polar(g)),
                (f"aluthge:G{n}", lambda g=g: transforms.aluthge(g)),
                (f"spherical_spectrum:G{n}", lambda g=g: spectral.spherical_spectrum(g)),
                (f"eigh_q:H{n}", lambda h=h: spectral.eigh_q(h)),
                (f"classify_basic:G{n}", lambda g=g: oracles.classify_basic(g)),
                (f"polar:P{n}", lambda p=p: transforms.polar(p)),
                (f"kernel_basis:P{n}", lambda p=p: spectral.kernel_basis(p)),
            ]
        self.seed = seed
        return [[Op(f"g{g}/{name}", fn) for name, fn in ops] for g in range(groups)]

    def warm_up(self):
        g = generators.ginibre(2, seed=self.seed)
        transforms.aluthge(g)
        spectral.spherical_spectrum(g)
        oracles.classify_basic(g)
        spectral.kernel_basis(g)

    def canonical(self, op_id, out):
        kind = op_id.partition("/")[2].partition(":")[0]
        if kind == "polar":
            doc = {"U": out.u.to_array().tolist(), "absT": out.abs_t.to_array().tolist(),
                   "rank": out.rank, "sigmas": list(out.sigmas)}
        elif kind == "aluthge":
            doc = out.to_array().tolist()
        elif kind == "spherical_spectrum":
            doc = {"classes": [[c.real, c.imag] for c in out.classes],
                   "multiplicities": list(out.multiplicities), "radius": out.radius}
        elif kind == "eigh_q":
            doc = {"eigenvalues": list(out.eigenvalues),
                   "vectors": out.vectors.to_array().tolist()}
        elif kind == "classify_basic":
            doc = asdict(out)
        else:
            doc = [v.to_array().tolist() for v in out]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def check(self, outputs):
        checks: list[Check] = []
        for op_id, out in outputs.items():
            kind, _, arg = op_id.partition("/")[2].partition(":")
            t = self.inputs[arg].to_array()
            n = t.shape[0]
            if kind == "polar":
                res, scale = polar_residual(t, out.u.to_array(), out.abs_t.to_array())
                checks.append(_rel_check(f"{op_id} ||U|T|-T|| <= 1e-10 ||T||",
                                         res, scale, 1e-10))
                want = n - n // 4 if arg.startswith("P") else n
                checks.append(Check(f"{op_id} rank == {want}", out.rank == want,
                                    f"rank {out.rank}"))
            elif kind == "aluthge":
                want = spectral_radius(t)
                got = spectral_radius(out.to_array())
                checks.append(_rel_check(f"{op_id} keeps the spectral radius",
                                         abs(got - want), max(1.0, want), 1e-8))
            elif kind == "spherical_spectrum":
                want = spectral_radius(t)
                checks.append(_rel_check(f"{op_id} radius matches numpy eigvals",
                                         abs(out.radius - want), max(1.0, want), 1e-8))
            elif kind == "eigh_q":
                w2 = np.linalg.eigvalsh(chi(t)).reshape(n, 2).mean(axis=1)
                res = float(np.abs(np.asarray(out.eigenvalues) - w2).max())
                checks.append(_rel_check(f"{op_id} eigenvalues match numpy eigvalsh",
                                         res, max(1.0, float(np.abs(w2).max())), 1e-9))
            elif kind == "classify_basic":
                ct = chi(t)
                opn = float(np.linalg.norm(ct, 2))
                want_thr = TOL * max(1.0, opn) ** 2
                checks.append(_rel_check(f"{op_id} threshold matches numpy norm",
                                         abs(out.threshold - want_thr), want_thr, 1e-9))
                normal = float(np.linalg.norm(ct.conj().T @ ct - ct @ ct.conj().T)) / math.sqrt(2)
                checks.append(_rel_check(f"{op_id} normal residual matches numpy",
                                         abs(out.normal_residual - normal), normal, 1e-9))
                checks.append(Check(f"{op_id} Ginibre draw is neither normal nor self-adjoint",
                                    not (out.normal or out.selfadjoint)))
            elif kind == "kernel_basis":
                want = n // 4
                checks.append(Check(f"{op_id} kernel dimension == {want}", len(out) == want,
                                    f"found {len(out)}"))
                ct = chi(t)
                worst = max((float(np.linalg.norm(ct @ chi(v.to_array()[:, None, :])))
                             for v in out), default=0.0)
                checks.append(_rel_check(f"{op_id} ||P v|| <= 1e-10", worst, 1.0, 1e-10))
        return checks


# ----------------------------------------------------------- shrink-probe


class ShrinkProbe(Workload):
    name = "shrink-probe"
    why = ("probe-regime Lowner-Heinz and Furuta instances evaluated and shrunk: "
           "same oracles, but most candidates exit early on a failed "
           "precondition")
    instances = 30
    group_s = 4.7
    shrink_budget = 64

    def setup(self, seed, root, groups):
        self.seed = seed
        self.originals: dict[str, tuple[str, dict[str, Any]]] = {}
        return [self._group(seed, g) for g in range(groups)]

    def _group(self, seed: int, g: int) -> list[Op]:
        strata = self.instances // 2
        ops = []
        for i in range(self.instances):
            k = 2 * (g * self.instances + i)
            a, b = generators.ordered_pair(DIM, seed=mix_seed(seed, k))
            stream = SplitMix64(mix_seed(seed, k + 1))
            # exponents are stratified over their interval, so every seed
            # covers it evenly; this far outside the theorems nearly every
            # instance violates and is shrunk, which keeps the op mix steady
            u = (i // 2 + 1.0 - stream.uniform(0.0, 1.0)) / strata
            if i % 2 == 0:
                prop, inst = "lowner-heinz", {"A": a, "B": b, "r": 2.5 + 0.5 * u}
            else:
                # q = 1 < (p + 2r) / (1 + 2r) for every p > 1: the constraint fails
                prop, inst = "furuta", {"A": a, "B": b, "p": 2.0 + u, "q": 1.0,
                                        "r": stream.uniform(0.0, 0.5)}
            op_id = f"g{g}/{prop}:{i}"
            self.originals[op_id] = (prop, inst)
            ops.append(Op(op_id, lambda prop=prop, inst=inst: self._probe(prop, inst)))
        return ops

    def _probe(self, prop: str, inst: dict[str, Any]):
        margin = harness.evaluate_instance(prop, inst, TOL)
        if margin >= -TOL:
            return margin, None
        return margin, harness.minimize_counterexample(prop, inst, budget=self.shrink_budget,
                                                       tol=TOL)

    def warm_up(self):
        prop, inst = next(iter(self.originals.values()))
        harness.evaluate_instance(prop, inst, TOL)

    def canonical(self, op_id, out):
        margin, shrunk = out
        doc = {"margin": margin, "shrunk": None if shrunk is None else {
            k: (v.to_array().tolist() if hasattr(v, "to_array") else v)
            for k, v in sorted(shrunk.items())}}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def check(self, outputs):
        checks = []
        shrunk_count = 0
        for op_id, (margin, shrunk) in outputs.items():
            if shrunk is None:
                continue
            shrunk_count += 1
            prop, orig = self.originals[op_id]
            # an instance the shrinker could not reduce is the original, whose
            # margin the op already measured
            same = all(shrunk[k] is orig[k] for k in orig) and len(shrunk) == len(orig)
            m = margin if same else harness.evaluate_instance(prop, shrunk, TOL)
            checks.append(Check(f"{op_id} shrunk instance still violates", m < -TOL,
                                f"margin {m:.3e}"))
            before, after = nonzero_entries(orig), nonzero_entries(shrunk)
            checks.append(Check(f"{op_id} shrunk instance is no larger", after <= before,
                                f"{after} vs {before} nonzero entries"))
        checks.append(Check("shrink-probe shrank at least one instance", shrunk_count > 0,
                            f"{shrunk_count} of {len(outputs)} instances violated"))
        return checks


# ------------------------------------------------------------ cli-oneshot


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    profile: dict | None = None


class CliOneshot(Workload):
    name = "cli-oneshot"
    why = ("sequential python -m qop processes at dim 4: interpreter start, "
           "import, argparse and JSON I/O dominate; kernel work barely shows "
           "here")
    # each input file also gets one of the other transform kinds
    files = (("g.json", "ginibre", "duggal"), ("p.json", "positive", "lambda:0.25"),
             ("n.json", "normal-with-spectrum", "sr:0.5"))
    group_s = 5.0

    def __init__(self):
        self.traced = False
        self.workdir = ""

    def setup(self, seed, root, groups):
        self.root = root
        self.workdir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = child_env(root)
        self.gen_files: dict[str, str] = {}
        return [self._group(seed, g) for g in range(groups)]

    def _group(self, seed: int, g: int) -> list[Op]:
        ops = []
        for i, (base, kind, _) in enumerate(self.files):
            fname, op_id = f"g{g}-{base}", f"g{g}/gen:{kind}"
            self.gen_files[op_id] = fname
            ops.append(self._op(op_id, ["gen", kind, "--dim", str(DIM), "--seed",
                                        str(mix_seed(seed, 4 * g + i) % 2 ** 31), "-o", fname]))
        for base, _, extra in self.files:
            fname = f"g{g}-{base}"
            ops += [self._op(f"g{g}/classify:{fname}", ["classify", fname, "--p", "0.5"]),
                    self._op(f"g{g}/polar:{fname}", ["polar", fname]),
                    self._op(f"g{g}/transform:{fname}",
                             ["transform", "--kind", "aluthge", fname]),
                    self._op(f"g{g}/transform-{extra}:{fname}",
                             ["transform", "--kind", extra, fname]),
                    self._op(f"g{g}/spectrum:{fname}", ["spectrum", fname])]
        ops.append(self._op(f"g{g}/verify:furuta",
                            ["verify", "furuta", "--trials", "4", "--seed",
                             str(mix_seed(seed, 4 * g + 3) % 2 ** 31)]))
        return ops

    def _op(self, op_id: str, args: list[str]) -> Op:
        return Op(op_id, lambda: self._run(args))

    def _run(self, args: list[str]) -> CliResult:
        if self.traced:
            prof_path = os.path.join(self.workdir, "profile.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "launch.py"),
                   "--profile-out", prof_path, "--", *args]
        else:
            cmd = [sys.executable, "-m", "qop", *args]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode == 2:
            raise QopError(f"qop {' '.join(args)} exited 2: {proc.stderr.strip()}")
        profile = None
        if self.traced:
            with open(prof_path, encoding="utf-8") as fh:
                profile = json.load(fh)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, profile)

    def warm_up(self):
        self._run(["gen", "ginibre", "--dim", "2", "--seed", "0", "-o", "warm.json"])

    def canonical(self, op_id, out):
        text = f"exit {out.code}\n{out.stdout}"
        if op_id in self.gen_files:
            with open(os.path.join(self.workdir, self.gen_files[op_id]),
                      encoding="utf-8") as fh:
                text += fh.read()
        return text

    def _load(self, fname: str) -> np.ndarray:
        with open(os.path.join(self.workdir, fname), encoding="utf-8") as fh:
            return _components(json.load(fh)["entries"])

    def check(self, outputs):
        checks = []
        bad = {op: out.code for op, out in outputs.items() if out.code != 0}
        checks.append(Check("cli-oneshot exit codes are 0", not bad, f"nonzero: {bad}"))
        for op_id, out in outputs.items():
            kind, _, fname = op_id.partition("/")[2].rpartition(":")
            if out.code != 0 or kind in ("gen", "verify", "classify"):
                continue
            doc = json.loads(out.stdout)
            t = self._load(fname)
            if kind == "polar":
                res, scale = polar_residual(t, _components(doc["U"]["entries"]),
                                            _components(doc["absT"]["entries"]))
                # 1e-9, not the in-process 1e-10: some normal-with-spectrum
                # inputs leave U|T| - T near 1e-12 ||T||, under 100x headroom
                checks.append(_rel_check(f"{op_id} JSON reconstructs its input to 1e-9",
                                         res, scale, 1e-9))
                checks.append(Check(f"{op_id} rank == {DIM}", doc["rank"] == DIM,
                                    f"rank {doc['rank']}"))
            elif kind.startswith("transform"):
                got = _components(doc["entries"])
                checks.append(Check(f"{op_id} is a {DIM}x{DIM} matrix",
                                    got.shape == (DIM, DIM, 4), f"shape {got.shape}"))
            elif kind == "spectrum":
                want = spectral_radius(t)
                checks.append(_rel_check(f"{op_id} radius matches numpy eigvals",
                                         abs(doc["radius"] - want), max(1.0, want), 1e-8))
        return checks

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def child_env(root: str) -> dict[str, str]:
    """Environment for child interpreters: this checkout's qop, fixed threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def child_import(root: str) -> tuple[float, str]:
    """Seconds a fresh interpreter spends in ``import qop``, and the path
    qop was imported from."""
    code = ("import time; t = time.perf_counter(); import qop; "
            "print(time.perf_counter() - t); print(qop.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(root),
                          capture_output=True, text=True, timeout=60, check=True)
    import_s, path = proc.stdout.split("\n")[:2]
    return float(import_s), path


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (VerifySmall, DecomposeLarge, ShrinkProbe, CliOneshot)}
