"""Command-line surface.

Every subcommand prints one canonical JSON document (sorted keys, compact
separators) so identical invocations are byte-identical.  Exit codes:
0 success / all margins within tolerance, 1 a violation with witness,
2 usage or input errors.

Each command imports the modules it uses when it runs: ``polar``,
``transform`` and ``spectrum`` never load the generators, the oracles or
the harness, which would otherwise dominate a one-shot process.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Sequence

# OpenBLAS splits a large product differently at each thread count, which
# moves the last bits of a result; one thread, set before numpy loads,
# gives a command the same bytes whatever count the shell asked for
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from . import matio
from .errors import QopError
from .linalg import DEFAULT_DIM
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed

def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(matio.dumps_canonical(payload) + "\n")


def _number(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise QopError(f"{what} is not a number: {raw!r}") from exc


def _resolve_tol(flag: float | None) -> float:
    if flag is None:
        from .oracles import DEFAULT_TOL
        return DEFAULT_TOL
    if not (math.isfinite(flag) and flag >= 0.0):
        raise QopError(f"--tol must be finite and nonnegative, got {flag!r}")
    return flag


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import oracles

    tol = _resolve_tol(args.tol)
    t = matio.load_matrix(args.file)
    basic = oracles.classify_basic(t, tol=tol)
    payload: dict[str, Any] = {
        "selfadjoint": basic.selfadjoint,
        "positive": basic.positive,
        "normal": basic.normal,
        "unitary": basic.unitary,
        "residuals": {
            "selfadjoint": basic.selfadjoint_residual,
            "normal": basic.normal_residual,
            "unitary": basic.unitary_residual,
        },
        "positive_margin": basic.positive_margin,
        "threshold": basic.threshold,
    }
    if args.p is not None:
        m = oracles.is_p_hyponormal(t, args.p, tol=tol)
        payload["p_hyponormal"] = {"p": args.p, "margin": m.value,
                                   "violated": m.violated}
    _emit(payload)
    return 0


def _cmd_polar(args: argparse.Namespace) -> int:
    from .transforms import polar

    t = matio.load_matrix(args.file)
    parts = polar(t)
    _emit({
        "U": matio.matrix_to_json(parts.u),
        "absT": matio.matrix_to_json(parts.abs_t),
        "rank": parts.rank,
    })
    return 0


def _parse_kind(kind: str):
    from .transforms import aluthge, duggal, furuta_sr, lambda_aluthge

    if kind == "aluthge":
        return aluthge
    if kind == "duggal":
        return duggal
    if kind.startswith("lambda:"):
        lam = _number(kind.split(":", 1)[1], "lambda")
        return lambda t: lambda_aluthge(t, lam)
    if kind.startswith("sr:"):
        r = _number(kind.split(":", 1)[1], "sr exponent")
        return lambda t: furuta_sr(t, r)
    raise QopError(f"unknown transform kind {kind!r}; "
                   "expected aluthge, duggal, lambda:<x>, or sr:<r>")


def _cmd_transform(args: argparse.Namespace) -> int:
    fn = _parse_kind(args.kind)
    t = matio.load_matrix(args.file)
    _emit(matio.matrix_to_json(fn(t)))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .spectral import spherical_spectrum

    t = matio.load_matrix(args.file)
    spec = spherical_spectrum(t)
    _emit({
        "classes": [[c.real, c.imag] for c in spec.classes],
        "radius": spec.radius,
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import harness

    tol = _resolve_tol(args.tol)
    report = harness.run_verify(args.property, trials=args.trials, seed=args.seed,
                                dim=args.dim, tol=tol, probe=args.probe)
    sys.stdout.write(report.dumps() + "\n")
    return 1 if report.witness is not None else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import harness

    tol = _resolve_tol(args.tol)
    report = harness.run_fuzz(args.property, budget=args.budget, seed=args.seed,
                              dim=args.dim, tol=tol)
    sys.stdout.write(report.dumps() + "\n")
    return 1 if report.witness is not None else 0


def _parse_spectrum_arg(raw: str) -> list[Quaternion]:
    values = []
    for chunk in raw.split(";"):
        parts = [_number(v, "spectrum component") for v in chunk.split(",")]
        if len(parts) != 4:
            raise QopError(f"spectrum entries need 4 components, got {chunk!r}")
        values.append(Quaternion(*parts))
    return values


def _gen_spectrum(generators: Any, args: argparse.Namespace) -> list[Quaternion]:
    """``--spectrum``, or n quaternions drawn from the seed once n is a valid dimension."""
    n = args.dim
    if args.spectrum is not None:
        values = _parse_spectrum_arg(args.spectrum)
        if len(values) != n:
            raise QopError(f"spectrum length {len(values)} does not match --dim {n}")
        return values
    generators._check_dim(n)
    stream = SplitMix64(mix_seed(args.seed, 101))
    return [Quaternion(*map(float, stream.normals(4))) for _ in range(n)]


# each kind of ``qop gen``, in the order of its choices, and its payload
# from the generators module and the arguments
_GEN_KINDS = {
    "ginibre": lambda g, a: matio.matrix_to_json(g.ginibre(a.dim, seed=a.seed)),
    "hermitian": lambda g, a: matio.matrix_to_json(g.hermitian(a.dim, seed=a.seed)),
    "positive": lambda g, a: matio.matrix_to_json(g.positive(a.dim, seed=a.seed)),
    "ordered-pair": lambda g, a: dict(zip("AB", map(matio.matrix_to_json,
                                                    g.ordered_pair(a.dim, seed=a.seed)))),
    "normal-with-spectrum": lambda g, a: matio.matrix_to_json(
        g.normal_with_spectrum(_gen_spectrum(g, a), seed=a.seed)),
    "partial-isometry": lambda g, a: matio.matrix_to_json(
        g.partial_isometry(a.dim, a.defect, seed=a.seed)),
    "near-normal": lambda g, a: matio.matrix_to_json(g.near_normal(a.dim, a.eps, seed=a.seed)),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import generators

    payload = _GEN_KINDS[args.kind](generators, args)
    text = matio.dumps_canonical(payload) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.

    The ``property`` choices of ``verify`` and ``fuzz`` come from the
    harness registry, the costliest module to import.  argparse reads a
    subcommand's arguments only when ``argv[0]`` names it, so those two
    positionals are built only then.
    """
    properties = None
    if argv and argv[0] in ("verify", "fuzz"):
        from .harness import PROPERTIES
        properties = sorted(PROPERTIES)

    parser = argparse.ArgumentParser(
        prog="qop",
        description="Quaternionic operator toolkit: decompositions, spectra, "
                    "and randomized inequality verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="operator class flags and margins")
    c.add_argument("file")
    c.add_argument("--p", type=float, default=None,
                   help="also test p-hyponormality at this exponent")
    c.add_argument("--tol", type=float, default=None)
    c.set_defaults(func=_cmd_classify)

    p = sub.add_parser("polar", help="polar decomposition T = U |T|")
    p.add_argument("file")
    p.set_defaults(func=_cmd_polar)

    t = sub.add_parser("transform", help="Aluthge-family transforms")
    t.add_argument("--kind", required=True,
                   help="aluthge | duggal | lambda:<x> | sr:<r>")
    t.add_argument("file")
    t.set_defaults(func=_cmd_transform)

    s = sub.add_parser("spectrum", help="spherical spectrum class representatives")
    s.add_argument("file")
    s.set_defaults(func=_cmd_spectrum)

    v = sub.add_parser("verify", help="randomized property verification")
    if properties is not None:
        v.add_argument("property", choices=properties)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--dim", type=int, default=DEFAULT_DIM)
    v.add_argument("--probe", action="store_true",
                   help="sample outside the theorem hypotheses (exploratory)")
    v.add_argument("--tol", type=float, default=None)
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("fuzz", help="search for a violating instance and shrink it")
    if properties is not None:
        f.add_argument("property", choices=properties)
    f.add_argument("--budget", type=int, default=200)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--dim", type=int, default=DEFAULT_DIM)
    f.add_argument("--tol", type=float, default=None)
    f.set_defaults(func=_cmd_fuzz)

    g = sub.add_parser("gen", help="deterministic random operator generators")
    g.add_argument("kind", choices=_GEN_KINDS)
    g.add_argument("--dim", type=int, default=DEFAULT_DIM)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None)
    g.add_argument("--eps", type=float, default=1e-3,
                   help="perturbation size for near-normal")
    g.add_argument("--defect", type=int, default=1,
                   help="kernel dimension for partial-isometry")
    g.add_argument("--spectrum", default=None,
                   help="semicolon-separated w,x,y,z quaternions for "
                        "normal-with-spectrum")
    g.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (QopError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
