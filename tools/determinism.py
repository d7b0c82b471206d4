"""Determinism manifest: every byte-identity check of the ``qop`` command.

Each table entry is a ``qop`` argv, the environments it runs under and the
exit codes it may end with.  The tool runs each entry through
``python -m qop`` in a fresh temporary directory, twice under its first
environment and once under each other one, after writing its input there
with ``qop gen ... -o input.json`` when it has one.  Every run's stdout and
exit code must equal the first run's, and that code must be allowed.  It
prints one line per entry, the sha256 of the first run's stdout and exit
code followed by the entry, and exits 1 on any difference or disallowed
code:

    PYTHONPATH=src python tools/determinism.py

It takes no options, and it imports nothing beyond the standard library
save ``qop.harness.PROPERTIES``, the property list.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

from qop.harness import PROPERTIES

Env = dict[str, str | None]  # a variable's value, or None to unset it

INPUT = "input.json"
SAME: tuple[Env, ...] = ({},)
# the CLI pins one OpenBLAS thread, so the shell's count changes no byte
THREADS: tuple[Env, ...] = tuple({"OPENBLAS_NUM_THREADS": n} for n in (None, "1", "2"))
# only --tol sets the tolerance, so a stray QOP_TOL changes no byte
TOL: tuple[Env, ...] = ({"QOP_TOL": None}, {"QOP_TOL": "1e6"})
WITNESS = frozenset({0, 1})  # 1 is a witnessed violation


class Entry(NamedTuple):
    argv: tuple[str, ...]
    gen: tuple[str, ...] = ()  # the `qop gen` argv that writes INPUT first
    envs: tuple[Env, ...] = SAME
    codes: frozenset[int] = frozenset({0})


def _verify(prop: str, args: str, envs: tuple[Env, ...] = SAME) -> Entry:
    return Entry(("verify", prop, *args.split(), "--seed", "42"), envs=envs)


def _ginibre(dim: int) -> tuple[str, ...]:
    return ("gen", "ginibre", "--dim", str(dim), "--seed", "5", "-o", INPUT)


PARTIAL = ("gen", "partial-isometry", "--dim", "8", "--defect", "2", "--seed", "3", "-o", INPUT)
PROPS = sorted(PROPERTIES)

TABLE = [
    # README's determinism and fuzz examples
    _verify("furuta", "--trials 100"),
    Entry(("fuzz", "gcsi-implies", "--budget", "400", "--seed", "11")),
    # every property, fuzzed over 37 dim-4 trials, which cross two chunk
    # boundaries, and verified with QOP_TOL unset and set
    *(Entry(("fuzz", p, "--budget", "37", "--seed", "7", "--dim", "4"), codes=WITNESS)
      for p in PROPS),
    *(Entry(("verify", p, "--trials", "20", "--seed", "7", "--dim", "4"), envs=TOL, codes=WITNESS)
      for p in PROPS),
    # GCSI searches scored a chunk at a time, at the default dim, 16, 18
    # (two chunks of 6), 64, and over 37 trials, which cross a chunk
    # boundary; the closure's one SVD per chunk under each thread count
    *(_verify(p, args) for p in ("gcsi-closure", "gcsi-implies")
      for args in ("--trials 40", "--trials 40 --dim 16", "--trials 12 --dim 18",
                   "--trials 4 --dim 64", "--trials 37")),
    _verify("gcsi-closure", "--trials 16 --dim 16", THREADS),
    # whole exponent grids per call at dim 8 and 64, the eigh-bound
    # lowner-heinz and the SVD-bound collapse under each thread count, and
    # furuta and conjugation-lemma's one stack per chunk over 37 trials
    *(_verify(p, "--trials 50 --dim 8")
      for p in ("lowner-heinz", "holder-mccarthy", "collapse", "aluthge", "aluthge-gain",
                "gcsi-implies", "furuta", "conjugation-lemma")),
    *(_verify(p, "--trials 4 --dim 64", THREADS if p in ("lowner-heinz", "collapse") else SAME)
      for p in ("lowner-heinz", "collapse", "furuta", "conjugation-lemma")),
    *(_verify(p, "--trials 37") for p in ("furuta", "conjugation-lemma")),
    # random normal operators and unitaries drawn a chunk at a time: chunks
    # of 16 over 37 trials, of 8 and 5 at dim 16, of 2 and 1 at dim 32, and
    # one draw a chunk at dim 64
    *(_verify(p, args)
      for p in ("chain", "aluthge", "aluthge-gain", "eigenspace-reducing", "kernel-reduction",
                "tu-star", "spectrum-st-ts")
      for args in ("--trials 37", "--trials 4 --dim 64", "--trials 37 --dim 16",
                   "--trials 5 --dim 32")),
    # a rank-deficient T: |T| for polar and Duggal, |T|^s for sr and lambda,
    # ker T and ker T* for eigenspace-reducing; a non-finite exponent is an
    # input error (exit 2)
    *(Entry((*cmd, INPUT), gen=PARTIAL)
      for cmd in (("polar",), ("transform", "--kind", "duggal"),
                  ("transform", "--kind", "sr:0.5"), ("transform", "--kind", "lambda:0.3"))),
    Entry(("transform", "--kind", "sr:nan", INPUT), gen=PARTIAL, codes=frozenset({2})),
    _verify("eigenspace-reducing", "--trials 20"),
    # the conjugate pairing of the embedded spectrum, under each thread
    # count at dim 64, and classify's one T*T product
    *(Entry((cmd, INPUT), gen=_ginibre(dim),
            envs=THREADS if (cmd, dim) == ("spectrum", 64) else SAME)
      for dim in (16, 64) for cmd in ("spectrum", "classify")),
    # a spectrum drawn from the seed before the operator is built on it
    *(Entry(("gen", "normal-with-spectrum", "--dim", dim, "--seed", "7")) for dim in ("4", "64")),
]


def _qop(argv: tuple[str, ...], env: Env, cwd: str) -> subprocess.CompletedProcess:
    full = dict(os.environ)
    # the runs start in a temporary directory, so a relative path would miss
    full["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in full.get("PYTHONPATH", "").split(os.pathsep) if p)
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, "-m", "qop", *argv], cwd=cwd, env=full,
                          capture_output=True)


def describe(entry: Entry) -> str:
    """The entry as one line: its command, input, environments and exit codes."""
    text = "qop " + " ".join(entry.argv)
    if entry.gen:
        text += " | input: qop " + " ".join(entry.gen)
    if entry.envs != SAME:
        text += " | env: " + ", ".join(
            " ".join(f"{k}={'(unset)' if v is None else v}" for k, v in env.items())
            for env in entry.envs)
    return text + " | exit " + "/".join(map(str, sorted(entry.codes)))


def check(entry: Entry) -> tuple[str, list[str]]:
    """The sha256 of the entry's first run, and each way the runs broke the entry."""
    with tempfile.TemporaryDirectory() as tmp:
        if entry.gen:
            made = _qop(entry.gen, {}, tmp)
            if made.returncode != 0:
                return "", [f"input exited {made.returncode}: {made.stderr.decode()[-200:]}"]
        first, *rest = [_qop(entry.argv, env, tmp) for env in (entry.envs[0], *entry.envs)]
    problems = []
    if first.returncode not in entry.codes:
        problems.append(f"exited {first.returncode}: {first.stderr.decode()[-200:]}")
    for env, run in zip(entry.envs, rest):
        if (run.stdout, run.returncode) != (first.stdout, first.returncode):
            problems.append(f"a run under {env or 'the same environment'} differs from the first")
    digest = hashlib.sha256(first.stdout + b"exit %d" % first.returncode).hexdigest()
    return digest, problems


def main() -> int:
    failed = 0
    for entry in TABLE:
        digest, problems = check(entry)
        print(digest or "-" * 64, describe(entry), flush=True)
        for problem in problems:
            print("  FAIL:", problem, flush=True)
        failed += bool(problems)
    print(f"{len(TABLE)} entries, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
