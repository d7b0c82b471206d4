"""qop benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 24 --trace 0

Workloads: verify-small, decompose-large, shrink-probe, cli-oneshot (see
workloads.py for what each runs and why).  A run sets up its inputs five
times and reports the median set-up time, then runs the workload's ops one
at a time in a closed loop.  The ops come in groups; the number of groups
is ``--seconds`` divided by the workload's nominal group time (its group
time on a 2-core Xeon VM when the benchmark was defined).  So a run lasts
about ``--seconds`` there, and two commits compared with the same
``--seconds`` do the same work and get the same sample count, which keeps
the tail percentile comparable.  Outputs are checked after timing ends.

Times are normalised to a fixed machine speed.  The machine this was built
on is shared, and its speed drifts by 20% and more over minutes, for every
process at once.  So the run times a fixed reference kernel (interpreter
loops and small matrix products, the mix qop's ops are made of) before
the first op of each group and after every op.  Every time measured in the
group is then scaled by ``REF_NOMINAL_S`` over the median reference time of
the group.  A reported millisecond is a millisecond at the speed at which
the kernel takes ``REF_NOMINAL_S``; the raw figures and the per-group
reference times are in the report.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` the run measures the same ops twice, once
untraced and once traced, each for half of ``--seconds``, and the last line
carries the per-layer metrics, including the tracing overhead.  Either way
a readable summary and a full JSON report come first, and the report and
the spans of the first traced group are written to ``.bench_out/``.  The
exit code is 0 when every output check passed, 1 when one failed and 2
when the checkout holds no qop sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

BLAS_THREADS = 1
SETUP_REPS = 5
# about the reference kernel's time on the 2-core Xeon VM the benchmark was
# defined on, when other tenants were not slowing it down
REF_NOMINAL_S = 0.004
TIMING_NOTE = ("process-level timing only: time.perf_counter_ns around each op and "
               "resource.getrusage; no hardware performance counters and no "
               "system-wide tracing")
E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
             "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-small", "decompose-large", "shrink-probe", "cli-oneshot"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare(root: str) -> None:
    """Pin BLAS threads before numpy loads and put this checkout's qop first."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(root, "src"))


# ---------------------------------------------------------------- timing


def reference_s() -> float:
    """Seconds one run of the fixed reference kernel takes right now."""
    import numpy as np

    rotation = np.linalg.qr(np.arange(64.0).reshape(8, 8) + np.eye(8))[0]
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    a = np.eye(8)
    for _ in range(1000):
        a = a @ rotation
    return time.perf_counter() - start


def scale_for(refs: list[float]) -> float:
    """Factor that turns raw times into times at the nominal machine speed."""
    return REF_NOMINAL_S / statistics.median(refs)


@dataclass
class Group:
    rows: list[tuple]  # (op_id, raw ns, error or None, output)
    scale: float
    refs_ms: list[float]


def measure(groups, after_op=None) -> list[Group]:
    """Run every op of every group once, in order, timing the reference
    kernel before the first op and after each op.

    A QopError is a failed op and the run goes on; any other exception is
    a bug and ends the run.
    """
    from qop.errors import QopError

    out = []
    for g, ops in enumerate(groups):
        rows, refs = [], [reference_s()]
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                result, err = op.run(), None
            except QopError as exc:
                result, err = None, f"{type(exc).__name__}: {exc}"
            ns = time.perf_counter_ns() - t0
            if after_op is not None:
                after_op(g)
            rows.append((op.id, ns, err, result))
            refs.append(reference_s())
        out.append(Group(rows, scale_for(refs), [1e3 * r for r in refs]))
    return out


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with ten samples beyond it."""
    n = len(sorted_ms)
    if n < 11:
        return sorted_ms[-1], 100.0
    return sorted_ms[n - 11], 100.0 * (n - 10) / n


def group_rate(group: Group, scale: float) -> float:
    """Completed ops per busy second within one group."""
    done = sum(1 for r in group.rows if r[2] is None)
    return done / (scale * sum(r[1] for r in group.rows) / 1e9)


def summarize(groups: list[Group]) -> dict:
    """End-to-end statistics at the nominal machine speed, and raw.

    ops_per_s is the median of the per-group rates, so one odd group does
    not move it.
    """
    rows = [(r, g.scale) for g in groups for r in g.rows]
    ms = sorted(r[1] * scale / 1e6 for r, scale in rows)
    raw_ms = sorted(r[1] / 1e6 for r, _ in rows)
    failed = sum(1 for r, _ in rows if r[2] is not None)
    tail_ms, tail_pct = tail(ms)
    return {"attempted": len(rows), "failed": failed, "groups": len(groups),
            "ops_per_group": len(groups[0].rows), "busy_s": sum(ms) / 1e3,
            "ops_per_s": statistics.median(group_rate(g, g.scale) for g in groups),
            "op_ms_p50": statistics.median(ms), "op_ms_tail": tail_ms,
            "tail_percentile": tail_pct, "fail_ratio": failed / len(rows),
            "raw": {"busy_s": sum(raw_ms) / 1e3, "op_ms_p50": statistics.median(raw_ms),
                    "op_ms_tail": tail(raw_ms)[0],
                    "ops_per_s": statistics.median(group_rate(g, 1.0) for g in groups)},
            "group_scale": [g.scale for g in groups],
            "reference_ms": [g.refs_ms for g in groups],
            "op_ms": {r[0]: r[1] * scale / 1e6 for r, scale in rows}}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------- setup


def set_up(workload, seed: int, root: str, groups: int):
    """Set the workload up SETUP_REPS times; return its op groups and timings.

    One set-up is a fresh interpreter importing qop, input generation and a
    warm-up call; every repetition builds the same inputs from the seed.
    """
    from workloads import child_import

    src = os.path.realpath(os.path.join(root, "src"))
    reps, raw, imports = [], [], []
    for _ in range(SETUP_REPS):
        refs = [reference_s() for _ in range(5)]
        start = time.perf_counter()
        import_s, path = child_import(root)
        ops = workload.setup(seed, root, groups)
        workload.warm_up()
        raw.append(time.perf_counter() - start)
        refs += [reference_s() for _ in range(5)]
        reps.append(raw[-1] * scale_for(refs))
        imports.append(import_s * scale_for(refs))
        if not os.path.realpath(path).startswith(src):
            raise SystemExit(f"child imported qop from {path}, not from {src}")
    return ops, {"reps_s": reps, "raw_reps_s": raw, "import_s": imports,
                 "setup_s": statistics.median(reps),
                 "import_ms": 1000.0 * statistics.median(imports)}


# ---------------------------------------------------------------- report


def digest(workload, groups) -> str:
    """sha256 over the canonical outputs of every op, in run order."""
    h = hashlib.sha256()
    for group in groups:
        for op_id, _, err, out in group.rows:
            text = f"error {err}" if err is not None else workload.canonical(op_id, out)
            h.update(f"{op_id}\n{text}\n".encode())
    return h.hexdigest()


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "platform": platform.platform(),
            "note": TIMING_NOTE}


def traced_phase(workload, ops):
    """Measure with spans on; return groups, merged profile, counters, spans.

    Each group's profile is scaled by that group's speed factor before the
    groups are merged, so per-layer times are at the nominal machine speed
    like the end-to-end ones.  The spans are kept raw.
    """
    import tracing

    per_group = [tracing.empty_profile() for _ in ops]
    counters, first_spans = {}, []
    if workload.name == "cli-oneshot":
        workload.traced = True
        try:
            groups = measure(ops)
        finally:
            workload.traced = False
        for g, group in enumerate(groups):
            for _, _, _, out in group.rows:
                if out is None:
                    continue
                tracing.merge(per_group[g], out.profile["profile"])
                for key, n in out.profile["counters"].items():
                    counters[key] = counters.get(key, 0) + n
                if g == 0:
                    first_spans.extend(out.profile["spans"])
    else:
        tracer = tracing.Tracer()

        def fold(group: int) -> None:
            spans = tracer.take()
            tracing.merge(per_group[group], tracing.profile(spans))
            if group == 0:
                first_spans.extend(spans)

        with tracer:
            groups = measure(ops, after_op=fold)
        counters = dict(tracer.counters)
    merged = tracing.empty_profile()
    for prof, group in zip(per_group, groups):
        tracing.merge(merged, tracing.scaled(prof, group.scale))
    return groups, merged, counters, first_spans


def run_checks(workload, groups) -> list:
    """Check the outputs of every op that did not fail."""
    return workload.check({op_id: out for g in groups for op_id, _, err, out in g.rows
                           if err is None})


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qop", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a qop checkout "
                         "(src/qop/__init__.py not found)\n")
        return 2
    prepare(root)
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    seconds = args.seconds / 2 if args.trace else args.seconds
    n_groups = max(1, round(seconds / workload.group_s))
    try:
        ops, setup = set_up(workload, args.seed, root, n_groups)
        groups = measure(ops)
        rss = peak_rss_mb()
        # before the traced phase, which rewrites cli-oneshot's files
        checks = run_checks(workload, groups)
        run_digest = digest(workload, groups)
        if args.trace:
            traced, prof, counters, spans = traced_phase(workload, ops)
            checks.append(workloads.Check("tracing leaves every output unchanged",
                                          digest(workload, traced) == run_digest))
    finally:
        workload.close()

    measured = groups + traced if args.trace else groups
    stats = summarize(measured)
    heads = [c.headroom for c in checks if c.headroom is not None]
    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(),
              "setup": setup, "digest": run_digest,
              "skipped": getattr(workload, "skipped", {}),
              "failures": [{"workload": workload.name, "op": op_id, "seed": args.seed,
                            "error": err}
                           for g in measured for op_id, _, err, _ in g.rows
                           if err is not None],
              "checks": [vars(c) for c in checks],
              "min_headroom": min(heads) if heads else None}

    if args.trace:
        base, over = summarize(groups), summarize(traced)
        extra = {"import_ms": setup["import_ms"], "untraced_ops_per_s": base["ops_per_s"],
                 "traced_ops_per_s": over["ops_per_s"]}
        values = layers.compute(prof, counters, over["attempted"], over["busy_s"] * 1e9,
                                extra)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in layers.METRICS}
        report["timing"] = {"untraced": base, "traced": over}
        report["per_layer"] = metrics
        report["moves"] = {m.name: m.moves for m in layers.METRICS}
        report["layers"] = layers.layer_table(prof, over["attempted"])
        report["call_counts"] = {k: row[0] for k, row in sorted(prof["fn"].items())}
        write_out(root, args, "spans.jsonl", "".join(json.dumps(s) + "\n" for s in spans))
    else:
        values = dict(stats, setup_s=setup["setup_s"], peak_rss_mb=rss)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        report["timing"] = stats
        report["end_to_end"] = dict(metrics, fail_ratio={"value": stats["fail_ratio"],
                                                         "unit": "ratio"})

    correct = all(c.ok for c in checks)
    print_summary(report, stats, correct)
    write_out(root, args, "json", json.dumps(report, sort_keys=True, indent=1, default=str))
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0 if correct else 1


def print_summary(report: dict, stats: dict, correct: bool) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"{stats['groups']} groups x {stats['ops_per_group']} ops  "
          f"tail = p{stats['tail_percentile']:.1f} of {stats['attempted']} samples")
    for name, m in report.get("end_to_end", report.get("per_layer", {})).items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for c in report["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED: {c['name']}: {c['detail']}")
    for f in report["failures"]:
        print(f"  failed op {f['op']}: {f['error']}")
    print(f"  digest {report['digest'][:16]}  min headroom {report['min_headroom']}  "
          f"correct {correct}")


def write_out(root: str, args, suffix: str, text: str) -> None:
    out = os.path.join(root, ".bench_out")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.{suffix}"
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
