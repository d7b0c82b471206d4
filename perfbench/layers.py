"""Per-layer metrics computed from a traced run's profile.

Each metric names the end-to-end metric it should move and on which
workload, so a change to one layer can be checked against the right
end-to-end number.  Times are at the nominal machine speed, like the
end-to-end ones: the traced run scales each group's profile by the group's
speed factor.  ``_eig`` metrics are published as ``eig.*`` because a
metric name must start with a letter or a digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ORACLE_CHECKS = ("is_p_hyponormal", "is_paranormal", "gcsi_margin",
                 "check_holder_mccarthy", "check_lowner_heinz", "check_furuta",
                 "check_chain_semihypo", "check_aluthge_theorems",
                 "check_eigenspace_reducing", "check_gcsi_closure",
                 "check_kernel_reduction", "check_tu_star", "check_gcsi_implies",
                 "classify_basic")

PROPERTIES = ("lowner-heinz", "holder-mccarthy", "furuta", "chain", "aluthge",
              "aluthge-gain", "eigenspace-reducing", "gcsi-closure",
              "kernel-reduction", "tu-star", "gcsi-implies", "collapse",
              "spectrum-st-ts", "conjugation-lemma")

MATIO_PARSE = ("load_matrix", "json_to_matrix", "json_to_vector", "json_to_quaternion")
MATIO_DUMP = ("dumps_canonical", "matrix_to_json", "vector_to_json",
              "quaternion_to_json", "save_matrix")


class View:
    """Read access to a merged profile, normalised per traced op."""

    def __init__(self, prof: dict, counters: dict, ops: int, op_ns: int,
                 extra: dict):
        self.prof, self.counters, self.ops, self.op_ns = prof, counters, ops, op_ns
        self.extra = extra
        self.by_name: dict[str, list[int]] = {}
        for key, row in prof["fn"].items():
            acc = self.by_name.setdefault(key.partition("[")[0], [0, 0, 0])
            for j in range(3):
                acc[j] += row[j]

    def calls(self, name: str) -> int:
        return self.by_name.get(name, [0, 0, 0])[0]

    def per_op(self, value: float) -> float:
        return value / self.ops

    def ms_per_call(self, key: str) -> float:
        row = self.prof["fn"].get(key) or self.by_name.get(key)
        return row[1] / row[0] / 1e6 if row and row[0] else 0.0

    def self_ms(self, layer: str) -> float:
        return sum(row[2] for name, row in self.by_name.items()
                   if name.partition(".")[0] == layer) / 1e6

    def eig_calls(self, kind: str) -> int:
        total = 0
        for name, row in self.by_name.items():
            layer, _, fn = name.partition(".")
            if layer == "_eig" and _eig_kind(fn) == kind:
                total += row[0]
        return total

    def top_level_ms(self, layer: str, names: tuple[str, ...] | None = None) -> float:
        """Inclusive time of spans of ``layer`` not called from the same layer."""
        total = 0.0
        for key, (_, _, incl_ns) in self.prof["edges"].items():
            parent, _, child = key.partition(">")
            clayer, _, cfn = child.partition(".")
            if clayer != layer or parent.partition(".")[0] == layer:
                continue
            if names is not None and cfn not in names:
                continue
            total += incl_ns / 1e6
        return total

    def edge(self, parent: str, child: str) -> tuple[int, int]:
        calls, errors, _ = self.prof["edges"].get(f"{parent}>{child}", [0, 0, 0])
        return calls, errors

    def errors(self, layer: str, error: str) -> int:
        return self.prof["errors"].get(f"{layer}:{error}", 0)


def _eig_kind(fn: str) -> str:
    if fn.startswith(("eigh", "eigvalsh")):
        return "eigh"
    if fn.startswith(("eig_qr", "eigvals", "eig")):
        return "eigvals"
    return "other"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable[[View], float]


_EIG_MOVES = "ops_per_s on verify-small and decompose-large; op_ms_p50 on decompose-large"
_LINALG_MOVES = "ops_per_s on verify-small and shrink-probe"
_SPECTRAL_MOVES = "op_ms_p50 on decompose-large"
_TRANSFORMS_MOVES = "op_ms_p50 on decompose-large; ops_per_s on verify-small"
_ORACLE_MOVES = "ops_per_s on verify-small; ops_per_s on shrink-probe via early exits"
_HARNESS_MOVES = "ops_per_s on verify-small and shrink-probe"
_CLI_MOVES = "op_ms_p50 and setup_s on cli-oneshot"


def _numpy_linalg_calls(v: View) -> float:
    return v.per_op(sum(n for key, n in v.counters.items()
                        if key.startswith("numpy.linalg.")))


def _eig_share(v: View) -> float:
    return v.self_ms("_eig") * 1e6 / v.op_ns if v.op_ns else 0.0


def _shrink_reject_ratio(v: View) -> float:
    calls, errors = v.edge("harness.minimize_counterexample", "harness.evaluate_instance")
    return errors / calls if calls else 0.0


def _build() -> tuple[LayerMetric, ...]:
    m: list[LayerMetric] = [
        LayerMetric("eig.eigh_calls_per_op", "count", "lower", _EIG_MOVES,
                    lambda v: v.per_op(v.eig_calls("eigh"))),
        LayerMetric("eig.eigvals_calls_per_op", "count", "lower", _EIG_MOVES,
                    lambda v: v.per_op(v.eig_calls("eigvals"))),
        LayerMetric("eig.lapack_calls_per_op", "count", "lower", _EIG_MOVES,
                    _numpy_linalg_calls),
        LayerMetric("eig.self_ms_per_op", "ms", "lower", _EIG_MOVES,
                    lambda v: v.per_op(v.self_ms("_eig"))),
        LayerMetric("eig.share", "ratio", "lower", _EIG_MOVES, _eig_share),
        LayerMetric("linalg.matmul_calls_per_op", "count", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.calls("linalg.QMatrix.__matmul__"))),
        LayerMetric("linalg.matmul_ms_per_op", "ms", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.by_name.get("linalg.QMatrix.__matmul__",
                                                     [0, 0, 0])[1] / 1e6)),
        LayerMetric("linalg.objects_per_op", "count", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.calls("linalg.QMatrix.__init__")
                                       + v.calls("linalg.QVector.__init__"))),
        LayerMetric("linalg.embed_calls_per_op", "count", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.calls("linalg.embed_chi"))),
        LayerMetric("linalg.unembed_calls_per_op", "count", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.calls("linalg.unembed_chi"))),
        LayerMetric("linalg.self_ms_per_op", "ms", "lower", _LINALG_MOVES,
                    lambda v: v.per_op(v.self_ms("linalg"))),
    ]
    for n in (4, 16, 32):
        m.append(LayerMetric(f"spectral.eigh_q.n{n}_ms", "ms", "lower", _SPECTRAL_MOVES,
                             lambda v, n=n: v.ms_per_call(f"spectral.eigh_q[n{n}]")))
    for n in (16, 32):
        m.append(LayerMetric(f"spectral.spectrum.n{n}_ms", "ms", "lower", _SPECTRAL_MOVES,
                             lambda v, n=n: v.ms_per_call(
                                 f"spectral.spherical_spectrum[n{n}]")))
    m.append(LayerMetric("spectral.self_ms_per_op", "ms", "lower", _SPECTRAL_MOVES,
                         lambda v: v.per_op(v.self_ms("spectral"))))
    m.append(LayerMetric("transforms.polar_calls_per_op", "count", "lower",
                         _TRANSFORMS_MOVES,
                         lambda v: v.per_op(v.calls("transforms.polar"))))
    for n in (4, 16, 32):
        m.append(LayerMetric(f"transforms.polar.n{n}_ms", "ms", "lower", _TRANSFORMS_MOVES,
                             lambda v, n=n: v.ms_per_call(f"transforms.polar[n{n}]")))
    m.append(LayerMetric("transforms.self_ms_per_op", "ms", "lower", _TRANSFORMS_MOVES,
                         lambda v: v.per_op(v.self_ms("transforms"))))
    for fn in ORACLE_CHECKS:
        m.append(LayerMetric(f"oracles.{fn}.ms_per_call", "ms", "lower", _ORACLE_MOVES,
                             lambda v, fn=fn: v.ms_per_call(f"oracles.{fn}")))
    m.append(LayerMetric("oracles.precondition_errors_per_op", "count", "lower",
                         _ORACLE_MOVES,
                         lambda v: v.per_op(v.errors("oracles", "PreconditionError"))))
    m.append(LayerMetric("oracles.self_ms_per_op", "ms", "lower", _ORACLE_MOVES,
                         lambda v: v.per_op(v.self_ms("oracles"))))
    m.append(LayerMetric("generators.ms_per_op", "ms", "lower",
                         "ops_per_s on verify-small",
                         lambda v: v.per_op(v.top_level_ms("generators"))))
    for prop in PROPERTIES:
        m.append(LayerMetric(f"harness.{prop}.ms_per_trial", "ms", "lower", _HARNESS_MOVES,
                             lambda v, p=prop: v.ms_per_call(f"harness.trial.{p}")))
    m.append(LayerMetric("harness.shrink_evals_per_op", "count", "lower", _HARNESS_MOVES,
                         lambda v: v.per_op(v.edge("harness.minimize_counterexample",
                                                   "harness.evaluate_instance")[0])))
    m.append(LayerMetric("harness.shrink_reject_ratio", "ratio", "lower", _HARNESS_MOVES,
                         _shrink_reject_ratio))
    m.append(LayerMetric("harness.evaluate_ms_per_call", "ms", "lower", _HARNESS_MOVES,
                         lambda v: v.ms_per_call("harness.evaluate_instance")))
    m.append(LayerMetric("matio.parse_ms_per_op", "ms", "lower", _CLI_MOVES,
                         lambda v: v.per_op(v.top_level_ms("matio", MATIO_PARSE))))
    m.append(LayerMetric("matio.dump_ms_per_op", "ms", "lower", _CLI_MOVES,
                         lambda v: v.per_op(v.top_level_ms("matio", MATIO_DUMP))))
    m.append(LayerMetric("matio.bytes_per_op", "B", "lower", _CLI_MOVES,
                         lambda v: v.per_op(v.counters.get("matio.bytes", 0))))
    m.append(LayerMetric("cli.import_ms", "ms", "lower", _CLI_MOVES,
                         lambda v: v.extra["import_ms"]))
    m.append(LayerMetric("cli.main_ms_per_op", "ms", "lower", _CLI_MOVES,
                         lambda v: v.per_op(v.by_name.get("cli.main", [0, 0, 0])[1] / 1e6)))
    m.append(LayerMetric("quaternion.objects_per_op", "count", "lower",
                         "ops_per_s on shrink-probe",
                         lambda v: v.per_op(v.calls("quaternion.Quaternion.__init__"))))
    m.append(LayerMetric("trace.overhead_ops_per_s", "1/s", "higher",
                         "cost of tracing: traced minus untraced ops_per_s",
                         lambda v: v.extra["traced_ops_per_s"] - v.extra["untraced_ops_per_s"]))
    m.append(LayerMetric("trace.uncovered_ms_per_op", "ms", "lower",
                         "op time outside every layer span (benchmark and interpreter)",
                         lambda v: v.per_op((v.op_ns - v.prof["root_ns"]) / 1e6)))
    return tuple(m)


METRICS = _build()


def compute(prof: dict, counters: dict, ops: int, op_ns: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric by name, for ``ops`` traced ops."""
    view = View(prof, counters, max(ops, 1), op_ns, extra)
    return {m.name: float(m.value(view)) for m in METRICS}


def layer_table(prof: dict, ops: int) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self milliseconds per op for every traced layer."""
    table: dict[str, dict[str, float]] = {}
    for key, (calls, incl, self_ns) in prof["fn"].items():
        layer = key.partition(".")[0]
        row = table.setdefault(layer, {"calls_per_op": 0.0, "self_ms_per_op": 0.0})
        row["calls_per_op"] += calls / max(ops, 1)
        row["self_ms_per_op"] += self_ns / 1e6 / max(ops, 1)
    return table
