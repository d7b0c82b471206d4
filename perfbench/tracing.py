"""Span tracer for the qop package, installed from outside it.

The tracer replaces the public functions of each qop module, the public
methods and arithmetic operators of the classes those modules define, and
the trial functions in ``harness.PROPERTIES`` with wrappers that record a
span: name, start, end, parent span and the exception type, if any.  Spans
live in memory until the caller takes them.

Wrappers are installed by function identity: qop modules bind names with
``from .x import f``, so every ``qop.*`` namespace that holds the original
object gets the same wrapper, and a call is traced whichever name it goes
through.  Calls into ``numpy.linalg`` made from qop code are counted, not
timed, so that their time stays in the qop layer that made them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "qop"
LAYERS = ("quaternion", "linalg", "_eig", "spectral", "transforms", "oracles",
          "generators", "harness", "matio", "cli")

# operators that create or combine objects; other dunders are bookkeeping
WRAPPED_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__",
                   "__neg__", "__truediv__", "__matmul__")

# spans of these functions carry the operator size, e.g. "n32"
SIZE_TAGGED = frozenset({"spectral.eigh_q", "spectral.spherical_spectrum",
                         "transforms.polar"})


def _in_package(module: str) -> bool:
    return module == PACKAGE or module.startswith(PACKAGE + ".")


def _size_tag(args) -> str | None:
    rows = getattr(args[0], "rows", None) if args else None
    return None if rows is None else f"n{rows}"


class Tracer:
    """Collects spans of traced qop calls in the current thread.

    A span is the tuple ``(name, start_ns, end_ns, parent, error, tag)``;
    ``parent`` indexes the same span list (-1 for a root span) and ``error``
    is the name of the exception type that ended the call, or None.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- spans

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock
        tagged = name in SIZE_TAGGED
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.counters[measure[0]] += measure[1](args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, error,
                              _size_tag(args) if tagged else None)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out

    # ----------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every traced callable of the imported qop modules."""
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and _in_package(name)}
        wrappers: dict[int, tuple] = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._install_class(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])
        # per-trial spans need the property table; without one they are absent
        table = getattr(modules.get(PACKAGE + ".harness"), "PROPERTIES", None)
        for prop, fn in list(table.items()) if isinstance(table, dict) else ():
            self._restore.append((table.__setitem__, prop, fn))
            table[prop] = self.wrap(fn, f"harness.trial.{prop}")
        self._install_linalg_counters()

    def _install_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(raw, name))

    def _install_linalg_counters(self) -> None:
        import numpy.linalg as nla

        for attr in dir(nla):
            fn = getattr(nla, attr)
            if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                continue
            self._set(nla, attr, self._count_from_qop(fn, f"numpy.linalg.{attr}"))

    def _count_from_qop(self, fn, key: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if _in_package(sys._getframe(1).f_globals.get("__name__", "")):
                counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((functools.partial(setattr, owner), attr,
                              getattr(owner, attr) if not inspect.isclass(owner)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced attribute back, last replaced first."""
        while self._restore:
            setter, attr, original = self._restore.pop()
            setter(attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _file_size(args, result) -> int:
    try:
        return os.path.getsize(args[0])
    except (OSError, IndexError, TypeError):
        return 0


_MEASURES = {
    "matio.dumps_canonical": ("matio.bytes", lambda args, result: len(result)),
    "matio.load_matrix": ("matio.bytes", _file_size),
}


# ------------------------------------------------------------ profiles


def empty_profile() -> dict:
    return {"fn": {}, "edges": {}, "errors": {}, "root_ns": 0, "spans": 0}


def profile(spans: list[tuple]) -> dict:
    """Fold spans into per-name totals: calls, inclusive and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    Keys carry the size tag as ``name[tag]`` where a span has one.
    ``edges`` holds calls, errors and inclusive time per ``parent>child``
    name pair, and ``errors`` counts, per ``layer:ExceptionType``, the calls
    into a layer from outside it that ended in that exception.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = empty_profile()
    fn, edges, errors = out["fn"], out["edges"], out["errors"]
    for i, (name, start, end, parent, error, tag) in enumerate(spans):
        dur = end - start
        key = name if tag is None else f"{name}[{tag}]"
        row = fn.setdefault(key, [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns[i]
        pname = spans[parent][0] if parent >= 0 else ""
        edge = edges.setdefault(f"{pname}>{name}", [0, 0, 0])
        edge[0] += 1
        edge[2] += dur
        if error is not None:
            edge[1] += 1
            layer = name.partition(".")[0]
            if pname.partition(".")[0] != layer:
                errors[f"{layer}:{error}"] = errors.get(f"{layer}:{error}", 0) + 1
        if parent < 0:
            out["root_ns"] += dur
    out["spans"] = len(spans)
    return out


def scaled(prof: dict, factor: float) -> dict:
    """A copy of ``prof`` with every time multiplied by ``factor``."""
    return {"fn": {k: [calls, incl * factor, own * factor]
                   for k, (calls, incl, own) in prof["fn"].items()},
            "edges": {k: [calls, errors, incl * factor]
                      for k, (calls, errors, incl) in prof["edges"].items()},
            "errors": dict(prof["errors"]), "root_ns": prof["root_ns"] * factor,
            "spans": prof["spans"]}


def merge(into: dict, other: dict) -> dict:
    """Add the totals of ``other`` into ``into`` and return it."""
    for section in ("fn", "edges"):
        for key, row in other[section].items():
            acc = into[section].setdefault(key, [0] * len(row))
            for j, v in enumerate(row):
                acc[j] += v
    for key, v in other["errors"].items():
        into["errors"][key] = into["errors"].get(key, 0) + v
    into["root_ns"] += other["root_ns"]
    into["spans"] += other["spans"]
    return into
