"""Statement reach: the lines of ``src/qop`` that tier-1 runs.

The tool runs tier-1 (``tests/``) in process under ``sys.settrace`` and
``threading.settrace``, tracing only frames whose code lies under
``src/qop``.  Then it runs ``qop --help`` through
``runpy.run_module("qop", run_name="__main__")``, so that ``__main__.py`` is
reached in the same process.  A module's executable lines are the lines of
every code object it compiles to, from ``co_lines()``, less its ``def``,
``class`` and decorator lines (the module runs those on import, whatever the
tests call) and the line-0 entry of module code.  It prints the ``src/qop``
line count, executable count and unreached count, in total and per module,
then each unreached ``file:line: text``, and exits with pytest's exit code:

    python tools/reach.py

pytest runs with ``-q --continue-on-collection-errors --durations=15``, so
the 15 slowest tests print before the counts.  ``src`` goes first on
``sys.path`` and on ``PYTHONPATH``, so the tests' subprocesses run the
traced tree too.  It takes no options, imports nothing beyond the standard
library and pytest, and sets no bound on the unreached count.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
import types
from pathlib import Path
from typing import Any, Callable

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qop"


def _codes(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that a code object runs, less def, class and decorator lines."""
    source = path.read_text()
    headers = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            headers.add(node.lineno)
            headers.update(d.lineno for d in node.decorator_list)
    lines = {line for code in _codes(compile(source, str(path), "exec"))
             for _, _, line in code.co_lines() if line}
    return lines - headers


def traced(root: Path, run: Callable[[], Any]) -> tuple[Any, dict[Path, set[int]]]:
    """``run()``'s result, and the lines it reached in each file under
    ``root``; the tracers that were set before are set again after."""
    reached: dict[Path, set[int]] = {}
    tracers: dict[str, Any] = {}  # a file's line tracer, or None outside root

    def tracer(path: str):
        real = Path(os.path.realpath(path))
        if root not in real.parents:
            return None
        add = reached.setdefault(real, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line
        return line

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            tracers[path] = tracer(path)
        return tracers[path]

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        return run(), reached
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])


def _tier1_then_help() -> int:
    code = pytest.main(["-q", "--continue-on-collection-errors", "--durations=15", "tests"])
    argv, sys.argv = sys.argv, ["qop", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            runpy.run_module("qop", run_name="__main__")
    finally:
        sys.argv = argv
    return int(code)


def main() -> int:
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code, reached = traced(SRC, _tier1_then_help)
    rows, missed = [], []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        exe = executable_lines(path)
        todo = sorted(exe - reached.get(path, set()))
        missed += [f"src/qop/{path.name}:{n}: {lines[n - 1].strip()}" for n in todo]
        rows.append((len(lines), len(exe), len(todo), path.name))
    print(f"\n{'lines':>7} {'exec':>6} {'unreached':>9}  src/qop")
    for row in [tuple(map(sum, list(zip(*rows))[:3])) + ("total",), *rows]:
        print(f"{row[0]:7d} {row[1]:6d} {row[2]:9d}  {row[3]}")
    for line in missed:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
