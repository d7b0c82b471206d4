"""``tools/reach.py``'s counting, on a small module of its own: the test
never runs the suite under the tool."""

import importlib.util
import os
import runpy
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

_MODULE = """\
import functools


@functools.lru_cache(maxsize=None)
def half(x):
    if x % 2:
        raise ValueError(x)
    return x // 2


half(4)
"""


def test_a_module_counts_its_run_lines_less_headers_and_the_line_zero_entry(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_MODULE)
    # the decorator (4) and the def (5) are headers; Python 3.11 puts the
    # module code's first instruction on line 0, which no source line has
    entries = {line for _, _, line in compile(_MODULE, str(path), "exec").co_lines()}
    assert {4, 5} <= entries and (0 in entries) == (sys.version_info >= (3, 11))
    assert reach.executable_lines(path) == {1, 6, 7, 8, 11}
    before = sys.gettrace()
    _, reached = reach.traced(tmp_path.resolve(), lambda: runpy.run_path(str(path)))
    # an enclosing tracer, such as the tool's own, is handed back
    assert sys.gettrace() is before
    assert list(reached) == [path.resolve()]
    assert reach.executable_lines(path) - reached[path.resolve()] == {7}


def test_the_run_is_tier1_with_its_15_slowest_tests_then_help(monkeypatch):
    calls = []
    monkeypatch.setattr(reach.pytest, "main", lambda args: calls.append(args) or 3)
    monkeypatch.setattr(reach.runpy, "run_module", lambda *args, **kwargs: calls.append(sys.argv))
    argv = sys.argv
    assert reach._tier1_then_help() == 3
    assert calls == [["-q", "--continue-on-collection-errors", "--durations=15", "tests"],
                     ["qop", "--help"]]
    assert sys.argv is argv


def test_the_tests_subprocesses_import_the_traced_tree(monkeypatch, capsys):
    # a child process inherits PYTHONPATH, not sys.path
    monkeypatch.chdir(os.getcwd())
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(reach, "traced", lambda root, run: (0, {}))
    src = str(reach.ROOT / "src")
    for before, after in ((None, [src]), ("elsewhere", [src, "elsewhere"])):
        if before is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", before)
        assert reach.main() == 0
        assert os.environ["PYTHONPATH"].split(os.pathsep) == after
        assert sys.path[0] == src
    capsys.readouterr()
