"""``tools/reach.py``'s counting, on a small module of its own: the test
never runs the suite under the tool."""

import importlib.util
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
