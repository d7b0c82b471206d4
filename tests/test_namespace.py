"""The lazy ``qop`` namespace: nothing loads on import, every name resolves."""

import os
import subprocess
import sys

import qop

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qop.__file__)))

_CHILD = """
import pkgutil
import sys

import qop

assert "numpy" not in sys.modules
assert [m for m in sys.modules if m.startswith("qop.")] == []
submodules = [m.name for m in pkgutil.iter_modules(qop.__path__) if m.name != "__main__"]
assert "harness" in submodules and "_eig" in submodules, submodules
assert set(qop.__all__) | set(submodules) <= set(dir(qop))

for name in qop.__all__:
    obj = getattr(qop, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
for name in submodules:
    assert getattr(qop, name) is sys.modules["qop." + name], name
try:
    qop.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name resolved")

# a name is looked up in its home module on every access, never cached
marker = object()
qop.spectral.eigh_q = marker
assert qop.eigh_q is marker
from qop import eigh_q
assert eigh_q is marker

namespace = {}
exec("from qop import *", namespace)
assert set(namespace) - {"__builtins__"} == set(qop.__all__)
assert qop.__version__ == "0.1.0"
print("ok")
"""


def test_import_is_lazy_and_every_name_resolves_to_its_home_object():
    proc = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
