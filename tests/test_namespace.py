"""The lazy ``qop`` namespace: nothing loads on import, every name resolves."""

import inspect
import os
import subprocess
import sys

import qop
from qop import harness, oracles, spectral, transforms
from qop.linalg import QMatrix, QVector
from qop.quaternion import Quaternion

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


# each setting below has one value in use, a module constant next to the
# function; none may come back as a keyword or behind **kwargs
_FIXED_SETTINGS = (
    (spectral.standard_eigenvalues, ("pair_tol",)),
    (spectral.spherical_spectrum, ("merge_tol",)),
    (spectral.spherical_point_spectrum, ("tol", "merge_tol")),
    (spectral.spherical_eigenspace, ("count", "rtol")),
    (spectral.power_psd, ("clamp_tol",)),
    (spectral.HermitianEigensystem.power_psd, ("clamp_tol",)),
    (spectral._psd_weights, ("clamp_tol",)),
    (transforms.polar, ("rank_rtol",)),
    (transforms.lambda_aluthge, ("parts",)),
    (transforms.duggal, ("parts",)),
    (transforms.furuta_sr, ("parts",)),
    (transforms.abs_star_power, ("parts",)),
    (oracles.gcsi_margin, ("refine_steps",)),
    (oracles.gcsi_sweep, ("betas",)),
    (oracles.check_aluthge_theorems, ("q_grid",)),
    (oracles.check_eigenspace_reducing, ("kernel_rtol",)),
    (oracles.check_kernel_reduction, ("rank_rtol",)),
    (oracles.invert, ("rtol",)),
    (harness.run_fuzz, ("shrink_budget",)),
)


# each setting below is gone with the code that read it: the sampled lambda
# grid and vector channel that the exact pencil test of is_paranormal
# replaced, and the sampled pairs that the GCSI candidate set replaced
_REMOVED_SETTINGS = (
    (oracles.is_paranormal, ("grid", "samples", "seed")),
    (oracles.check_gcsi_implies, ("grid", "samples", "budget", "seed")),
    (oracles._gcsi_implications, ("grid", "samples", "budget", "seed")),
    (oracles.gcsi_margin, ("budget", "seed")),
    (oracles.gcsi_sweep, ("budget", "seed")),
    (oracles.check_gcsi_closure, ("budget", "seed")),
    (oracles._gcsi_closures, ("budget", "seed")),
    (QVector.allclose, ("scale",)),
    (QMatrix.allclose, ("scale",)),
    (Quaternion.isclose, ("scale",)),
)


def test_fixed_settings_are_not_parameters():
    assert sum(len(names) for _, names in _FIXED_SETTINGS) == 21
    for fn, names in _FIXED_SETTINGS + _REMOVED_SETTINGS:
        params = inspect.signature(fn).parameters
        assert not set(names) & set(params), fn.__qualname__
        assert all(p.kind is not p.VAR_KEYWORD for p in params.values()), fn.__qualname__
