"""Quaternionic operator toolkit.

Dense right-linear operators over the quaternions with exact-structure
embeddings into complex matrices, spectra solved on the embedded side
through one LAPACK-backed eigensolver seam, polar and Aluthge-family
decompositions, operator-class predicates, and a deterministic randomized
harness for the inequality theorems the library implements.

The namespace is lazy (PEP 562): ``import qop`` loads no submodule, and
``qop.<name>`` imports the name's home module on first use.  A public name
is looked up in its home module on every access and never bound here, so
it is always the object that module holds at the time.
"""

import sys

__version__ = "0.1.0"

# home module of every public name, in the order of __all__
_EXPORTS = {
    "errors": ("ConvergenceError", "DomainError", "PreconditionError", "QopError",
               "ShapeError", "StructureError"),
    "quaternion": ("Quaternion",),
    "linalg": ("QVector", "QMatrix", "inner", "outer", "embed_chi", "unembed_chi",
               "operator_norm"),
    "spectral": ("eigh_q", "fun_calc", "power_psd", "is_psd", "rayleigh_bounds",
                 "delta_q", "kernel_basis", "spherical_eigenspace",
                 "spherical_point_spectrum", "spherical_spectrum",
                 "standard_eigenvalues"),
    "transforms": ("PolarParts", "polar", "unitary_completion", "abs_star_power",
                   "aluthge", "lambda_aluthge", "duggal", "furuta_sr"),
    "oracles": ("Margin", "classify_basic", "is_p_hyponormal", "is_paranormal",
                "gcsi_margin", "gcsi_sweep", "check_holder_mccarthy",
                "check_lowner_heinz", "check_furuta", "check_chain_semihypo",
                "check_aluthge_theorems", "check_eigenspace_reducing",
                "check_gcsi_closure", "check_kernel_reduction", "check_tu_star",
                "check_gcsi_implies"),
    "generators": ("ginibre", "hermitian", "positive", "ordered_pair",
                   "normal_with_spectrum", "partial_isometry", "near_normal",
                   "random_unitary", "unit_vector"),
    "harness": ("VerificationReport", "run_verify", "run_fuzz", "evaluate_instance",
                "minimize_counterexample"),
    "rng": ("SplitMix64", "mix_seed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "_eig", "matio", "cli"})

__all__ = list(_HOME)


def _submodule(name: str):
    # the builtin __import__, unlike importlib.import_module, goes through the
    # import path that -X importtime reports, so a lazily loaded module still
    # shows there with its own time
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
