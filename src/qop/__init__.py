"""Quaternionic operator toolkit.

Dense right-linear operators over the quaternions with exact-structure
embeddings into complex matrices, spectra solved on the embedded side
through one LAPACK-backed eigensolver seam, polar and Aluthge-family
decompositions, operator-class predicates, and a deterministic randomized
harness for the inequality theorems the library implements.
"""

from .errors import (ConvergenceError, DomainError, PreconditionError,
                     QopError, ShapeError, StructureError)
from .generators import (ginibre, hermitian, near_normal, normal_with_spectrum,
                         ordered_pair, partial_isometry, positive,
                         random_unitary, unit_vector)
from .harness import (VerificationReport, evaluate_instance,
                      minimize_counterexample, run_fuzz, run_verify)
from .linalg import (QMatrix, QVector, embed_chi, inner, left_scalar_mul,
                     operator_norm, outer, unembed_chi, verify_hilbert_basis)
from .oracles import (Margin, check_aluthge_theorems, check_chain_semihypo,
                      check_eigenspace_reducing, check_furuta,
                      check_gcsi_closure, check_gcsi_implies,
                      check_holder_mccarthy, check_kernel_reduction,
                      check_lowner_heinz, check_tu_star, classify_basic,
                      gcsi_margin, gcsi_sweep, is_p_hyponormal, is_paranormal)
from .quaternion import Quaternion
from .rng import SplitMix64, mix_seed
from .spectral import (delta_q, eigh_q, fun_calc, is_psd, kernel_basis,
                       power_psd, rayleigh_bounds, spherical_eigenspace,
                       spherical_point_spectrum, spherical_spectrum,
                       standard_eigenvalues)
from .transforms import (PolarParts, abs_power, abs_star_power, aluthge,
                         duggal, furuta_sr, lambda_aluthge, polar,
                         unitary_completion)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "PreconditionError", "QopError",
    "ShapeError", "StructureError",
    "Quaternion", "QVector", "QMatrix",
    "inner", "outer", "left_scalar_mul", "embed_chi", "unembed_chi",
    "operator_norm", "verify_hilbert_basis",
    "eigh_q", "fun_calc", "power_psd", "is_psd", "rayleigh_bounds",
    "delta_q", "kernel_basis", "spherical_eigenspace",
    "spherical_point_spectrum", "spherical_spectrum", "standard_eigenvalues",
    "PolarParts", "polar", "unitary_completion", "abs_power", "abs_star_power",
    "aluthge", "lambda_aluthge", "duggal", "furuta_sr",
    "Margin", "classify_basic", "is_p_hyponormal", "is_paranormal",
    "gcsi_margin", "gcsi_sweep", "check_holder_mccarthy", "check_lowner_heinz",
    "check_furuta", "check_chain_semihypo", "check_aluthge_theorems",
    "check_eigenspace_reducing", "check_gcsi_closure", "check_kernel_reduction",
    "check_tu_star", "check_gcsi_implies",
    "ginibre", "hermitian", "positive", "ordered_pair", "normal_with_spectrum",
    "partial_isometry", "near_normal", "random_unitary", "unit_vector",
    "VerificationReport", "run_verify", "run_fuzz", "evaluate_instance",
    "minimize_counterexample",
    "SplitMix64", "mix_seed",
]
