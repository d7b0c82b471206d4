"""One-candidate-at-a-time shrinker, the test-side reference for
``qop.harness.minimize_counterexample``.

``minimize`` is the walk that the library replaced with one batch per
key: the same candidates in the same order, each scored by its own
``evaluate_instance`` call inside ``try``/``except``, the first one that
still violates accepted, every evaluation charged to the budget.  It
returns the shrunk instance, its margin as a fresh ``evaluate_instance``
gives it, and the evaluations charged.  The module name keeps it out of
pytest collection.
"""

from __future__ import annotations

from qop.errors import PreconditionError, QopError
from qop.harness import _zero_entry_candidates, evaluate_instance


def minimize(prop, instance, *, budget, tol):
    margin = evaluate_instance(prop, instance, tol)
    evals = 1
    if margin >= -tol:
        raise PreconditionError(f"instance does not violate {prop!r}")
    current = dict(instance)
    improved = True
    while improved and evals < budget:
        improved = False
        for key in sorted(current):
            for _, cand_val in _zero_entry_candidates(current[key], budget):
                if evals >= budget:
                    return current, evaluate_instance(prop, current, tol), evals
                cand = dict(current)
                cand[key] = cand_val
                evals += 1
                try:
                    m = evaluate_instance(prop, cand, tol)
                except QopError:
                    continue
                if m < -tol:
                    current = cand
                    improved = True
                    break
    return current, evaluate_instance(prop, current, tol), evals
