import numpy as np
import pytest

from qop import _eig


class SolverCalls(list):
    """The (kind, stack shape) of every ``qop._eig`` call, in call order."""

    def kinds(self, *only: str) -> list[str]:
        """The kinds of the calls, only those named in ``only`` when any are."""
        return [kind for kind, _ in self if not only or kind in only]


@pytest.fixture
def solver_calls(monkeypatch) -> SolverCalls:
    """Record every eigensolver and SVD call of the test, each passed on to
    the real solver; the stack shape is the matrix shape without its last two axes."""
    calls = SolverCalls()
    for kind in ("eigh", "eigvalsh", "eigvals", "svd"):
        real = getattr(_eig, kind)
        monkeypatch.setattr(_eig, kind, lambda m, kind=kind, real=real:
                            calls.append((kind, np.shape(m)[:-2])) or real(m))
    return calls
