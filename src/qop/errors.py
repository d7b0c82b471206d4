"""Exception types shared across the package."""


class QopError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QopError, ValueError):
    """Operands have incompatible or unsupported dimensions."""


class DomainError(QopError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class PreconditionError(QopError, ValueError):
    """A documented precondition on operator arguments does not hold."""


class StructureError(QopError, ValueError):
    """A matrix violates a required structural symmetry or pairing."""


class ConvergenceError(QopError, RuntimeError):
    """An eigensolver failed to converge."""
