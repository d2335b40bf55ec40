"""Exception types raised by the library.

Every error carries a short machine-readable ``name`` (used by the CLI) in
addition to the human-readable message.
"""


class MrangeError(Exception):
    """Base class for all library errors."""

    @property
    def name(self):
        return type(self).__name__


class NonSquare(MrangeError):
    pass


class NotHermitian(MrangeError):
    pass


class NotPSD(MrangeError):
    pass


class BadShape(MrangeError):
    pass


class ShapeMismatch(MrangeError):
    pass


class NotCP(MrangeError):
    pass


class NotUnital(MrangeError):
    pass


class NotPartitionOfIdentity(MrangeError):
    pass


class RadiusTooLarge(MrangeError):
    pass


class RangeViolation(MrangeError):
    pass


class NoConvergence(MrangeError):
    pass


class LostDefiniteness(NoConvergence):
    """An indefinite cyclic-reduction step: it refutes positivity."""

    name = "NoConvergence"   # the name the CLI reports


class NotContraction(MrangeError):
    pass


class WindowTooSmall(MrangeError):
    pass


class ConditionFails(MrangeError):
    pass


class SolverUndetermined(MrangeError):
    pass


class InconsistentAffine(MrangeError):
    """The affine constraints have no solution; ``residual`` is the
    least-squares residual."""

    def __init__(self, msg, residual):
        super().__init__(msg)
        self.residual = residual


class NotStrictlyPositive(MrangeError):
    pass


class MomentResidualTooLarge(MrangeError):
    pass


class BoundaryBand(MrangeError):
    pass


class VerificationFailed(MrangeError):
    """A result failed its own post-condition check."""


def verify(cond, msg):
    """Raise VerificationFailed(msg) unless cond holds; unlike ``assert``,
    this also runs under ``python -O``."""
    if not cond:
        raise VerificationFailed(msg)


class BadJson(MrangeError):
    pass


class BadOutput(MrangeError):
    pass


class BadTolerance(MrangeError, ValueError):
    """A tolerance that is not a finite positive number."""


class UnknownCommand(MrangeError):
    pass
