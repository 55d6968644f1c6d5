"""Exception types shared across the package."""


class PhaseBoundError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PhaseBoundError, ValueError):
    """A parameter lies outside its mathematical domain."""


class ZeroStateError(PhaseBoundError, ValueError):
    """Operation undefined on the zero vector."""


class NegativeIndexError(PhaseBoundError, ValueError):
    """A photon-number index would become negative."""


class IncompatibleWindowError(PhaseBoundError, ValueError):
    """Projection onto the number window annihilates the state."""


class InvalidMatrixError(PhaseBoundError, ValueError):
    """Phase matrix fails a validity requirement or cannot cover the state."""


class InternalConsistencyError(PhaseBoundError, RuntimeError):
    """A computed probability violates its mathematical bounds by more than rounding."""


class ConvergenceFailureError(PhaseBoundError, RuntimeError):
    """An iteration missed its target: an eigensolver its residual, Newton's
    method its Gauss-Legendre nodes, or degree doubling its refinement
    tolerance before the degree cap.  The message names the missed figure
    and its target."""
