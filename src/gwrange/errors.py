"""Exception types shared across the package."""


class GwrangeError(Exception):
    """Base class for all package errors."""


class CalibrationError(GwrangeError):
    """A law does not satisfy the zero-at-one normalization it should."""


class DomainError(GwrangeError):
    """A transform or moment is evaluated outside its finiteness domain."""


class ScheduleInfeasibleError(GwrangeError):
    """No admissible generation band exists at this time budget.

    Carries ``min_feasible_n``, the smallest budget at which the default
    band formulas become admissible.
    """

    def __init__(self, message, min_feasible_n=None):
        super().__init__(message)
        self.min_feasible_n = min_feasible_n


class ResourceLimitError(GwrangeError):
    """Expected or actual node count exceeds the configured cap."""


class AncestryError(GwrangeError):
    """A vertex pair violates a required ancestor relation."""


class TupleError(GwrangeError):
    """A k-tuple is not admissible (repeated or ancestrally related slots)."""


class QueryError(GwrangeError):
    """A trace or tree query references an unknown vertex."""


class EmptySupportError(GwrangeError):
    """A sampler was asked to draw from an empty set."""


class CombinatorialCapError(GwrangeError):
    """A tuple enumeration would exceed the configured size cap."""


class SolverError(GwrangeError):
    """The fixed-point iteration of :func:`gwrange.environment.c_infinity`
    failed to converge.

    ``residual`` reports the final sup-norm change between sweeps.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SignatureError(GwrangeError):
    """A genealogical signature (times + partition chain) is malformed."""
