"""Exception taxonomy for the singflow package.

Everything raised on purpose by this package derives from SingflowError, so
callers (in particular the CLI) can distinguish "the inputs were outside the
theory or malformed" from genuine bugs.
"""

from __future__ import annotations


class SingflowError(Exception):
    """Base class for all errors raised deliberately by singflow."""


class DomainError(SingflowError):
    """An argument lies outside the mathematical domain of an operation.

    Examples: psi evaluated at s <= 0, a nonlinearity inverse asked for a
    value it never attains.
    """


class ParameterError(SingflowError):
    """A constructor or routine received structurally invalid parameters.

    Examples: p < 2 in the p-heat preset, a sub-solution shift parameter k
    below the solvable range, n_grid too small.
    """


class RegimeError(SingflowError):
    """The requested construction is not available in this exponent regime.

    Examples: a traveling-wave antiderivative for a weight whose tail
    integral diverges, a blow-up family outside the non-existence regime.
    """


class InsufficientDataError(SingflowError):
    """Not enough usable samples to run a fit or certificate."""


class RateExtractionError(SingflowError):
    """A boundary-rate fit failed its internal consistency check.

    Raised when the sampled growth ratios spread too widely to call the
    divergence rate (more than 10% relative spread over the fitting window).
    """


class StepSizeError(SingflowError):
    """An explicit time step exceeds the stability limit for the grid."""


class SolverOverflowError(SingflowError):
    """A grid value left the trustworthy floating-point range mid-run.

    Carries the offending node index and time so scenario reports can point
    at where the approximation blew up.
    """

    def __init__(self, message: str, node: int | None = None,
                 time: float | None = None):
        super().__init__(message)
        self.node = node
        self.time = time


class HorizonError(SingflowError):
    """A time was requested at or beyond a construction's validity horizon."""


class ScenarioError(SingflowError):
    """A scenario file violates the scenario schema.

    The message starts with a ``file:line:`` anchor, which the CLI prints
    before exiting with status 1.
    """
