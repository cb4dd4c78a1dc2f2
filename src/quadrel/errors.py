"""Exception hierarchy shared by all quadrel modules."""


class QuadrelError(Exception):
    """Base class for all quadrel errors."""


class DomainError(QuadrelError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NotACorrelationMatrixError(QuadrelError, ValueError):
    """Matrix is not symmetric/unit-diagonal/PSD within tolerance."""


class UnsupportedDesignError(QuadrelError, ValueError):
    """Requested DOE scheme is not defined for this dimension."""


class SingularFitError(QuadrelError):
    """Least-squares design matrix is rank deficient."""

    def __init__(self, message, deficient_direction=None):
        super().__init__(message)
        self.deficient_direction = deficient_direction


class ZeroHalfwidthError(QuadrelError, ValueError):
    """A DOE box halfwidth came out zero; an explicit override is needed."""


class BreitungSingularityError(QuadrelError):
    """A curvature term 1 - beta*rho is non-positive."""


class DivisionGuardError(QuadrelError):
    """A closed-form probability expression hit a guarded division
    (e.g. h = 0 in the same-sign branch)."""


class ConvergenceError(QuadrelError, RuntimeError):
    """Iterative search failed to converge; carries the iterate trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class SolverFailureError(QuadrelError, RuntimeError):
    """Constrained optimization failed or ended infeasible."""

    def __init__(self, message, phase=None, trace=None):
        super().__init__(message)
        self.phase = phase
        self.trace = trace if trace is not None else []


class ProblemFormatError(QuadrelError, ValueError):
    """Problem file failed schema validation.

    ``path`` points at the offending field, e.g. ``variables[2].std``.
    """

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
