"""Exception hierarchy shared across the package."""


class QesError(Exception):
    """Base class for all package-specific errors."""


class InvalidCouplingError(QesError):
    """Raised when couplings violate the admissibility conditions (finite, eta > 0)."""


class ConstraintViolationError(QesError):
    """Raised when couplings do not satisfy the required coupling constraint."""


class NoSolutionError(QesError):
    """Raised when a constraint equation has no admissible root."""


class SolverError(QesError):
    """Raised when a numerical solve fails or an input is outside a solver's regime."""


class NonEigenvalueError(QesError):
    """Raised when a requested energy is not an eigenvalue of the recurrence system."""


class WeightMismatchError(QesError):
    """Raised when two eigenfunctions do not share the same Gaussian-quartic weight."""


class VerificationError(QesError):
    """Raised when numerical verification cannot match an exact level."""
