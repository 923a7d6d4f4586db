"""Exception types shared across the package."""


class PtwellsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PtwellsError, ValueError):
    """An input is outside the mathematical domain of the operation."""


class NonFiniteStateError(PtwellsError, ArithmeticError):
    """The integrator produced (or was handed) a non-finite phase state."""


class UnsupportedOrderError(PtwellsError, ValueError):
    """No closed-form spectrum is implemented for the requested M."""


class InsufficientCrossingsError(PtwellsError, ValueError):
    """Too few imaginary-axis crossings to measure dwell statistics."""


class AmbiguousOrbitError(PtwellsError, RuntimeError):
    """A trajectory fits none of the orbit classes; never coerced silently."""


class ClassificationMismatchError(PtwellsError, ValueError):
    """An analysis step was applied to an orbit of the wrong class."""


class DegenerateWindingError(PtwellsError, ValueError):
    """A spiral segment has no net winding, so chirality is undefined."""


class BracketingError(PtwellsError, RuntimeError):
    """Boundary probes disagree with the separatrix: the probe below it did not return
    to its start at one period, or the probe above it did not escape (a guard stop does neither)."""
