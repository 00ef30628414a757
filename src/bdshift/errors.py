"""Error taxonomy shared by all modules.

Math-domain errors derive from MathDomainError so the CLI can map them to
one exit code; numeric non-convergence is separate.
"""


class BDShiftError(Exception):
    """Base class for all package errors."""


class MathDomainError(BDShiftError):
    """A precondition on mathematical data failed."""


class PeriodNotDivisor(MathDomainError):
    """A period does not divide the ambient supernatural number."""


class NotFinite(MathDomainError):
    """Operation requires a finite supernatural number."""


class UnboundedCoefficient(MathDomainError):
    """Nonzero linear part supplied in a bounded-coefficient regime."""


class RegimeMismatch(MathDomainError):
    """Operation called in the wrong (N, n) regime."""


class NotDerivation(MathDomainError):
    """Supplied images violate the matrix-unit derivation relations."""


class LevelMismatch(MathDomainError):
    """A Haar-space level is missing or not positive, does not divide N, is
    not a multiple of a period it must carry, or differs between vectors."""


class SideMismatch(MathDomainError):
    """Unilateral token used bilaterally or vice versa."""


class UnknownName(MathDomainError):
    """Expression references a name absent from the environment."""


class WindowTooSmall(BDShiftError):
    """Truncation window cannot accommodate the interior margin."""


class NoConvergence(BDShiftError):
    """Iteration cap reached; carries the last iterate.  Only the inverse
    power iteration of the parametrix shells raises it."""

    def __init__(self, message, last_value=None, iterations=None):
        super().__init__(message)
        self.last_value = last_value
        self.iterations = iterations


class ExprSyntaxError(BDShiftError):
    """Parse failure with position information."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position
