"""Exception taxonomy shared across the package.

Each public error maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class TropcritError(Exception):
    """Base class for all package errors."""


class PolyParseError(TropcritError, ValueError):
    """Syntax or name error while parsing a polynomial expression."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatch(TropcritError, ValueError):
    """Vectors/monomials of incompatible lengths were combined."""


class SeriesInversionError(TropcritError, ZeroDivisionError):
    """Attempted to invert a series whose leading coefficient is zero."""


class ResourceBudgetExceeded(TropcritError, RuntimeError):
    """A Groebner computation exceeded its reduction-step budget."""


class NotZeroDimensional(TropcritError, ValueError):
    """The ideal has infinitely many standard monomials."""


class NotInTropicalVariety(TropcritError, ValueError):
    """The weight vector is not in the tropical variety of the ideal."""


class AlphaNotOnHyperplane(TropcritError, ValueError):
    """The data vector does not lie on the slope hyperplane of the ray."""


class CurveNotGeneric(TropcritError, ValueError):
    """The data curve meets its slope hyperplane tangentially at t = 0, or
    lies on a critical slope hyperplane."""


class DegenerateSample(TropcritError, RuntimeError):
    """Random data vectors kept producing degenerate critical systems."""


class MLDegreeNotOne(TropcritError, ValueError):
    """Closed-form estimator requested for a model of ML degree != 1."""


class UnbalancedRays(TropcritError, ValueError):
    """The rigid rays given for a degree-one model do not sum to zero."""


class VerificationFailed(TropcritError, RuntimeError):
    """A second-sample consistency check failed."""


class SingularJacobian(TropcritError, RuntimeError):
    """Series lifting could not find an invertible Jacobian at the seed."""


class NoConvergence(TropcritError, RuntimeError):
    """Series residuals failed to vanish through the truncation order."""


class TruncationTooShort(TropcritError, RuntimeError):
    """Truncation order too small to resolve a leading coefficient."""


class NotCentral(TropcritError, ValueError):
    """Operation requires a central (or projectivized) arrangement."""


class NotIndecomposable(TropcritError, ValueError):
    """Operation requires an indecomposable (connected-matroid) arrangement."""


class NotEssential(TropcritError, ValueError):
    """Arrangement functionals span fewer than all coordinate directions."""


class MissingDiscrepancy(TropcritError, ValueError):
    """No discrepancy value available for a ray outside arrangement mode."""


class SpecValidationError(TropcritError, ValueError):
    """Input JSON does not match the published schema."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} [at {pointer or '/'}]")
        self.pointer = pointer
