"""Exception types shared across the package.

Every error that a caller can act on gets its own class; the CLI maps
them onto exit codes (validation 1, degenerate/inconclusive 2, budget 3).
"""


class CuspDimError(Exception):
    """Base class for all package errors."""


class ValidationError(CuspDimError):
    """Invalid configuration or argument; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class RankError(ValidationError):
    """Basis matrix is singular."""

    def __init__(self, message="basis matrix is singular"):
        super().__init__("basis", message)


class DeterminantError(ValidationError):
    """Basis determinant is not 1 within tolerance."""

    def __init__(self, det, tol):
        super().__init__("basis", f"|det - 1| = {abs(det - 1.0):.3e} exceeds tol {tol:.1e}")
        self.det = det


class DimensionMismatch(ValidationError):
    def __init__(self, message):
        super().__init__("dim", message)


class UnsupportedDimension(ValidationError):
    def __init__(self, message):
        super().__init__("dim", message)


class InvariantViolation(CuspDimError):
    """An internal consistency check failed: a defect in the package, not in the input."""


class DegenerateFit(CuspDimError):
    """Too few usable points for a regression."""


class BudgetExceeded(CuspDimError):
    """A configured work cap was hit before the computation finished."""


class EnumerationBudgetExceeded(BudgetExceeded):
    """Lattice-point enumeration box exceeds the configured cell limit."""


class CoefficientBudgetExceeded(BudgetExceeded):
    """Exact integer reduction coefficients left the range where int64 stays exact."""


class SamplerStall(BudgetExceeded):
    """Rejection sampler exceeded its proposal cap."""
