"""Exception types shared across the package.

Every error that a caller can act on gets its own class, and each class
carries the CLI's exit code and stderr label: 1 "error" (invalid input,
package defects), 2 "degenerate" (inconclusive fits), 3 "budget exceeded".
"""


class CuspDimError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    label = "error"


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

    exit_code = 2
    label = "degenerate"


class BudgetExceeded(CuspDimError):
    """A configured work cap was hit before the computation finished."""

    exit_code = 3
    label = "budget exceeded"


class EnumerationBudgetExceeded(BudgetExceeded):
    """Lattice-point enumeration box exceeds the configured cell limit."""


class CoefficientBudgetExceeded(BudgetExceeded):
    """Exact integer reduction coefficients left the range where int64 stays exact."""


class SamplerStall(BudgetExceeded):
    """Rejection sampler exceeded its proposal cap."""
