"""Exception types shared across the package, and the one rule for counts.

Every error that a caller can act on gets its own class, and each class
carries the CLI's exit code and stderr label: 1 "error" (invalid input,
package defects), 2 "degenerate" (inconclusive fits), 3 "budget exceeded".
Every count (q-bound, L, k-max, budget, N, depth, n-samples, n-perturb,
the counts of a dimension fit and the CLI's threads) goes through
`require_int` in the function that consumes it, so 0, 2.5, nan and inf
are refused alike and nothing is truncated.  Real-valued ranges are written as negated comparisons
(`not 0 < t < math.inf`), which nan and inf both fail.
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


def require_int(field, value, least=1):
    """`value` as an int, or ValidationError(field) unless it is an integer >= least."""
    try:
        ok = value >= least and value % 1 == 0  # false for nan and inf
    except (TypeError, ValueError):  # not a number, or not one number
        ok = False
    if not ok:
        raise ValidationError(field, "must be a positive integer" if least == 1 else f"must be an integer >= {least}")
    return int(value)


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
