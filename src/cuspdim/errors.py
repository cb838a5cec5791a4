"""Exception types shared across the package, and the one rule for counts.

One class per exit code and kind, each carrying the CLI's exit code and
stderr label: ValidationError, 1 "error" (invalid input, the message
names the field); InvariantViolation, 1 "error" (a package defect);
DegenerateFit, 2 "degenerate" (inconclusive fits); BudgetExceeded, 3
"budget exceeded" (a work cap was hit, the message names the cap).
Every count (q-bound, L, k-max, N, depth, n-samples, n-perturb,
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
