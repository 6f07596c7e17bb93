"""Exception taxonomy shared by every module.

All errors derive from MagnetonError so callers can catch the family.
The CLI maps subfamilies onto exit codes: precondition-style failures
exit 2, non-convergence exits 3, cross-check mismatches exit 4.
"""


class MagnetonError(Exception):
    pass


class DomainError(MagnetonError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class WindowExceededError(DomainError):
    """|Im s| beyond the supported accuracy window of the zeta evaluator."""


class CapacityError(MagnetonError):
    """Requested work exceeds a configured memory or size budget."""


class TruncationBudgetError(MagnetonError):
    """Reported truncation tail bound exceeds the caller's ceiling."""


class RhModeError(MagnetonError):
    """Closed-form query inside the critical strip while the mode forbids it."""


class JumpPointError(DomainError):
    """Derivative requested exactly at a jump point; use a one-sided variant."""


class ConvergenceError(MagnetonError):
    """Iteration or refinement budget exhausted before reaching tolerance."""


class CrossCheckError(MagnetonError):
    """Analytic value and independent numeric route disagree beyond tolerance."""
