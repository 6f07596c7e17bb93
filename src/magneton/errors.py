"""Exception taxonomy shared by every module: one class per CLI exit code.

All errors derive from MagnetonError so callers can catch the family, and
the message names the cause (a pole, the zeta window, a jump point, the
strip, a size or tail budget).  The CLI maps the classes onto exit codes:
DomainError (and a bare MagnetonError) exits 2, ConvergenceError exits 3,
CrossCheckError exits 4.
"""


class MagnetonError(Exception):
    pass


class DomainError(MagnetonError):
    """Input the operation refuses: outside its mathematical domain or the
    evaluator's window, at a pole or jump point, inside the critical strip
    while the RH mode forbids it, or beyond a size budget."""


class ConvergenceError(MagnetonError):
    """Iteration, refinement or truncation budget exhausted before reaching
    tolerance."""


class CrossCheckError(MagnetonError):
    """Analytic value and independent numeric route disagree beyond tolerance."""
