"""Root finding for the symmetric well.

The well equation zeta(x)^2 Gamma(x/2)/Gamma((x-1)/2) pi^(1-x) = 1 has
two real crossings, x1 on (1.5, 1.7) and its mirror x2 = 2 - x1.  A
deterministic bracketed root finder locates x1, and the defining residual
is re-checked on every call.
"""

from __future__ import annotations

import math

from . import specfun
from .errors import ConvergenceError, DomainError

_LN_PI = specfun.LN_PI
_XTOL = 1e-12
_MAX_ITER = 200


def find_root(f, a: float, b: float) -> float:
    """Bracketed root of f on [a, b]: bisection with secant acceleration,
    never leaving the bracket.  Deterministic."""
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise DomainError(f"no sign change on [{a!r}, {b!r}]")
    for i in range(_MAX_ITER):
        if b - a < _XTOL:
            break
        m = 0.5 * (a + b)
        # secant proposal on odd steps only: the forced bisection on even
        # steps keeps the bracket shrinking geometrically even when the
        # secant keeps landing on one side
        if i % 2 == 1 and fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            lo = a + 0.25 * _XTOL
            hi = b - 0.25 * _XTOL
            if lo <= s <= hi:
                m = s
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    else:
        raise ConvergenceError(f"root not bracketed to {_XTOL:g} in {_MAX_ITER} steps")
    return 0.5 * (a + b)


def _well_log_equation(x: float) -> float:
    # log form of zeta(x)^2 * Gamma(x/2)/Gamma((x-1)/2) * pi^(1-x) = 1
    return (
        2.0 * math.log(specfun.zeta(x))
        + specfun.log_gamma(0.5 * x)
        - specfun.log_gamma(0.5 * (x - 1.0))
        + (1.0 - x) * _LN_PI
    )


def well_zeros() -> tuple[float, float]:
    """The two crossings of the symmetric well: the root x1 of the closed
    equation on (1.5, 1.7) and its mirror x2 = 2 - x1.  The defining
    residual is re-verified below 1e-10 on every call."""
    x1 = find_root(_well_log_equation, 1.5, 1.7)
    residual = _well_log_equation(x1)
    if abs(residual) > 1e-10:
        raise ConvergenceError(f"root residual {residual:.3g} above 1e-10")
    return x1, 2.0 - x1
