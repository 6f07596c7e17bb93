"""Root finding for the symmetric well.

The well S(x) of `magneton.well_S` has two real crossings, x1 on
(1.5, 1.7) and its mirror x2 = 2 - x1.  For x > 3/2, S is pi/2 times the
log of the paper's well equation zeta(x)^2 Gamma(x/2)/Gamma((x-1)/2)
pi^(1-x) = 1, so x1 is that equation's root.  A deterministic bracketed
root finder locates x1 on S itself, and |S(x1)| is re-checked on every
call.
"""

from __future__ import annotations

from . import magneton
from .errors import ConvergenceError, DomainError

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


def well_zeros() -> tuple[float, float]:
    """The two crossings of the symmetric well: the root x1 of S on
    (1.5, 1.7) and its mirror x2 = 2 - x1.  |S(x1)| is re-verified below
    1e-10 on every call."""
    x1 = find_root(magneton.well_S, 1.5, 1.7)
    residual = magneton.well_S(x1)
    if abs(residual) > 1e-10:
        raise ConvergenceError(f"root residual {residual:.3g} above 1e-10")
    return x1, 2.0 - x1
