"""Sensitivity tooling: how far the potential picture can bend before it
breaks.

A single hypothetical zero off the half line at height t0 perturbs the
potential near its anchor by O(1/t0^2); all zeros above a height t0
leaving the line cost at most O(ln t0 / t0).  Both bounds shrink with
height, which is why finite computations pin the potential only up to a
stated ceiling.  The module also locates the two real crossings of the
symmetric well and carries the density estimate used to translate zero
counts into heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .errors import ConvergenceError, DomainError

_LN_PI = specfun.LN_PI


@dataclass(frozen=True)
class OffLineZero:
    """Hypothetical zero at a + i*t0 with 1/2 < a < 1."""

    a: float
    t0: float

    def __post_init__(self):
        if not (0.5 < self.a < 1.0):
            raise DomainError(f"need 1/2 < a < 1, got a = {self.a!r}")
        if not (self.t0 > 0.0):
            raise DomainError(f"need t0 > 0, got t0 = {self.t0!r}")


def offline_zero_correction(z: OffLineZero, x: float) -> float:
    """First-order potential perturbation near x = 1 from the zero z:
    2(a - 1/2)/t0^2 - 2(x - 1)/t0^2.  The first term vanishes as a -> 1/2,
    as it must for an on-line zero."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    inv_t2 = 1.0 / (z.t0 * z.t0)
    return 2.0 * (z.a - 0.5) * inv_t2 - 2.0 * (x - 1.0) * inv_t2


def tail_bound(t0: float, c: float) -> float:
    """(c/2pi) * ln(t0)/t0: worst-case potential shift if every zero above
    height t0 left the line.  Monotone decreasing only for t0 > e, hence
    the domain cut."""
    if not (t0 > math.e):
        raise DomainError(f"need t0 > e, got {t0!r}")
    if not (c > 0.0):
        raise DomainError(f"need c > 0, got {c!r}")
    return c / (2.0 * math.pi) * math.log(t0) / t0


def zero_count_estimate(T: float) -> float:
    """Main term (T/2pi) ln(T/2pi) of the zero-counting function."""
    u = T / (2.0 * math.pi)
    if not (u > 1.0):
        raise DomainError(f"need T > 2*pi, got {T!r}")
    return u * math.log(u)


def find_root(f, a: float, b: float, xtol: float = 1e-12, max_iter: int = 200) -> float:
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
    for i in range(max_iter):
        if b - a < xtol:
            break
        m = 0.5 * (a + b)
        # secant proposal on odd steps only: the forced bisection on even
        # steps keeps the bracket shrinking geometrically even when the
        # secant keeps landing on one side
        if i % 2 == 1 and fb != fa:
            s = b - fb * (b - a) / (fb - fa)
            lo = a + 0.25 * xtol
            hi = b - 0.25 * xtol
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
        raise ConvergenceError(f"root not bracketed to {xtol:g} in {max_iter} steps")
    return 0.5 * (a + b)


def _well_log_equation(x: float) -> float:
    # log form of zeta(x)^2 * Gamma(x/2)/Gamma((x-1)/2) * pi^(1-x) = 1
    return (
        2.0 * math.log(specfun.zeta(x).real)
        + specfun.log_gamma(0.5 * x).real
        - specfun.log_gamma(0.5 * (x - 1.0)).real
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
