"""Closed forms of the Lorentz-weighted potential phi(rho), its symmetry
defect f(rho), the field E = phi', the jump constants, and the symmetric
well S(x).

phi(rho) is the average of ln|zeta(rho+it)| along the vertical line,
weighted by dt/(1/4 + t^2).  Off the critical strip it collapses to
elementary closed forms in zeta and Gamma.  Inside the strip the closed
pieces are only valid if every nontrivial zero sits on the half line;
the default mode carries that assumption explicitly, and the strict mode
refuses strip queries instead of silently assuming it.  phi(1/2) = 0 is
exactly the statement being assumed.

The derivative jumps at rho = 0, 1/2 and 1.  At 0 and 1 its one-sided
limits are its adjacent pieces at the point, and the jump at 1 is 4*pi.
The jump at 1/2 is 2*pi*lambda_1, the first Li/Keiper coefficient, and a
Volchkov-style combination of one-sided limits equals pi*(3 - gamma).
"""

from __future__ import annotations

import math
from enum import Enum

from . import specfun
from .errors import CrossCheckError, DomainError

_GAMMA = specfun.EULER_GAMMA
_LN_PI = specfun.LN_PI
PI = math.pi

JUMP_POINTS = (0.0, 0.5, 1.0)


class RhMode(Enum):
    CONDITIONAL_RH = "conditional_rh"
    OUTSIDE_STRIP_ONLY = "outside_strip_only"


def _check_finite(rho: float) -> float:
    rho = float(rho)
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")
    return rho


def _gate_strip(mode: RhMode, rho: float, what: str):
    if mode is RhMode.OUTSIDE_STRIP_ONLY and 0.0 < rho < 1.0:
        raise DomainError(
            f"{what} at rho = {rho:g} lies inside the critical strip and is "
            "only defined conditionally there; use the conditional mode"
        )


def phi_closed(rho, mode: RhMode = RhMode.CONDITIONAL_RH) -> float:
    """Piecewise closed form of the potential.

    rho >= 1 : pi * ln zeta(rho + 1/2)
    rho <= 0 : functional-equation image of the first piece
    strip    : regularized forms, continuous across 0, 1/2, 1, vanishing
               at 1/2; RH-conditional (see RhMode)
    """
    return _phi(_check_finite(rho), mode, specfun.zeta_reg)


def _phi(rho: float, mode: RhMode, reg) -> float:
    """phi_closed at a finite rho, with (s-1)*zeta(s) from reg(s)."""
    _gate_strip(mode, rho, "phi_closed")
    if rho == 0.5:
        return 0.0
    s = rho + 0.5 if rho > 0.5 else 1.5 - rho  # reflected left of 1/2
    if rho >= 1.0:
        return PI * math.log(reg(s) * (1.0 / (s - 1.0)))  # zeta(s), divided as specfun.zeta does
    if rho <= 0.0:
        return PI * (
            (rho - 0.5) * _LN_PI
            + math.log(reg(s) * (1.0 / (s - 1.0)))
            + specfun.log_gamma(0.75 - 0.5 * rho)
            - specfun.log_gamma(0.25 - 0.5 * rho)
        )
    if rho > 0.5:
        # pi*ln zeta(rho+1/2) with the pole of zeta removed by hand:
        # ln((s-1)zeta(s)) - ln(s-1), s = rho+1/2
        return PI * (math.log(reg(s)) - math.log(1.5 - rho))
    return PI * (
        math.log(reg(s))
        - math.log(0.5 + rho)
        + (rho - 0.5) * _LN_PI
        + specfun.log_gamma(0.75 - 0.5 * rho)
        - specfun.log_gamma(0.25 + 0.5 * rho)
    )


def symmetry_defect(rho) -> float:
    """f(rho) = phi(rho) - phi(1-rho), in closed form:
    pi*(ln(pi)*(rho-1/2) + lnGamma(1/4+|rho-1|/2) - lnGamma(1/4+|rho|/2)).
    Holds unconditionally; odd about rho = 1/2."""
    rho = _check_finite(rho)
    return PI * (
        _LN_PI * (rho - 0.5)
        + specfun.log_gamma(0.25 + 0.5 * abs(rho - 1.0))
        - specfun.log_gamma(0.25 + 0.5 * abs(rho))
    )


def field_E(rho, mode: RhMode = RhMode.CONDITIONAL_RH) -> float:
    """phi'(rho) on the open pieces.  Refuses the jump points 0, 1/2, 1;
    use field_E_onesided there."""
    rho = _check_finite(rho)
    if rho in JUMP_POINTS:
        raise DomainError(
            f"phi' jumps at rho = {rho:g}; query field_E_onesided({rho:g}, '+') "
            "or ('-') instead"
        )
    return _field(rho, True, mode)


def _field(rho: float, right: bool, mode: RhMode) -> float:
    """phi' on the piece that holds rho; at 0 and 1 `right` picks the
    piece on the right of the point, so its value there is the limit."""
    if rho > 1.0 or (rho == 1.0 and right):
        return PI * specfun.zeta_logderiv(rho + 0.5)
    if rho < 0.0 or (rho == 0.0 and not right):
        return PI * (
            _LN_PI
            - specfun.zeta_logderiv(1.5 - rho)
            - 0.5 * specfun.digamma(0.75 - 0.5 * rho)
            + 0.5 * specfun.digamma(0.25 - 0.5 * rho)
        )
    _gate_strip(mode, rho, "field_E")
    if rho > 0.5:
        # = pi*[zeta'/zeta(rho+1/2) + 1/(rho-1/2) + 1/(3/2-rho)] but written
        # through the regularized log-derivative, finite up to the edges
        return PI * (specfun.reg_logderiv(rho + 0.5) + 1.0 / (1.5 - rho))
    return PI * (
        -specfun.reg_logderiv(1.5 - rho)
        - 1.0 / (0.5 + rho)
        + _LN_PI
        - 0.5 * specfun.digamma(0.75 - 0.5 * rho)
        - 0.5 * specfun.digamma(0.25 + 0.5 * rho)
    )


def field_E_onesided(point, side: str, mode: RhMode = RhMode.CONDITIONAL_RH) -> float:
    """One-sided limits of phi' at the jump points, side '+' or '-': the
    adjacent pieces of field_E at 0 and 1, and at 1/2 the paper's closed
    pi*(1 + gamma) and pi*(ln(4*pi) - 1), which hold only under RH."""
    point = _check_finite(point)
    if side not in ("+", "-"):
        raise DomainError(f"side must be '+' or '-', got {side!r}")
    if point not in JUMP_POINTS:
        raise DomainError(
            f"one-sided values are only special at {JUMP_POINTS}; "
            f"rho = {point:g} has a two-sided derivative, use field_E"
        )
    in_strip = (point, side) not in ((0.0, "-"), (1.0, "+"))
    if in_strip and mode is RhMode.OUTSIDE_STRIP_ONLY:
        raise DomainError(
            f"the {side} limit at rho = {point:g} approaches through the strip"
        )
    if point == 0.5:
        return PI * (1.0 + _GAMMA) if side == "+" else PI * (math.log(4.0 * PI) - 1.0)
    return _field(point, side == "+", mode)


def richardson(sample, h: float = 1e-5) -> float:
    """Richardson step for a one-sided quantity sample(h) with O(h) error:
    2*sample(h/2) - sample(h) kills the linear term."""
    return 2.0 * sample(0.5 * h) - sample(h)


def _field_step(point: float, h: float) -> float:
    """field_E at point + h minus field_E at point - h."""
    if not (0.0 < h < 0.25):
        raise DomainError(f"need 0 < h < 1/4, got {h!r}")
    return field_E(point + h) - field_E(point - h)


def _verified(closed: float, numeric_jump, tol: float) -> float:
    """closed, once the Richardson-extrapolated numeric_jump is within tol."""
    extrapolated = richardson(numeric_jump)
    if abs(extrapolated - closed) > tol:
        raise CrossCheckError(
            f"one-sided field limits give {extrapolated!r}, expected {closed!r}"
        )
    return closed


def numeric_jump_at_one(h: float = 1e-7) -> float:
    """field_E just left of 1 minus just right of 1; tends to 4*pi as h -> 0."""
    return -_field_step(1.0, h)


def jump_at_one() -> float:
    """The derivative jump phi'(1-) - phi'(1+) = 4*pi exactly.  Every call
    re-verifies the closed value against a Richardson-extrapolated pair of
    one-sided field differences."""
    return _verified(4.0 * PI, numeric_jump_at_one, 1e-6)


def numeric_jump_at_zero(h: float = 1e-7) -> float:
    """field_E just right of 0 minus just left of 0."""
    return _field_step(0.0, h)


def jump_at_zero() -> float:
    """The derivative jump at rho = 0: pi*(-4 + gamma + 3*ln 2 + pi/2),
    about 0.714566.  Orientation is phi'(0+) - phi'(0-), fixed by matching
    the numeric one-sided limits.  Verified on every call."""
    closed = PI * (-4.0 + _GAMMA + 3.0 * math.log(2.0) + 0.5 * PI)
    return _verified(closed, numeric_jump_at_zero, 1e-4)


def slope_at_half() -> float:
    """Common part of the derivative at 1/2: the mean of the one-sided
    limits, pi*(ln(pi) + gamma + 2*ln 2)/2, about 4.882411.  Equals half
    the slope of the symmetry defect f at 1/2."""
    return 0.5 * PI * (_LN_PI + _GAMMA + 2.0 * math.log(2.0))


def lambda_one() -> float:
    """First Li/Keiper coefficient lambda_1 = 1 + gamma/2 - ln(4*pi)/2.
    2*pi*lambda_1 is the full asymmetric jump of phi' at 1/2."""
    return 1.0 + 0.5 * _GAMMA - 0.5 * math.log(4.0 * PI)


def volchkov_delta(mode: RhMode = RhMode.CONDITIONAL_RH) -> float:
    """delta = phi'(1-) - phi'(1/2+) - phi'(1+), assembled from the actual
    one-sided limits; equals pi*(3 - gamma) analytically."""
    if mode is not RhMode.CONDITIONAL_RH:
        raise DomainError("the aggregate uses strip limits; conditional mode only")
    return (
        field_E_onesided(1.0, "-")
        - field_E_onesided(0.5, "+")
        - field_E_onesided(1.0, "+")
    )


def well_S(x, mode: RhMode = RhMode.CONDITIONAL_RH) -> float:
    """Symmetrized potential in the shifted variable x = rho + 1/2:
    S(x) = (phi(x-1/2) + phi(3/2-x))/2.  Symmetric about x = 1, and
    S(1) = 0 restates the hypothesis.  Mode gating is inherited from
    phi_closed, so it bites exactly when a strip value is touched
    (x in (1/2, 3/2))."""
    x = _check_finite(x)
    rho = x - 0.5
    memo: dict[float, float] = {}

    def reg(s: float) -> float:  # one call for both halves, two once rounding splits their s
        if s not in memo:
            memo[s] = specfun.zeta_reg(s)
        return memo[s]

    return 0.5 * (_phi(rho, mode, reg) + _phi(1.0 - rho, mode, reg))

