"""Taylor expansion of ln|xi| about x = 3/2, driven by prime sums.

The completed function xi(x) = x(x-1) pi^(-x/2) Gamma(x/2) zeta(x) has
ln xi = ln x + ln(x-1) + ln Gamma(x/2) - (x/2) ln pi + ln zeta(x),
and every derivative at x = 3/2 splits into elementary closed parts plus
a prime-power sum coming from ln zeta.  Truncating the primes at a table
limit leaves a tail that is corrected by an integral-test (li-style)
estimate and bounded honestly per coefficient; the bound is dominated by
prime-count fluctuation and grows explosively with the order, which is
the quantitative statement that high coefficients cannot be trusted from
primes alone.  A high-precision reference route provides the same
coefficients without prime truncation for cross-checks.

Evaluating the series rearranged at x = 1 recovers ln|xi(1)| = 0 through
a near-total cancellation, and its slope estimates the first Li/Keiper
coefficient from primes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DomainError, TruncationBudgetError

_LN_PI = specfun.LN_PI
_DPS = 40  # working precision of the exact route
DEFAULT_ORDER = 13
DEFAULT_PRIME_LIMIT = 10**6
DEFAULT_K_MAX = 60
_K_GUARD = 8  # extra prime-power blocks measured for the cutoff bound


@dataclass(frozen=True)
class TaylorCoefficients:
    order: int
    c: tuple  # length order + 1
    prime_limit: int
    k_max: int
    tail_bound: float
    c_bounds: tuple  # per-coefficient honesty bounds, same length as c
    method: str  # "prime" or "exact"


class Rearranged(NamedTuple):
    value: float
    slope: float
    curvature: float


def _analytic_part(n: int) -> float:
    """All non-prime contributions to C_n."""
    if n == 0:
        return math.fsum(
            (
                math.log(1.5),
                math.log(0.5),
                specfun.log_gamma(0.75).real,
                -0.75 * _LN_PI,
            )
        )
    sign = 1.0 if n % 2 == 1 else -1.0
    rational = sign * math.factorial(n - 1) * (2.0**n + 2.0**n / 3.0**n)
    gamma_part = specfun.polygamma(n - 1, 0.75) / 2.0**n
    pi_part = -0.5 * _LN_PI if n == 1 else 0.0
    return math.fsum((rational, gamma_part, pi_part))


def compute_coefficients(
    order: int,
    table: specfun.PrimeTable,
    k_max: int = DEFAULT_K_MAX,
    tail_budget: float | None = None,
) -> TaylorCoefficients:
    """C_n for n = 0..order from the prime table, tail-corrected.

    The zeta part is (-1)^n sum_k k^(n-1) sum_p (ln p)^n p^(-3k/2); primes
    beyond the table are re-added through the integral-test estimate for
    k <= 3 (higher k tails are far below double precision).  c_bounds[n]
    collects the fluctuation slack of that estimate plus the measured k
    cutoff remainder.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max!r}")
    primes = table.primes
    if len(primes) == 0:
        raise DomainError("empty prime table")

    lp = np.log(primes.astype(np.float64))
    q = np.exp(-1.5 * lp)  # p^(-3/2)
    k_top = k_max + _K_GUARD
    # S[n][k] = sum_p (ln p)^n p^(-3k/2); numpy pairwise sums, fixed order
    S = np.empty((order + 1, k_top + 1))
    qk = np.ones_like(q)
    for k in range(1, k_top + 1):
        qk = qk * q
        w = qk
        for n in range(order + 1):
            S[n, k] = w.sum()
            if n < order:
                w = w * lp

    limit = float(table.limit)
    c = []
    c_bounds = []
    for n in range(order + 1):
        sign = 1.0 if n % 2 == 0 else -1.0
        raw = sign * math.fsum(float(k) ** (n - 1) * S[n, k] for k in range(1, k_max + 1))
        ests = [
            float(k) ** (n - 1) * specfun.prime_tail_estimate(n, 1.5 * k, limit)
            for k in (1, 2, 3)
        ]
        correction = sign * math.fsum(ests)
        # k cutoff: measured guard blocks plus a geometric remainder pad
        guard = [float(k) ** (n - 1) * S[n, k] for k in range(k_max + 1, k_top + 1)]
        k_cut = math.fsum(guard) + 3.0 * guard[-1]
        bound = specfun.TAIL_FLUCTUATION_REL * math.fsum(ests) + k_cut
        prime_part = raw + correction
        c.append(math.fsum((prime_part, _analytic_part(n))))
        c_bounds.append(bound)

    tail_bound = max(c_bounds)
    if tail_budget is not None and tail_bound > tail_budget:
        raise TruncationBudgetError(
            f"prime-tail bound {tail_bound:.3g} exceeds the budget {tail_budget:.3g}; "
            "raise the table limit or lower the order"
        )
    return TaylorCoefficients(
        order=order,
        c=tuple(c),
        prime_limit=table.limit,
        k_max=k_max,
        tail_bound=tail_bound,
        c_bounds=tuple(c_bounds),
        method="prime",
    )


def _coefficients_mp(order: int, mp):
    """C_0..C_order as mp numbers at the caller's working precision."""
    f = [mp.zeta(mp.mpf(3) / 2, derivative=k) / mp.factorial(k) for k in range(order + 1)]
    # series coefficients g of ln(sum f_k u^k): n g_n = n f_n/f_0 - sum j g_j f_(n-j)/f_0
    g = [mp.log(f[0])]
    for n in range(1, order + 1):
        acc = n * f[n] / f[0]
        for j in range(1, n):
            acc -= j * g[j] * f[n - j] / f[0]
        g.append(acc / n)
    three_quarters = mp.mpf(3) / 4
    out = []
    for n in range(order + 1):
        if n == 0:
            val = (
                mp.log(mp.mpf(3) / 2)
                + mp.log(mp.mpf(1) / 2)
                + mp.loggamma(three_quarters)
                - three_quarters * mp.log(mp.pi)
                + g[0]
            )
        else:
            sign = 1 if n % 2 == 1 else -1
            val = (
                mp.factorial(n) * g[n]
                + sign * mp.factorial(n - 1) * (mp.mpf(2) ** n + (mp.mpf(2) / 3) ** n)
                + mp.polygamma(n - 1, three_quarters) / mp.mpf(2) ** n
            )
            if n == 1:
                val -= mp.log(mp.pi) / 2
        out.append(val)
    return out


def compute_coefficients_exact(order: int) -> TaylorCoefficients:
    """Reference route: the same coefficients from high-precision zeta
    derivatives (no prime truncation).  Used as the cross-check oracle for
    the prime route and for the deep-cancellation sums the prime route
    cannot support."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    import mpmath as mp

    with mp.workdps(_DPS):
        c = [float(v) for v in _coefficients_mp(order, mp)]
    return TaylorCoefficients(
        order=order,
        c=tuple(c),
        prime_limit=0,
        k_max=0,
        tail_bound=0.0,
        c_bounds=(0.0,) * (order + 1),
        method="exact",
    )


def rearranged_at_one(coeffs: TaylorCoefficients, k_terms: int) -> Rearranged:
    """Partial sums of the series pushed from 3/2 to 1 (step -1/2):
    value, first and second derivative of ln|xi| at 1.  The value is a
    near-total cancellation; terms are summed exactly in fixed order."""
    if not (0 <= k_terms <= coeffs.order):
        raise DomainError(
            f"k_terms must lie in [0, {coeffs.order}], got {k_terms!r}"
        )
    c = coeffs.c
    value = math.fsum(
        c[n] * (-0.5) ** n / math.factorial(n) for n in range(k_terms + 1)
    )
    slope = math.fsum(
        c[n] * (-0.5) ** (n - 1) / math.factorial(n - 1) for n in range(1, k_terms + 1)
    )
    curvature = math.fsum(
        c[n] * (-0.5) ** (n - 2) / (2.0 * math.factorial(n - 2))
        for n in range(2, k_terms + 1)
    )
    return Rearranged(value, slope, curvature)


def rearranged_at_one_exact(order: int) -> Rearranged:
    """Rearranged sums at x = 1 carried out entirely at _DPS digits, then
    rounded once at the end.  The value is a cancellation of
    coefficient-sized terms down past 1e-20, which double-rounded
    coefficients cannot resolve (their rounding alone leaves a floor of a
    few 1e-18); this route exists for exactly that quantity."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    import mpmath as mp

    with mp.workdps(_DPS):
        c = _coefficients_mp(order, mp)
        half = -mp.mpf(1) / 2
        value = mp.fsum(c[n] * half**n / mp.factorial(n) for n in range(order + 1))
        slope = mp.fsum(
            c[n] * half ** (n - 1) / mp.factorial(n - 1) for n in range(1, order + 1)
        )
        curvature = mp.fsum(
            c[n] * half ** (n - 2) / (2 * mp.factorial(n - 2))
            for n in range(2, order + 1)
        )
        return Rearranged(float(value), float(slope), float(curvature))

