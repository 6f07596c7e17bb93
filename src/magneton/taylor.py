"""Taylor expansion of ln|xi| about x = 3/2, driven by prime sums.

The completed function xi(x) = x(x-1) pi^(-x/2) Gamma(x/2) zeta(x) has
ln xi = ln x + ln(x-1) + ln Gamma(x/2) - (x/2) ln pi + ln zeta(x),
and every derivative at x = 3/2 splits into elementary closed parts plus
a prime-power sum coming from ln zeta.  Truncating the primes at a table
limit leaves a tail that is corrected by an integral-test (li-style)
estimate.  Each coefficient carries a bound: a calibrated relative slack
on that estimate for the prime-count fluctuation, plus the measured k
cutoff remainder.  The slack is not a proof; at some table limits the
true error exceeds it (see _TAIL_FLUCTUATION_REL).  The bound grows
explosively with the order, which is the quantitative statement that
high coefficients cannot be trusted from primes alone.  A high-precision
reference route provides the same coefficients without primes, for
cross-checks: one Euler-Maclaurin pass over power series in s - 3/2 gives
every zeta^(k)(3/2)/k! at once, and one more at 3/4 + 30 gives ln Gamma,
psi and the Hurwitz zeta values of the gamma factor, each to within a
stated bound.  It runs on the standard library's decimal at 50 decimal
digits (see _DPS for why that many) and needs no mpmath.

Evaluating the series rearranged at x = 1 recovers ln|xi(1)| = 0 through
a near-total cancellation, and its slope estimates the first Li/Keiper
coefficient from primes alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError

_LN_PI = specfun.LN_PI
# Working precision of the exact route, in decimal digits.  C_20 comes out
# near -3.6e-7 as the difference of 20! g_20 and its rational part, both
# near 1.3e23, and the value at one cancels O(1) terms again down to 3e-32:
# at 40 digits the order-20 value kept 10 correct digits, at 50 it keeps 19.
_DPS = 50
# pi to 80 decimals, past any precision the exact route or its tests use
_PI = "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899"
DEFAULT_PRIME_LIMIT = 10**6
DEFAULT_K_MAX = 60
_K_GUARD = 8  # extra prime-power blocks measured for the cutoff bound
# p^(-3k/2) is exactly 0.0 for every prime from k = 717 on, so from this
# k_max on the coefficients and bounds no longer change in a single bit
_K_CEILING = 716
_LEAF = 1 << 15  # primes per cache-resident block of _prime_sums
_PW_BLOCKSIZE = 128  # numpy's pairwise-sum block, summed in one unrolled pass
# Relative slack on the integral-test tail estimate for the prime-count
# fluctuation that the smooth density cannot see.  Calibrated, not proven.
# Against compute_coefficients_exact at order 20, c_bounds holds at 150
# geometric limits over [1e6, 1e7] and at 2e7, 5e7 and 1e8 (worst: an
# error of 0.91 of the bound).  It fails at other limits: |c_0 - exact| is
# 1.10x its bound at 1,194,000 (c_1 1.01x), 1.48x at 617,500, 2.47x at
# 100,000 and 795x at 2.
_TAIL_FLUCTUATION_REL = 5e-4


class TaylorCoefficients(NamedTuple):
    c: tuple  # C_0 .. C_order
    c_bounds: tuple  # per-coefficient tail bounds, same length as c
    tail_bound: float  # max(c_bounds)


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
                specfun.log_gamma(0.75),
                -0.75 * _LN_PI,
            )
        )
    sign = 1.0 if n % 2 == 1 else -1.0
    rational = sign * math.factorial(n - 1) * (2.0**n + 2.0**n / 3.0**n)
    gamma_part = specfun.polygamma(n - 1, 0.75) / 2.0**n
    pi_part = -0.5 * _LN_PI if n == 1 else 0.0
    return math.fsum((rational, gamma_part, pi_part))


def _prime_sums(lp, order: int, k_top: int):
    """S[n, k] = sum_p lp^n q^k for 0 <= n <= order, 1 <= k <= k_top.

    lp holds ln p for increasing primes and q = p^(-3/2) is
    np.exp(-1.5 * lp); column k = 0 is 0.  Every entry has the bits of
    `(q**k * lp**n).sum()` built as repeated products over the whole
    arrays, but each (k, n) pass runs on a block of at most _LEAF primes
    that stays in cache, and only where it can change a bit of the result.
    q is formed per block: numpy's float64 exp is elementwise, so a block
    of it, or one element, has the bits of the whole-array q.

    numpy sums a contiguous float64 array by a fixed pairwise tree: a node
    of more than 128 elements (numpy's PW_BLOCKSIZE) is halved, the split
    rounded down to a multiple of 8, and the two halves' sums are added.
    Splitting at the same points and adding block sums back up the same
    tree therefore repeats numpy's additions exactly.  Each such node is one
    addition S_left + S_right of non-negative sums, and in round to nearest
    that returns S_left bit for bit whenever S_right < ulp(S_left)/2.  The
    computed lp rises and q falls along a block: ln p moves by about 1/p
    from one prime to the next, far more than the few ulp that np.log and
    np.exp may be off.  Rounding is monotone in each factor, so every
    computed term of the right block is at most the same product chain of
    its first q and its last lp.  Its sum over len terms is then below
    2 * len * q_first^k * lp_last^n: the factor 2 covers the roundings of
    the products and of the sum, subnormal ones included.  Where that bound
    (taken in logs, so nothing underflows) is below ulp/4 of a lower bound
    of S_left, the right block cannot move the entry and is not summed for
    that (n, k).

    Above _LEAF the lower bound is S_left itself, summed first.  Inside a
    leaf that would cost a second pass over the left half for every entry
    the right half does move, so the bound is one computed term: a computed
    sum of non-negative terms is never below any of them.  It is the term
    at the first prime from the peak ln p = n/(1.5k) of lp^n q^k on (or at
    the left half's last), taken in logs with a factor-2 margin, and only
    where every product on the way to it is a normal float (elsewhere 0.0,
    whose ulp is the least double).  The entries whose right half is
    absorbed recurse into the left half; the others take one pass over the
    node.  The recursion stops at 128 elements, which numpy sums in one
    unrolled pass, not as two halves.
    """
    need = np.ones((order + 1, k_top + 1), dtype=bool)
    need[:, 0] = False
    return _node_sums(lp, need)


def _node_sums(lp, need):
    """_prime_sums on one node of the pairwise tree; only the entries where
    `need` is set are exact, the others are left unsummed."""
    size = len(lp)
    if size <= _PW_BLOCKSIZE or not need.any():
        return _leaf_sums(lp, need)
    half = size // 2
    half -= half % 8
    if size > _LEAF:
        S = _node_sums(lp[:half], need)
        need = _moves(lp, half, need, S)
        if need.any():
            np.add(S, _node_sums(lp[half:], need), out=S, where=need)
        return S
    right = _moves(lp, half, need)
    S = _node_sums(lp[:half], need & ~right)
    np.copyto(S, _leaf_sums(lp, right), where=right)
    return S


def _moves(lp, half, need, S=None):
    """The entries of `need` whose left sum S may change when the sum over
    lp[half:] is added, judged from S or, without S, from a lower bound of
    it: half the term at the first prime of lp[:half] from the peak
    ln p = n/(1.5k) on (or at its last), or 0.0 where some product on the
    way to that term is not a normal float."""
    n, k = np.nonzero(need)
    if S is not None:
        lower = S[n, k]
    else:
        lp_i = lp[np.searchsorted(lp[: half - 1], n / (1.5 * k))]
        log_qk = k * np.log(np.exp(-1.5 * lp_i))
        log_term = log_qk + n * np.log(lp_i) - math.log(2.0)
        tiny = math.log(np.finfo(float).tiny) + math.log(2.0)
        lower = np.where((log_qk >= tiny) & (log_term >= tiny), np.exp(log_term), 0.0)
    q_half = np.exp(-1.5 * lp[half : half + 1])[0]
    log_bound = math.log(2 * (len(lp) - half)) + k * math.log(q_half) + n * math.log(lp[-1])
    out = np.zeros_like(need)
    out[n, k] = log_bound >= np.log(np.spacing(lower)) - math.log(4.0)
    return out


def _leaf_sums(lp, need):
    """The (k, n) passes of one cache-resident block, for the needed entries."""
    S = np.zeros(need.shape)
    live_k = np.flatnonzero(need.any(axis=0))
    if not len(lp) or not len(live_k):
        return S
    mul, add = np.multiply, np.add.reduce
    q = np.exp(-1.5 * lp)
    qk = np.ones_like(q)
    w = np.empty_like(q)
    z = len(q)  # q^k is 0.0 from index z on
    q_z, lp_z, qk_z, w_z = q, lp, qk, w
    for k in range(1, live_k[-1] + 1):
        mul(qk_z, q_z, out=qk_z)
        # q decreases along the block and rounding is monotone, so q^k is
        # largest at the block's first prime: once that is 0.0 the block
        # adds exactly 0.0 to this and every later k.  Short of that, the
        # zeros form a suffix, which the products skip; the sum still runs
        # over the whole block, to keep numpy's pairwise tree.
        if qk[0] == 0.0:
            break
        if qk[z - 1] == 0.0:
            z = np.count_nonzero(qk_z)
            w[z:] = 0.0
            q_z, lp_z, qk_z, w_z = q[:z], lp[:z], qk[:z], w[:z]
        live_n = np.flatnonzero(need[:, k])
        if not len(live_n):
            continue
        w_z[:] = qk_z
        for n in range(live_n[-1] + 1):
            if n:
                mul(w_z, lp_z, out=w_z)
            if need[n, k]:
                S[n, k] = add(w)
    return S


def compute_coefficients(
    order: int,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    k_max: int = DEFAULT_K_MAX,
    tail_budget: float | None = None,
) -> TaylorCoefficients:
    """C_n for n = 0..order from the primes <= prime_limit, tail-corrected.

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
    if k_max > _K_CEILING:
        raise DomainError(f"k_max must be <= {_K_CEILING}, got {k_max!r}")
    if tail_budget is not None and math.isnan(tail_budget):
        raise DomainError("tail budget must be a number, got nan")

    # ln p in place of p, one block at a time: the only whole-table array
    primes = specfun.sieve_primes(prime_limit)
    lp = primes.view(np.float64)
    for a in range(0, len(lp), _LEAF):
        lp[a : a + _LEAF] = np.log(primes[a : a + _LEAF])
    k_top = k_max + _K_GUARD
    S = _prime_sums(lp, order, k_top)

    limit = float(prime_limit)
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
        c.append(math.fsum((raw + correction, _analytic_part(n))))
        c_bounds.append(_TAIL_FLUCTUATION_REL * math.fsum(ests) + k_cut)

    tail_bound = max(c_bounds)
    if tail_budget is not None and tail_bound > tail_budget:
        raise ConvergenceError(
            f"prime-tail bound {tail_bound:.3g} exceeds the budget {tail_budget:.3g}; "
            "raise the table limit or lower the order"
        )
    return TaylorCoefficients(tuple(c), tuple(c_bounds), tail_bound)


def _em_log_bound(terms: int) -> float:
    """ln of a bound on the error of every f_k from _zeta_taylor(terms).

    With N = M = terms, the Euler-Maclaurin remainder of zeta(s) after M
    Bernoulli terms is, up to sign,

        R = int_N^inf (P(x) - B_(2M+2))/(2M+2)! (s)_(2M+2) x^(-s-2M-2) dx,

    P the periodic Bernoulli function of order 2M+2, so |P - B_(2M+2)| <=
    2|B_(2M+2)|, and |B_2m|/(2m)! = 2 zeta(2m)/(2 pi)^2m <= 2 zeta(4)/(2 pi)^2m.
    On the circle |h| = 1 about s = 3/2, |(s)_(2M+2)| <= (5/2)_(2M+2) =
    Gamma(2M+9/2)/Gamma(5/2) and Re s >= 1/2, so there

        |R| <= 4 zeta(4)/(2 pi)^(2M+2) Gamma(2M+9/2)/Gamma(5/2)
               N^(-2M-3/2)/(2M+3/2).

    R is analytic in the disc (the pole at s = 1 is the term
    N^(1-s)/(s-1), expanded exactly), so by Cauchy's estimate its k-th
    Taylor coefficient in h, the error of f_k, obeys the same bound."""
    m2 = 2 * terms
    return (
        math.log(4.0 * math.pi**4 / 90.0)
        - (m2 + 2) * math.log(2.0 * math.pi)
        + math.lgamma(m2 + 4.5)
        - math.lgamma(2.5)
        - (m2 + 1.5) * math.log(terms)
        - math.log(m2 + 1.5)
    )


def _em_terms(digits: int) -> int:
    """The least N = M whose _em_log_bound is below 10^-(digits + 2)."""
    target = -(digits + 2) * math.log(10.0)
    terms = 1
    while _em_log_bound(terms) >= target:
        terms += 1
    return terms


_EM_TERMS = _em_terms(_DPS)  # 30 at 50 digits: every f_k within 3.9e-54


def _gamma_log_bound(s: int, terms: int) -> float:
    """ln of a bound on the error of value s of _gamma_values(order, terms):
    ln Gamma(3/4) for s = 0, psi(3/4) for s = 1, zeta(s, 3/4) from s = 2 on.

    Each is the finite sum over n < N plus an Euler-Maclaurin expansion at
    X = 3/4 + N for f(x) = ln x (Stirling's series, s = 0) or f(x) = x^-s
    (the digamma series is the s -> 1 limit of the Hurwitz one), cut after
    M Bernoulli terms.  As in _em_log_bound the remainder is the integral
    over x > X of (P(x) - B_(2M+2))/(2M+2)! f^(2M+2)(x), and f^(2M+2) keeps
    one sign there, so with N = M = terms

        |R| <= 2|B_(2M+2)|/(2M+2)! |f^(2M+1)(X)|
            <= 4 zeta(4)/(2 pi)^(2M+2) (s+2M)!/(max(s, 1)-1)! X^(-s-2M-1)."""
    m2 = 2 * terms
    return (
        math.log(4.0 * math.pi**4 / 90.0)
        - (m2 + 2) * math.log(2.0 * math.pi)
        + math.lgamma(s + m2 + 1)
        - math.lgamma(max(s, 1))
        - (s + m2 + 1) * math.log(terms + 0.75)
    )


def _bernoulli(terms: int) -> list:
    """B_2j/(2j)! for j = 1..terms as exact integer pairs (numerator,
    denominator): with the tangent numbers T_j = 1, 2, 16, 272, ...,

        B_2j/(2j)! = (-1)^(j-1) T_j / ((2j-1)! 4^j (4^j - 1))."""
    t = [0, 1]  # T_j by the in-place recurrence of Brent and Zimmermann
    for k in range(2, terms + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, terms + 1):
        for j in range(k, terms + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [
        ((-1) ** (j - 1) * t[j], math.factorial(2 * j - 1) * 4**j * (4**j - 1))
        for j in range(1, terms + 1)
    ]


def _zeta_taylor(order: int, terms: int) -> list:
    """f_k = zeta^(k)(3/2)/k! for k = 0..order, in one Euler-Maclaurin pass
    over power series in h = s - 3/2 truncated after h^order:

        zeta(s) = sum_(n<N) n^-s + N^-s Q(h),
        Q(h) = N/(1/2 + h) + 1/2 + sum_(j<=M) B_2j/(2j)! (s)_(2j-1) N^(1-2j),

    with N = M = terms and (s)_m = s(s+1)...(s+m-1), as Decimals at the
    precision of the current decimal context.  Beside rounding, every f_k
    is within exp(_em_log_bound(terms)) of the truth."""
    from decimal import Decimal  # see compute_coefficients_exact

    # ln n: Decimal.ln on the primes, a composite as the sum of the logs of
    # its least factor and its cofactor
    ln = [None, Decimal(0)]
    for n in range(2, terms + 1):
        p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
        ln.append(Decimal(n).ln() if p == n else ln[p] + ln[n // p])
    inv_fact = [1 / Decimal(math.factorial(k)) for k in range(order + 1)]

    def powers(n):  # k! [h^k] n^-s = n^-3/2 (-ln n)^k
        t, step = 1 / (n * Decimal(n).sqrt()), -ln[n]
        out = [t]
        for _ in range(order):
            t *= step
            out.append(t)
        return out

    def times_linear(p, a):  # p *= a + h, truncated
        for k in range(order, 0, -1):
            p[k] = p[k] * a + p[k - 1]
        p[0] *= a

    partial = [Decimal(0)] * (order + 1)
    for n in range(1, terms):
        for k, t in enumerate(powers(n)):
            partial[k] += t
    q = [Decimal(2 * terms * (-2) ** k) for k in range(order + 1)]
    q[0] += Decimal("0.5")
    rising = [Decimal(1)] + [Decimal(0)] * order
    for j, (num, den) in enumerate(_bernoulli(terms), 1):
        times_linear(rising, Decimal(4 * j - 1) / 2)  # now (s)_(2j-1)
        b = Decimal(num) / (den * terms ** (2 * j - 1))  # times N^(1-2j)
        for k in range(order + 1):
            q[k] += b * rising[k]
        times_linear(rising, Decimal(4 * j + 1) / 2)
    e = [t * c for t, c in zip(powers(terms), inv_fact)]
    return [
        partial[k] * inv_fact[k] + sum(e[i] * q[k - i] for i in range(k + 1))
        for k in range(order + 1)
    ]


def _gamma_values(order: int, terms: int) -> list:
    """[ln Gamma(3/4), psi(3/4), zeta(2, 3/4), ..., zeta(order, 3/4)] from
    one Euler-Maclaurin pass at X = 3/4 + N:

        ln Gamma(3/4) = (X - 1/2) ln X - X + ln(2 pi)/2 + E_0 - ln P,
        psi(3/4) = ln X - 1/(2X) - E_1 - S_1,
        zeta(s, 3/4) = S_s + X^(1-s)/(s-1) + X^-s/2 + E_s,

    with P = prod_(n<N) (n + 3/4), S_s = sum_(n<N) (n + 3/4)^-s and
    E_s = sum_(j<=M) B_2j/(2j)! (s+2j-2)!/(max(s, 1)-1)! X^(1-s-2j), N = M =
    terms, as Decimals at the precision of the current decimal context.
    Beside rounding, value s is within exp(_gamma_log_bound(s, terms)) of
    the truth."""
    from decimal import Decimal  # see compute_coefficients_exact

    x = Decimal(4 * terms + 3) / 4  # exact
    x_pow = [Decimal(1), 1 / x]  # X^-i
    for _ in range(order + 2 * terms - 1):
        x_pow.append(x_pow[-1] * x_pow[1])
    bern = _bernoulli(terms)
    e = []
    for s in range(order + 1):
        r, acc = max(s, 1), Decimal(0)  # r = (s+2j-2)!/(max(s, 1)-1)! at j = 1
        for j, (num, den) in enumerate(bern, 1):
            acc += Decimal(num * r) / den * x_pow[s + 2 * j - 1]
            r *= (s + 2 * j - 1) * (s + 2 * j)
        e.append(acc)
    sums = [Decimal(0)] * (order + 1)
    for n in range(terms):
        u = Decimal(4) / (4 * n + 3)  # 1/(n + 3/4)
        p = u
        for s in range(1, order + 1):
            sums[s] += p
            p *= u
    ln_x = x.ln()
    ln_p = (Decimal(math.prod(range(3, 4 * terms, 4))) / 4**terms).ln()
    out = [(x - Decimal("0.5")) * ln_x - x + (2 * Decimal(_PI)).ln() / 2 + e[0] - ln_p]
    if order >= 1:
        out.append(ln_x - x_pow[1] / 2 - e[1] - sums[1])
    for s in range(2, order + 1):
        out.append(sums[s] + x_pow[s - 1] / (s - 1) + x_pow[s] / 2 + e[s])
    return out


def _coefficients(order: int) -> list:
    """C_0..C_order as Decimals at the precision of the current decimal
    context, from f_k = zeta^(k)(3/2)/k! of _zeta_taylor and the values g
    of _gamma_values."""
    from decimal import Decimal  # see compute_coefficients_exact

    f = _zeta_taylor(order, _EM_TERMS)
    g = _gamma_values(order, _EM_TERMS)
    # series coefficients G of ln(sum f_k u^k): n G_n = n f_n/f_0 - sum j G_j f_(n-j)/f_0
    big_g = [f[0].ln()]
    for n in range(1, order + 1):
        acc = n * f[n] / f[0]
        for j in range(1, n):
            acc -= j * big_g[j] * f[n - j] / f[0]
        big_g.append(acc / n)
    ln_pi = Decimal(_PI).ln()
    three_quarters = Decimal("0.75")
    # ln(3/2) + ln(1/2) = ln(3/4)
    out = [three_quarters.ln() + g[0] - three_quarters * ln_pi + big_g[0]]
    for n in range(1, order + 1):
        # the n-th derivative of ln Gamma(x/2) at 3/2 is psi^(n-1)(3/4)/2^n,
        # and psi^(m)(x) = (-1)^(m+1) m! zeta(m+1, x) for m >= 1
        gamma_part = g[1] if n == 1 else (-1) ** n * math.factorial(n - 1) * g[n]
        # (-1)^(n-1) (n-1)! (2^n + (2/3)^n), from ln x + ln(x - 1)
        rational = Decimal((-1) ** (n - 1) * math.factorial(n - 1) * 2**n * (3**n + 1)) / 3**n
        val = math.factorial(n) * big_g[n] + rational + gamma_part / 2**n
        if n == 1:
            val -= ln_pi / 2
        out.append(val)
    return out


def compute_coefficients_exact(order: int) -> tuple:
    """Reference route: C_0..C_order from _coefficients at _DPS digits (no
    primes).  Used as the cross-check oracle for the prime route and for
    the deep-cancellation sums the prime route cannot support."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    # decimal is imported in the functions of this route, so that it loads
    # after the prime sums: loaded first it would add 0.4 MB to the 34 MB
    # peak RSS of `taylor --order 20 --prime-limit 9999944`
    from decimal import Context, localcontext

    with localcontext(Context(prec=_DPS)):
        return tuple(float(v) for v in _coefficients(order))


def _rearranged(c, k: int, half, fsum, factorial) -> Rearranged:
    """Partial sums through c[k] of the series pushed from 3/2 to 1 (step
    `half` = -1/2): value, first and second derivative of ln|xi| at 1.
    Each is summed in fixed order by `fsum`: exactly by math.fsum for
    floats, at the context's precision by sum for Decimals."""
    value = fsum(c[n] * half**n / factorial(n) for n in range(k + 1))
    slope = fsum(c[n] * half ** (n - 1) / factorial(n - 1) for n in range(1, k + 1))
    curvature = fsum(
        c[n] * half ** (n - 2) / (2 * factorial(n - 2)) for n in range(2, k + 1)
    )
    return Rearranged(value, slope, curvature)


def rearranged_at_one(c, k_terms: int) -> Rearranged:
    """Rearranged sums at x = 1 of the coefficients c[0..k_terms].  The
    value is a near-total cancellation."""
    if not (0 <= k_terms < len(c)):
        raise DomainError(f"k_terms must lie in [0, {len(c) - 1}], got {k_terms!r}")
    return _rearranged(c, k_terms, -0.5, math.fsum, math.factorial)


def rearranged_at_one_exact(order: int) -> Rearranged:
    """Rearranged sums at x = 1 carried out entirely at _DPS digits, then
    rounded once at the end.  The value is a cancellation of
    coefficient-sized terms down past 1e-20, which double-rounded
    coefficients cannot resolve (their rounding alone leaves a floor of a
    few 1e-18); this route exists for exactly that quantity."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    from decimal import Context, Decimal, localcontext  # see compute_coefficients_exact

    with localcontext(Context(prec=_DPS)):
        r = _rearranged(_coefficients(order), order, Decimal("-0.5"), sum, math.factorial)
        return Rearranged._make(float(v) for v in r)
