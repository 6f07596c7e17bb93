"""Foundation special functions: the zeta family, log-gamma and polygamma,
the completed xi function, and prime machinery.

Everything is self-contained double precision.  zeta is an Euler-Maclaurin
sum whose truncation length grows with |Im s|.  The supported window is
|Im s| <= 200, -3 <= Re s <= 1e20: ln|zeta| is good to about 1e-12 for
Re s >= -1 and 1e-8 at Re s = -3; further left the sum cancels
catastrophically.  On the right ln|zeta| is exactly 0.0 long before the
edge, and from Re s of about 5e23 on the sums overflow to NaN.
The entire function (s-1)*zeta(s) is exposed separately because every
closed form downstream needs it finite and positive through s = 1.
Only `sieve_primes` imports numpy.  The scalar path keeps the bits of the
numpy evaluation it replaced: `_pairwise_sum` adds in numpy's order and
`_cdiv` divides as numpy does.
"""

from __future__ import annotations

import cmath
import math
from numbers import Integral

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065
LN_PI = math.log(math.pi)
IM_WINDOW = 200.0
RE_MIN = -3.0
RE_MAX = 1e20  # ln|zeta| is exactly 0.0 long before; far beyond, the sums go NaN
_ZERO_FLOOR = 1e-300  # a |zeta| below this is a zero hit
_SIEVE_BUDGET = 2**30  # bytes of sieve flags one request may allocate
# log_gamma shifts one unit at a time up to Re >= 9: about 2 ms from here on
# a 2-vCPU Xeon, linear in |Re s|, and past 2^53 a unit step no longer moves
# the argument at all.  No caller in the package goes below Re s = -1/2.
_LOG_GAMMA_RE_MIN = -1e4

# Bernoulli numbers B_2..B_14; seven correction terms bound the
# Euler-Maclaurin remainder below 1e-12 everywhere in the window.
_BERN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_B_OVER_FACT = tuple(b / math.factorial(2 * (k + 1)) for k, b in enumerate(_BERN))
# Stirling series coefficients B_2k / (2k * (2k - 1))
_STIRLING = tuple(b / ((2 * (k + 1)) * (2 * (k + 1) - 1)) for k, b in enumerate(_BERN))

_MAX_N = max(30, math.ceil(1.3 * IM_WINDOW)) + 1
_LOGN = tuple(math.log(n) for n in range(1, _MAX_N + 1))


def _as_complex(s) -> complex:
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    return z


def _in_window(s) -> complex:
    z = _as_complex(s)
    if z.real < RE_MIN:
        raise DomainError(
            f"Re s = {z.real:g} lies left of the supported window Re s >= {RE_MIN:g}"
        )
    if z.real > RE_MAX:
        raise DomainError(
            f"Re s = {z.real:g} lies right of the supported window Re s <= {RE_MAX:g}"
        )
    if abs(z.imag) > IM_WINDOW:
        raise DomainError(
            f"|Im s| = {abs(z.imag):g} exceeds the supported window {IM_WINDOW:g}"
        )
    return z


def _pairwise_sum(a: list):
    """Sum of the list a, added in the order of numpy's `.sum()` of a
    complex128 array: a run of more than 64 is halved, the cut rounded
    down to a multiple of 4; a shorter one goes through four interleaved
    accumulators and a sequential tail.  Every sum here has at least 29
    terms, so numpy's branch below 4 is never needed."""
    n = len(a)
    if n > 64:
        mid = (n - n % 8) // 2
        return _pairwise_sum(a[:mid]) + _pairwise_sum(a[mid:])
    top = n - n % 4
    r0, r1, r2, r3 = a[:4]
    for i in range(4, top, 4):
        r0 += a[i]
        r1 += a[i + 1]
        r2 += a[i + 2]
        r3 += a[i + 3]
    out = (r0 + r1) + (r2 + r3)
    for v in a[top:]:
        out += v
    return out


def _cdiv(a: complex, b: complex) -> complex:
    """a / b for a finite b, rounded as numpy divides complex128: Smith's
    method with one reciprocal.  Python's `/` divides twice and can differ
    in the last bit."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        if br == 0.0:  # b == 0: numpy's inf or nan, without its warning
            return complex(*(x * math.inf if x else math.nan for x in (ar, ai)))
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def _reg_em(s: complex, want_deriv: bool):
    """Euler-Maclaurin evaluation of reg(s) = (s-1)*zeta(s) and optionally
    its s-derivative.  reg is entire and equals 1 at s = 1 exactly.  On the
    real axis the same steps run in float arithmetic, which rounds the real
    parts as the complex steps do in about half the time."""
    s, exp = (s.real, math.exp) if s.imag == 0.0 else (s, cmath.exp)
    n_trunc = max(30, math.ceil(1.3 * abs(s.imag)))
    logn = _LOGN[: n_trunc - 1]          # n = 1 .. N-1
    pw = [exp(-s * v) for v in logn]     # n^-s
    base = _pairwise_sum(pw)

    ln_big = _LOGN[n_trunc - 1]
    n_pow_ms = exp(-s * ln_big)          # N^-s

    # corrections: sum_k B_2k/(2k)! * (s)_(2k-1) * N^(1-2k-s), k = 1..7
    corr = dcorr = 0.0
    poch = s                             # (s)_(2k-1), grown two factors a round
    dpoch = 1.0
    npow = n_pow_ms / n_trunc            # N^(-s-1)
    for k, coef in enumerate(_B_OVER_FACT):
        if k:
            for j in (2 * k - 1, 2 * k):
                f = s + j
                dpoch = dpoch * f + poch
                poch = poch * f
            npow /= n_trunc * n_trunc
        corr += coef * poch * npow
        if want_deriv:
            dcorr += coef * npow * (dpoch - poch * ln_big)

    inner = base + n_pow_ms / 2.0 + corr
    n_pow_1ms = exp((1.0 - s) * ln_big)
    reg = (s - 1.0) * inner + n_pow_1ms
    if not want_deriv:
        return complex(reg), None

    dbase = -_pairwise_sum([v * p for v, p in zip(logn, pw)])
    dinner = dbase - ln_big * n_pow_ms / 2.0 + dcorr
    dreg = inner + (s - 1.0) * dinner - ln_big * n_pow_1ms
    return complex(reg), complex(dreg)


def zeta_reg(s) -> complex:
    """(s-1)*zeta(s), entire, equal to 1 at s = 1."""
    return _reg_em(_in_window(s), False)[0]


def zeta(s) -> complex:
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta has its pole at s = 1")
    reg, _ = _reg_em(z, False)
    return _cdiv(reg, z - 1.0)


def zeta_logderiv(s) -> complex:
    """zeta'(s)/zeta(s), via termwise differentiation of the summation
    (no finite differences)."""
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta'/zeta has a pole at s = 1")
    reg, dreg = _reg_em(z, True)
    return _cdiv(dreg, reg) - 1.0 / (z - 1.0)


def reg_logderiv(s) -> complex:
    """d/ds ln((s-1)*zeta(s)); finite through s = 1, value gamma there."""
    reg, dreg = _reg_em(_in_window(s), True)
    return _cdiv(dreg, reg)


def log_abs_zeta(s) -> float:
    """ln|zeta(s)|.  A modulus below _ZERO_FLOOR signals a zero hit and maps
    to -inf rather than raising; the quadrature layer treats that as a spike."""
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta has its pole at s = 1")
    reg, _ = _reg_em(z, False)
    az = abs(_cdiv(reg, z - 1.0))
    if az < _ZERO_FLOOR:
        return float("-inf")
    return math.log(az)


def _stirling_log_gamma(z: complex) -> complex:
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zpow = z
    z2 = z * z
    for coef in _STIRLING:
        out += coef / zpow
        zpow *= z2
    return out


def log_gamma(s) -> complex:
    """Log-gamma by Stirling series after an argument shift to Re >= 9.
    Real and finite on the positive real axis; continuous along vertical
    lines off the real axis; poles at the nonpositive integers raise, and
    so does Re s below -1e4."""
    z = _as_complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"log_gamma pole at {z.real:g}")
    if z.real < _LOG_GAMMA_RE_MIN:
        raise DomainError(f"log_gamma needs Re s >= {_LOG_GAMMA_RE_MIN:g}, got {z.real:g}")
    shift = 0j
    w = z
    while w.real < 9.0:
        shift += cmath.log(w)
        w += 1.0
    out = _stirling_log_gamma(w) - shift
    if z.imag == 0.0 and z.real > 0.0:
        return complex(out.real, 0.0)
    return out


def digamma(x: float) -> float:
    """psi(x) for real x > 0, asymptotic series after a shift to x >= 10."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"digamma needs x > 0, got {x!r}")
    acc = 0.0
    y = x
    while y < 10.0:
        acc -= 1.0 / y
        y += 1.0
    out = math.log(y) - 0.5 / y
    ypow = y * y
    y2 = y * y
    for k, b in enumerate(_BERN):
        out -= b / ((2 * (k + 1)) * ypow)
        ypow *= y2
    return out + acc


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta for real s > 1, a > 0, same Euler-Maclaurin scheme as zeta."""
    s = float(s)
    a = float(a)
    if s <= 1.0:
        raise DomainError("hurwitz_zeta implemented for s > 1 only")
    if a <= 0.0:
        raise DomainError("hurwitz_zeta needs a > 0")
    shift = max(0, math.ceil(16.0 - a))
    base = math.fsum((a + j) ** (-s) for j in range(shift))
    t = a + shift
    out = base + t ** (1.0 - s) / (s - 1.0) + 0.5 * t ** (-s)
    poch = s
    tpow = t ** (-s - 1.0)
    for k, coef in enumerate(_B_OVER_FACT):
        if k:
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            tpow /= t * t
        out += coef * poch * tpow
    return out


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) for x > 0; m >= 1 goes through the Hurwitz zeta identity
    psi^(m)(x) = (-1)^(m+1) m! zeta_H(m+1, x)."""
    if not isinstance(m, Integral) or m < 0:
        raise DomainError(f"polygamma order must be an integer >= 0, got {m!r}")
    if x <= 0.0:
        raise DomainError(f"polygamma needs x > 0, got {x!r}")
    if m == 0:
        return digamma(x)
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * math.factorial(m) * hurwitz_zeta(m + 1.0, float(x))


def xi(s) -> complex:
    """Completed zeta pi^(-s/2) * s*(s-1) * Gamma(s/2) * zeta(s), in the
    normalization with xi(0) = xi(1) = 1.  Computed through the entire
    product 2 * pi^(-s/2) * Gamma(s/2 + 1) * (s-1)*zeta(s), so the removable
    points s = 0, 1 need no special casing.  The trivial zero s = -2 hits
    the Gamma pole of this factorization and raises DomainError; the others
    lie outside the window.  Values beyond the double range (real s from
    about 433 on) raise OverflowError."""
    z = _in_window(s)
    lg = log_gamma(z / 2.0 + 1.0)
    out = 2.0 * cmath.exp(-z / 2.0 * LN_PI + lg) * zeta_reg(z)
    if not cmath.isfinite(out):
        raise OverflowError(f"|xi({z:g})| exceeds the double range")
    return out


def sieve_primes(limit: int):
    """The primes <= limit, ascending, as a numpy int64 array, by the
    Eratosthenes sieve over the odd numbers.  The flag array costs about
    limit/2 bytes; a request whose limit + 1 exceeds _SIEVE_BUDGET raises
    instead of thrashing."""
    if not isinstance(limit, Integral) or limit < 2:
        raise DomainError(f"sieve limit must be an integer >= 2, got {limit!r}")
    if limit + 1 > _SIEVE_BUDGET:
        raise DomainError(
            f"sieve to {limit} needs ~{limit + 1} bytes, budget is {_SIEVE_BUDGET}"
        )
    import numpy as np

    limit = int(limit)
    # flag i stands for 2i + 1, except flag 0, which stands for 2
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            flags[2 * i * (i + 1) :: 2 * i + 1] = False  # (2i + 1)^2 on
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def exp_integral_e1(z: float) -> float:
    """E1(z) for z > 0: power series below 1, Lentz continued fraction above."""
    if z <= 0.0:
        raise DomainError("E1 needs z > 0")
    if z <= 1.0:
        total = -EULER_GAMMA - math.log(z)
        term = 1.0
        for k in range(1, 30):
            term *= -z / k
            total -= term / k
            if abs(term) < 1e-20:
                break
        return total
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 120):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z)


def upper_gamma_int(n: int, z: float) -> float:
    """Incomplete Gamma(n, z) for integer n >= 1, closed form."""
    if n < 1:
        raise DomainError("upper_gamma_int needs n >= 1")
    s = 0.0
    t = 1.0
    for j in range(n):
        if j:
            t *= z / j
        s += t
    return math.factorial(n - 1) * math.exp(-z) * s


def prime_tail_estimate(n: int, y: float, limit: float) -> float:
    """Integral-test estimate of sum over primes p > limit of (ln p)^n p^-y,
    using the logarithmic-integral prime density dt/ln t."""
    if y <= 1.0:
        raise DomainError("prime tail diverges for exponent <= 1")
    z = (y - 1.0) * math.log(limit)
    if n == 0:
        return exp_integral_e1(z)
    return upper_gamma_int(n, z) / (y - 1.0) ** n
