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
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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
_LOGN = np.log(np.arange(1, _MAX_N + 1, dtype=np.float64))


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


def _reg_em(s: complex, want_deriv: bool):
    """Euler-Maclaurin evaluation of reg(s) = (s-1)*zeta(s) and optionally
    its s-derivative.  reg is entire and equals 1 at s = 1 exactly."""
    n_trunc = max(30, math.ceil(1.3 * abs(s.imag)))
    logn = _LOGN[: n_trunc - 1]          # n = 1 .. N-1
    pw = np.exp(-s * logn)               # n^-s
    base = pw.sum()

    ln_big = _LOGN[n_trunc - 1]
    n_pow_ms = cmath.exp(-s * ln_big)    # N^-s

    # corrections: sum_k B_2k/(2k)! * (s)_(2k-1) * N^(1-2k-s), k = 1..7
    corr = 0j
    dcorr = 0j
    poch = s                             # (s)_(2k-1), grown two factors a round
    dpoch = 1.0 + 0j
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
    n_pow_1ms = cmath.exp((1.0 - s) * ln_big)
    reg = (s - 1.0) * inner + n_pow_1ms
    if not want_deriv:
        return reg, None

    dbase = -(logn * pw).sum()
    dinner = dbase - ln_big * n_pow_ms / 2.0 + dcorr
    dreg = inner + (s - 1.0) * dinner - ln_big * n_pow_1ms
    return reg, dreg


# Rows of the n^-s table built per array pass in log_abs_zeta_line; caps
# the temporary at 64 x 260 complex values (about 270 kB).
_LINE_CHUNK = 64


def _cmul(ar, ai, br, bi):
    # complex product rounded as Python's complex type rounds it: four
    # products and two sums (numpy's complex array product may fuse them)
    return ar * br - ai * bi, ar * bi + ai * br


def log_abs_zeta_line(rho: float, t) -> np.ndarray:
    """ln|zeta(rho + it)| at every t of a 1-D array.

    The Euler-Maclaurin sum of `_reg_em` (same truncation max(30,
    ceil(1.3|t|)), same `_LOGN`, same `_B_OVER_FACT` corrections) run as
    array passes.  Each complex step is spelled out in real arithmetic in
    the order and rounding of the scalar path, and the n^-s terms of one
    truncation length are summed as whole rows, so every value equals
    `log_abs_zeta(complex(rho, t))` to the last bit.  Errors and the zero
    signal are the scalar ones: DomainError at the pole s = 1 and outside
    the window, and -inf where |zeta| < _ZERO_FLOOR."""
    rho = float(rho)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise DomainError(f"t must be a 1-D array, got shape {t.shape}")
    if not (math.isfinite(rho) and np.isfinite(t).all()):
        raise DomainError(f"non-finite argument on the line rho = {rho!r}")
    if not t.size:
        return np.empty(0)
    _in_window(complex(rho, np.abs(t).max()))
    if rho == 1.0 and (t == 0.0).any():
        raise DomainError("zeta has its pole at s = 1")

    n_trunc = np.maximum(30.0, np.ceil(1.3 * np.abs(t))).astype(np.intp)
    s = np.empty(t.shape, dtype=np.complex128)
    s.real = rho
    s.imag = t

    # base sum over n = 1 .. N-1, for rows of equal N at most _LINE_CHUNK at
    # a time: numpy sums each row of a 2-D array exactly as it sums the same
    # terms in 1-D (zero-padded rows of mixed N, or reduceat, would not)
    order = np.argsort(n_trunc, kind="stable")
    n_sorted = n_trunc[order]
    starts = np.flatnonzero(np.diff(n_sorted, prepend=0)).tolist()
    minus_s = -s
    sums = []
    for g0, g1 in zip(starts, [*starts[1:], t.size]):
        logn = _LOGN[: n_sorted[g0] - 1]
        for c0 in range(g0, g1, _LINE_CHUNK):
            rows = order[c0 : min(c0 + _LINE_CHUNK, g1)]
            sums.append(np.exp(minus_s[rows, None] * logn).sum(axis=1))
    base = np.empty_like(s)
    base[order] = np.concatenate(sums)

    # N^-s and N^(1-s) through cmath.exp, as the scalar path computes them
    n_big = n_trunc.astype(np.float64)
    ln_big = _LOGN[n_trunc - 1]
    arg = np.empty_like(s)
    arg.imag = -t * ln_big
    arg.real = -rho * ln_big
    n_pow_ms = np.array(list(map(cmath.exp, arg.tolist())), dtype=np.complex128)
    arg.real = (1.0 - rho) * ln_big
    n_pow_1ms = np.array(list(map(cmath.exp, arg.tolist())), dtype=np.complex128)

    # corrections, k = 1..7, accumulated in the scalar loop's order
    corr_r = np.zeros_like(t)
    corr_i = np.zeros_like(t)
    poch_r = np.full_like(t, rho)
    poch_i = t
    npow_r = n_pow_ms.real / n_big
    npow_i = n_pow_ms.imag / n_big
    n_sq = n_big * n_big
    for k, coef in enumerate(_B_OVER_FACT):
        if k:
            for j in (2 * k - 1, 2 * k):
                poch_r, poch_i = _cmul(poch_r, poch_i, rho + j, t)
            npow_r = npow_r / n_sq
            npow_i = npow_i / n_sq
        term_r, term_i = _cmul(coef * poch_r, coef * poch_i, npow_r, npow_i)
        corr_r = corr_r + term_r
        corr_i = corr_i + term_i

    inner_r = base.real + n_pow_ms.real / 2.0 + corr_r
    inner_i = base.imag + n_pow_ms.imag / 2.0 + corr_i
    reg_r, reg_i = _cmul(rho - 1.0, t, inner_r, inner_i)
    reg = np.empty_like(s)
    reg.real = reg_r + n_pow_1ms.real
    reg.imag = reg_i + n_pow_1ms.imag
    # numpy's complex division and hypot are the ops of the scalar
    # np.complex128 quotient and abs(); math.log is the scalar log (np.abs
    # and np.log of arrays differ from them in the last bit)
    zeta_val = reg / (s - 1.0)
    az = np.hypot(zeta_val.real, zeta_val.imag)
    zero_hit = az < _ZERO_FLOOR
    az[zero_hit] = 1.0
    out = np.array(list(map(math.log, az.tolist())), dtype=np.float64)
    out[zero_hit] = -math.inf
    return out


def zeta_reg(s) -> complex:
    """(s-1)*zeta(s), entire, equal to 1 at s = 1."""
    return _reg_em(_in_window(s), False)[0]


def zeta(s) -> complex:
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta has its pole at s = 1")
    reg, _ = _reg_em(z, False)
    return reg / (z - 1.0)


def zeta_logderiv(s) -> complex:
    """zeta'(s)/zeta(s), via termwise differentiation of the summation
    (no finite differences)."""
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta'/zeta has a pole at s = 1")
    reg, dreg = _reg_em(z, True)
    return dreg / reg - 1.0 / (z - 1.0)


def reg_logderiv(s) -> complex:
    """d/ds ln((s-1)*zeta(s)); finite through s = 1, value gamma there."""
    reg, dreg = _reg_em(_in_window(s), True)
    return dreg / reg


def log_abs_zeta(s) -> float:
    """ln|zeta(s)|.  A modulus below _ZERO_FLOOR signals a zero hit and maps
    to -inf rather than raising; the quadrature layer treats that as a spike."""
    z = _in_window(s)
    if z == 1.0:
        raise DomainError("zeta has its pole at s = 1")
    reg, _ = _reg_em(z, False)
    az = abs(reg / (z - 1.0))
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
    if not isinstance(m, (int, np.integer)) or m < 0:
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
    # a Python complex, so an overflowing product is inf with no numpy warning
    reg = complex(zeta_reg(z))
    lg = log_gamma(z / 2.0 + 1.0)
    out = 2.0 * cmath.exp(-z / 2.0 * LN_PI + lg) * reg
    if not cmath.isfinite(out):
        raise OverflowError(f"|xi({z:g})| exceeds the double range")
    return out


def sieve_primes(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, by the Eratosthenes sieve.  The flag
    array costs about `limit` bytes; a request beyond _SIEVE_BUDGET bytes
    raises instead of thrashing."""
    if not isinstance(limit, (int, np.integer)) or limit < 2:
        raise DomainError(f"sieve limit must be an integer >= 2, got {limit!r}")
    if limit + 1 > _SIEVE_BUDGET:
        raise DomainError(
            f"sieve to {limit} needs ~{limit + 1} bytes, budget is {_SIEVE_BUDGET}"
        )
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(int(limit)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


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
