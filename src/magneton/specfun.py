"""Foundation special functions: the zeta family, log-gamma and polygamma,
the completed xi function, and prime machinery.

Everything is self-contained double precision.  zeta is an Euler-Maclaurin
sum whose truncation length grows with |Im s|.  The supported window is
|Im s| <= 200, -3 <= Re s <= 1e20.  Against mpmath, |zeta| is good to about
2e-12 of max(1, |zeta|) for Re s >= -1 (1.5e-12 at Re s = -1, 1.3e-13 on
the half line) and 6e-9 at Re s = -3; further left the sum cancels
catastrophically.  On the right zeta is exactly 1.0 long before the edge.
The entire function (s-1)*zeta(s) is exposed separately because every
closed form downstream needs it finite and positive through s = 1.

A real s, float or complex with a zero imaginary part, takes the float
kernel `_reg_real`, and a float gets a float back (log_gamma: x > 0, xi:
x > -2); a float in the window gets there without a complex round trip.
Every other s of the zeta family takes the numpy kernel `_reg_lines`,
which also serves the quadrature lines and the zero search of `quad`.
Complex quotients are numpy's, so numpy loads for complex arguments and
`sieve_primes` only; real arguments load none.  `_reg_real` keeps the bits
of the real part of the complex evaluation: numpy's pairwise order for its
29-term sums and a multiply by the reciprocal where numpy divides.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065
LN_PI = math.log(math.pi)
IM_WINDOW = 200.0
RE_MIN = -3.0
RE_MAX = 1e20  # zeta is exactly 1.0 long before
# Limit of sieve_primes, in flags of one byte per odd number: 2^29 flags
# take the primes up to 2^30.  The sieve holds one segment and the primes,
# about 16/ln(limit) of the budget in int64 values (0.77 of it at 2^30).
_SIEVE_BUDGET = 2**29
_SIEVE_SEGMENT = 1 << 19  # flags per segment of sieve_primes, 512 kB
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
_TWO_K = tuple(float(2 * (k + 1)) for k in range(len(_BERN)))  # digamma's B_2k / (2k y^2k)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

_MAX_N = max(30, math.ceil(1.3 * IM_WINDOW)) + 1
_LOGN = tuple(math.log(n) for n in range(1, _MAX_N + 1))
_LOGN29, _LN30 = _LOGN[:29], _LOGN[29]  # ln n of the base sum and ln N for every real s
# Complex values per n^-s block of `_reg_lines`, 64 kB
_TERMS = 4096


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


def _cdiv(a, b):
    """a / b rounded as numpy divides complex128: numpy itself for a complex
    b, with no warning where b is 0 or the quotient overflows; a * (1.0 / b)
    for a float b, its real part, which Python's `/` can miss by a bit."""
    if isinstance(b, complex):
        import numpy as np

        with np.errstate(all="ignore"):
            return complex(np.complex128(a) / b)
    return a * (1.0 / b) if b else a * math.inf  # numpy's a / +0.0 of b == 0


def _sum29(a: list) -> float:
    """numpy's pairwise `.sum()` of 29 terms: four interleaved chains of
    seven, then the last term."""
    return ((a[0] + a[4] + a[8] + a[12] + a[16] + a[20] + a[24])
            + (a[1] + a[5] + a[9] + a[13] + a[17] + a[21] + a[25])) + (
        (a[2] + a[6] + a[10] + a[14] + a[18] + a[22] + a[26])
        + (a[3] + a[7] + a[11] + a[15] + a[19] + a[23] + a[27])) + a[28]


def _reg_real(x: float, want_deriv: bool):
    """Euler-Maclaurin evaluation of reg(s) = (s-1)*zeta(s) and optionally
    its s-derivative at real s = x, written out in float arithmetic.  reg is
    entire and equals 1 at s = 1 exactly.  On the real axis N = 30, and
    every rounding is that of the real part of the complex steps in numpy;
    a test compares the bits."""
    mx, exp = -x, math.exp
    pw = [exp(mx * v) for v in _LOGN29]  # n^-x, n = 1 .. 29
    n_pow_ms = exp(mx * _LN30)  # 30^-x
    # corrections B_2k/(2k)! * (x)_(2k-1) * 30^(1-2k-x), k = 1..7
    b1, b2, b3, b4, b5, b6, b7 = _B_OVER_FACT
    f1, f2, f3, f4, f5, f6 = x + 1.0, x + 2.0, x + 3.0, x + 4.0, x + 5.0, x + 6.0
    f7, f8, f9, f10, f11, f12 = x + 7.0, x + 8.0, x + 9.0, x + 10.0, x + 11.0, x + 12.0
    p1, a1 = x, n_pow_ms / 30.0
    p2, a2 = p1 * f1 * f2, a1 / 900.0
    p3, a3 = p2 * f3 * f4, a2 / 900.0
    p4, a4 = p3 * f5 * f6, a3 / 900.0
    p5, a5 = p4 * f7 * f8, a4 / 900.0
    p6, a6 = p5 * f9 * f10, a5 / 900.0
    p7, a7 = p6 * f11 * f12, a6 / 900.0
    corr = (b1 * p1 * a1 + b2 * p2 * a2 + b3 * p3 * a3 + b4 * p4 * a4
            + b5 * p5 * a5 + b6 * p6 * a6 + b7 * p7 * a7)
    inner = _sum29(pw) + n_pow_ms / 2.0 + corr
    n_pow_1ms = exp((1.0 - x) * _LN30)
    reg = (x - 1.0) * inner + n_pow_1ms
    if not want_deriv:
        return reg, None

    # d/dx (x)_(2k-1), grown by the product rule one factor at a time
    d2 = (f1 + p1) * f2 + p1 * f1
    d3 = (d2 * f3 + p2) * f4 + p2 * f3
    d4 = (d3 * f5 + p3) * f6 + p3 * f5
    d5 = (d4 * f7 + p4) * f8 + p4 * f7
    d6 = (d5 * f9 + p5) * f10 + p5 * f9
    d7 = (d6 * f11 + p6) * f12 + p6 * f11
    ln = _LN30
    dcorr = (b1 * a1 * (1.0 - p1 * ln) + b2 * a2 * (d2 - p2 * ln) + b3 * a3 * (d3 - p3 * ln)
             + b4 * a4 * (d4 - p4 * ln) + b5 * a5 * (d5 - p5 * ln) + b6 * a6 * (d6 - p6 * ln)
             + b7 * a7 * (d7 - p7 * ln))
    dinner = -_sum29(list(map(operator.mul, _LOGN29, pw))) - ln * n_pow_ms / 2.0 + dcorr
    return reg, inner + (x - 1.0) * dinner - ln * n_pow_1ms


def _n_trunc(t):
    """The Euler-Maclaurin truncation N = max(30, ceil(1.3|t|)) of each t of
    an array."""
    import numpy as np

    return np.maximum(30.0, np.ceil(1.3 * np.abs(t))).astype(np.intp)


def _n_pow_it(t, logn):
    """n^-it = exp(-it ln n) for the ln n of the array `logn`, one row per t
    of an array."""
    import numpy as np

    return np.exp((-t[:, None] * logn) * 1j)


def _reg_lines(rhos: list[float], t_top: float, want_deriv: bool = False):
    """reg(s) = (s-1)*zeta(s) on the lines Re s = rhos[i] at once, as
    `kern(t, lines)`: the (lines, t) arrays (s, reg, dreg) for the indices i
    in the array `lines` and a 1-D array of abscissae |t| <= t_top, with
    dreg the s-derivative of reg if `want_deriv`, else None.

    The Euler-Maclaurin sum of `_reg_real` with the truncation N =
    max(30, ceil(1.3|t|)) in numpy complex arithmetic.  A base-sum term
    n^-s is n^-rho, from libm's exp once per line and n, times n^-it, built
    by each call once per abscissa and n and shared by every line of the
    call.  glibc's cexp forms exp(x) cos y and exp(x) sin y, so the product
    has the bits of np.exp(-s ln n).  Each row sums its own N - 1 terms in
    numpy's pairwise order, so a value does not depend on the lines and
    abscissae around it."""
    import numpy as np

    logn, rho = np.array(_LOGN), np.array(rhos)
    # numpy's SIMD exp rounds some n^-rho differently from libm
    m = int(_n_trunc(np.array(t_top))) - 1
    n_pow_rho = np.array([[math.exp(-r * ln) for ln in _LOGN[:m]] for r in rhos], dtype=complex)

    def kern(t, lines):
        n_trunc = _n_trunc(t)
        ln_big = logn[n_trunc - 1]
        s = rho[lines, None] + 1j * t
        base = np.empty_like(s)
        dbase = np.empty_like(s) if want_deriv else None
        # one n^-it table per run of equal N, dropped after its run
        cuts = np.flatnonzero(np.diff(n_trunc, prepend=0, append=0)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            terms = n_trunc[a] - 1
            n_it = _n_pow_it(t[a:b], logn[:terms])
            step = max(1, _TERMS // n_it.size)
            for j in range(0, lines.size, step):
                n_pow_s = n_pow_rho[lines[j : j + step], None, :terms] * n_it
                base[j : j + step, a:b] = n_pow_s.sum(axis=-1)
                if want_deriv:
                    dbase[j : j + step, a:b] = -(n_pow_s * logn[:terms]).sum(axis=-1)
                del n_pow_s  # so that the next block is the only one held
            del n_it
        # corrections: sum_k B_2k/(2k)! * (s)_(2k-1) * N^(1-2k-s), k = 1..7
        n_pow_ms = np.exp(-s * ln_big)  # N^-s
        corr = np.zeros_like(s)
        dcorr = np.zeros_like(s) if want_deriv else None
        poch, dpoch = s, 1.0  # (s)_(2k-1) and its derivative, grown two factors a round
        npow = n_pow_ms / n_trunc  # N^(-s-1)
        for k, coef in enumerate(_B_OVER_FACT):
            if k:
                for f in (s + (2 * k - 1), s + 2 * k):
                    if want_deriv:
                        dpoch = dpoch * f + poch
                    poch = poch * f
                npow = npow / (n_trunc * n_trunc)
            corr += coef * poch * npow
            if want_deriv:
                dcorr += coef * npow * (dpoch - poch * ln_big)
        inner = base + n_pow_ms / 2.0 + corr
        n_pow_1ms = np.exp((1.0 - s) * ln_big)
        reg = (s - 1.0) * inner + n_pow_1ms
        if not want_deriv:
            return s, reg, None
        dinner = dbase - ln_big * n_pow_ms / 2.0 + dcorr
        return s, reg, inner + (s - 1.0) * dinner - ln_big * n_pow_1ms

    return kern


def _kernel(s, want_deriv: bool):
    """(s, reg, dreg) for s in the window: floats from `_reg_real` for a
    real s; complex values for a complex s, from `_reg_real` on the axis
    and from `_reg_lines` off it."""
    if type(s) is float and RE_MIN <= s <= RE_MAX:  # no round trip through complex
        return (s, *_reg_real(s, want_deriv))
    z = _in_window(s)
    if z.imag != 0.0:
        import numpy as np

        kern = _reg_lines([z.real], abs(z.imag), want_deriv)
        _, reg, dreg = kern(np.array([z.imag]), np.zeros(1, dtype=np.intp))
        return z, complex(reg[0, 0]), dreg if dreg is None else complex(dreg[0, 0])
    reg, dreg = _reg_real(z.real, want_deriv)
    if not isinstance(s, complex):
        return z.real, reg, dreg
    return z, complex(reg), dreg if dreg is None else complex(dreg)


def zeta_reg(s):
    """(s-1)*zeta(s), entire, equal to 1 at s = 1."""
    return _kernel(s, False)[1]


def zeta(s):
    z, reg, _ = _kernel(s, False)
    if z == 1.0:
        raise DomainError("zeta has its pole at s = 1")
    return _cdiv(reg, z - 1.0)


def zeta_logderiv(s):
    """zeta'(s)/zeta(s), via termwise differentiation of the summation
    (no finite differences)."""
    z, reg, dreg = _kernel(s, True)
    if z == 1.0:
        raise DomainError("zeta'/zeta has a pole at s = 1")
    return _cdiv(dreg, reg) - 1.0 / (z - 1.0)


def reg_logderiv(s):
    """d/ds ln((s-1)*zeta(s)); finite through s = 1, value gamma there."""
    _, reg, dreg = _kernel(s, True)
    return _cdiv(dreg, reg)


def _log_gamma_real(x: float) -> float:
    """log_gamma at a float x > 0 with the bits of the real part of the
    complex path: unit shifts to x >= 9, then the Stirling series."""
    w, shift = x, 0.0
    while w < 9.0:
        # cmath.log(w).real as CPython computes it: log1p near |w| = 1 and
        # subnormals scaled up by 2^53 first, both within the first two steps
        shift += (math.log(w) if w > 1.73
                  else math.log1p((w - 1.0) * (w + 1.0) + 0.0) / 2.0 if 0.71 <= w
                  else math.log(w) if w >= sys.float_info.min
                  else math.log(math.ldexp(w, 53)) - 53 * math.log(2.0))
        w += 1.0
    c1, c2, c3, c4, c5, c6, c7 = _STIRLING  # powers grown as the complex loop grows them
    w2 = w * w
    return ((w - 0.5) * math.log(w) - w + _HALF_LN_2PI + c1 / w + c2 / (p := w * w2)
            + c3 / (p := p * w2) + c4 / (p := p * w2) + c5 / (p := p * w2)
            + c6 / (p := p * w2) + c7 / (p * w2)) - shift


def log_gamma(s):
    """Log-gamma by Stirling series after an argument shift to Re >= 9.
    Real and finite on the positive real axis, where a real s gets a float;
    continuous along vertical lines off the real axis; poles at the
    nonpositive integers raise, and so do Re s below -1e4 and, off the
    positive axis, Re s above RE_MAX."""
    z = s if type(s) is float and 0.0 < s < math.inf else _as_complex(s)
    if z.imag == 0.0 and z.real > 0.0:
        out = _log_gamma_real(z.real)
        return complex(out, 0.0) if isinstance(s, complex) else out
    if z.imag == 0.0 and z.real == math.floor(z.real):
        raise DomainError(f"log_gamma pole at {z.real:g}")
    if z.real < _LOG_GAMMA_RE_MIN:
        raise DomainError(f"log_gamma needs Re s >= {_LOG_GAMMA_RE_MIN:g}, got {z.real:g}")
    if z.real > RE_MAX:  # the Stirling powers z^(2k-1) overflow from about 1e26 on
        raise DomainError(
            f"log_gamma needs Re s <= {RE_MAX:g} off the positive axis, got {z.real:g}"
        )
    shift = 0j
    w = z
    while w.real < 9.0:
        shift += cmath.log(w)
        w += 1.0
    out = (w - 0.5) * cmath.log(w) - w + _HALF_LN_2PI
    wpow, w2 = w, w * w
    for coef in _STIRLING:
        out += coef / wpow
        wpow *= w2
    return out - shift


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
    for b, two_k in zip(_BERN, _TWO_K):
        out -= b / (two_k * ypow)
        ypow *= y2
    return out + acc


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta for finite s > 1 and a > 0, same Euler-Maclaurin scheme as zeta."""
    s = float(s)
    a = float(a)
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"hurwitz_zeta needs finite arguments, got s = {s!r}, a = {a!r}")
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
    """psi^(m)(x) for finite x > 0; m >= 1 goes through the Hurwitz zeta identity
    psi^(m)(x) = (-1)^(m+1) m! zeta_H(m+1, x)."""
    if not hasattr(m, "__index__") or m < 0:  # int, bool or numpy integer
        raise DomainError(f"polygamma order must be an integer >= 0, got {m!r}")
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"polygamma needs x > 0, got {x!r}")
    if m == 0:
        return digamma(x)
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * math.factorial(m) * hurwitz_zeta(m + 1.0, float(x))


def xi(s):
    """Completed zeta pi^(-s/2) * s*(s-1) * Gamma(s/2) * zeta(s), in the
    normalization with xi(0) = xi(1) = 1.  Computed through the entire
    product 2 * pi^(-s/2) * Gamma(s/2 + 1) * (s-1)*zeta(s), so the removable
    points s = 0, 1 need no special casing.  The trivial zero s = -2 hits
    the Gamma pole of this factorization and raises DomainError; the others
    lie outside the window.  Values beyond the double range (real s from
    about 433 on) raise OverflowError, one message whether the product or
    its exponential factor overflows.  A real s > -2 gets a float."""
    fast = type(s) is float and -2.0 < s <= RE_MAX  # float arithmetic, same bits
    z = s if fast else _in_window(s)
    w = z.real if z.imag == 0.0 and z.real > -2.0 else z
    try:
        # cmath.exp for a float too: past ln(DBL_MAX) - 1 it forms exp(x - 1) * e
        e = cmath.exp(-w / 2.0 * LN_PI + log_gamma(w / 2.0 + 1.0))
        out = 2.0 * (e.real if fast else e) * zeta_reg(w)
    except OverflowError:  # cmath.exp past the double range
        out = math.inf
    if not cmath.isfinite(out):
        raise OverflowError(f"|xi({w:g})| exceeds the double range")
    return out.real if w is not z and not isinstance(s, complex) else out


def sieve_primes(limit: int):
    """The primes <= limit, ascending, as a numpy int64 array, by a
    segmented Eratosthenes sieve over the odd numbers (Bays and Hudson,
    BIT 17, 1977): the odd primes up to sqrt(limit) first, then one
    segment of _SIEVE_SEGMENT flags at a time.  Each segment's primes go
    into one array preallocated at Dusart's bound pi(x) <= x/ln x
    (1 + 1.2762/ln x) for x > 1 (Math. Comp. 68, 1999), which is shrunk to
    the count at the end.  A request whose (limit + 1) // 2 odd-number
    flags exceed _SIEVE_BUDGET raises instead of thrashing."""
    if not hasattr(limit, "__index__") or limit < 2:
        raise DomainError(f"sieve limit must be an integer >= 2, got {limit!r}")
    if (limit + 1) // 2 > _SIEVE_BUDGET:
        raise DomainError(
            f"sieve to {limit} needs ~{(limit + 1) // 2} bytes, budget is {_SIEVE_BUDGET}"
        )
    import numpy as np

    limit = int(limit)
    size = (limit + 1) // 2  # flag i stands for 2i + 1, except flag 0, which stands for 2
    root = math.isqrt(limit)
    base = np.ones((root + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(root) + 1) // 2):
        if base[i]:
            base[2 * i * (i + 1) :: 2 * i + 1] = False  # (2i + 1)^2 on
    odd = (2 * np.flatnonzero(base[1:]) + 3).tolist()  # odd primes <= sqrt(limit)
    ln_x = math.log(limit)
    primes = np.empty(int(limit / ln_x * (1.0 + 1.2762 / ln_x)), dtype=np.int64)
    count = 0
    segment = np.empty(min(size, _SIEVE_SEGMENT), dtype=bool)
    for lo in range(0, size, _SIEVE_SEGMENT):
        flags = segment[: size - lo]
        flags[:] = True
        for p in odd:
            start = p * p // 2 - lo  # the flag of p^2
            if start >= len(flags):
                break
            flags[max(start, start % p) :: p] = False  # p^2 on, or p's first multiple here
        found = np.flatnonzero(flags)
        found *= 2
        found += 2 * lo + 1
        primes[count : count + len(found)] = found
        count += len(found)
        del found  # freed before the next segment's is made
    primes[0] = 2
    primes.resize(count, refcheck=False)  # no view of primes is alive
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
