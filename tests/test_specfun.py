"""Special-function layer: zeta and friends against frozen 25-digit
arbitrary-precision references and basic structural identities."""

import cmath
import math
import re
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from magneton import specfun, taylor
from magneton.errors import DomainError

GAMMA = specfun.EULER_GAMMA

# frozen with mpmath at dps=25
ZETA_REFS = {
    0.5: -1.4603545088095868,
    1.5: 2.6123753486854883,
    2.0: math.pi**2 / 6.0,
    3.0: 1.2020569031595943,
}
ZETA_COMPLEX_REFS = {
    (0.5, 199.0): 1.9587644389059075 + 4.0649415839878111j,
    (2.5, 31.0): 0.82282824219176782 - 0.072407020589158351j,
    (-0.5, 8.0): 1.3351851388182362 + 0.66605084020716475j,
}
XI_HALF = 0.99424155637662822
E1_REFS = {1.0: 0.21938393439552027, 0.3: 0.90567665167584671}
HURWITZ_3_QUARTER = 64.66386996876846
DIGAMMA_QUARTER = -4.2274535333762654
POLYGAMMA_2_15 = -0.82879664423432


def test_zeta_real_refs():
    for x, ref in ZETA_REFS.items():
        v = specfun.zeta(x)
        assert v.imag == 0.0
        assert abs(v.real - ref) < 1e-12, (x, v.real, ref)


def test_zeta_basel():
    assert abs(specfun.zeta(2.0).real - math.pi**2 / 6.0) < 1e-12


def test_zeta_complex_refs():
    for (re, im), ref in ZETA_COMPLEX_REFS.items():
        v = specfun.zeta(complex(re, im))
        assert abs(v - ref) < 1e-12, (re, im)


def test_zeta_near_window_edge():
    # the accuracy contract holds up to |Im s| = 200
    v = specfun.zeta(complex(0.5, 199.0))
    assert abs(v - ZETA_COMPLEX_REFS[(0.5, 199.0)]) < 1e-12


def test_window_exceeded():
    with pytest.raises(DomainError, match="window"):
        specfun.zeta(complex(0.5, 201.0))
    with pytest.raises(DomainError, match="window"):
        specfun.zeta(complex(2.0, -250.0))


def test_reg_removes_the_pole():
    assert abs(specfun.zeta_reg(1.0).real - 1.0) < 1e-12
    # reg(s) = 1 + gamma (s-1) + O((s-1)^2)
    h = 1e-6
    assert abs(specfun.zeta_reg(1.0 + h).real - (1.0 + GAMMA * h)) < 1e-11


def test_conjugation_symmetry(rng):
    pts = rng.uniform([-1.0, 0.5], [3.0, 190.0], size=(1000, 2))
    for re, im in pts:
        s = complex(re, im)
        a = specfun.zeta(s.conjugate())
        b = specfun.zeta(s).conjugate()
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), s


def test_conjugation_bitwise_spots():
    for s in (0.7 + 23.0j, 2.0 + 150.0j, -0.5 + 14.0j):
        assert specfun.zeta(s.conjugate()) == specfun.zeta(s).conjugate()


def test_zeta_finite_near_zero():
    # just off the first critical zero the modulus is tiny but not zero
    v = abs(specfun.zeta(complex(0.5, 14.134725141734694)))
    assert 0.0 < v < math.exp(-20.0)


def test_log_gamma_positive_axis():
    assert specfun.log_gamma(5.0).real == pytest.approx(math.log(24.0), abs=1e-13)
    assert specfun.log_gamma(5.0).imag == 0.0
    assert specfun.log_gamma(0.5).real == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)


def test_log_gamma_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError, match="pole"):
            specfun.log_gamma(x)


@pytest.mark.parametrize("re", [-1e20, -1e6])
def test_log_gamma_refuses_far_left(re):
    # the unit shift to Re >= 9 takes 0.3 s from -1e6 and never ends from
    # -1e20, where w + 1 == w; the call runs in a thread so that a missing
    # refusal fails here instead of hanging the suite
    refused = []

    def call():
        try:
            specfun.log_gamma(complex(re, 1.0))
        except DomainError:
            refused.append(True)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(1.0)
    assert refused


def test_log_gamma_recurrence():
    # ln G(x+1) = ln G(x) + ln x off the real axis too
    for s in (0.3 + 2.0j, -1.5 + 0.7j, 4.0 + 30.0j):
        lhs = specfun.log_gamma(s + 1.0)
        rhs = specfun.log_gamma(s) + cmath.log(s)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_digamma_refs():
    assert specfun.digamma(0.25) == pytest.approx(DIGAMMA_QUARTER, abs=1e-12)
    assert specfun.digamma(1.0) == pytest.approx(-GAMMA, abs=1e-12)
    # reflection-ish special value: psi(3/4) - psi(1/4) = pi
    assert specfun.digamma(0.75) - specfun.digamma(0.25) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_polygamma_refs():
    assert specfun.polygamma(0, 0.25) == pytest.approx(DIGAMMA_QUARTER, abs=1e-12)
    assert specfun.polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert specfun.polygamma(2, 1.5) == pytest.approx(POLYGAMMA_2_15, abs=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: specfun.polygamma(1, math.nan),
        lambda: specfun.polygamma(1, math.inf),
        lambda: specfun.polygamma(0, math.nan),
        lambda: specfun.polygamma(2, -math.inf),
        lambda: specfun.hurwitz_zeta(math.nan, 1.0),
        lambda: specfun.hurwitz_zeta(math.inf, 1.0),
        lambda: specfun.hurwitz_zeta(2.0, math.nan),
        lambda: specfun.hurwitz_zeta(2.0, math.inf),
    ],
)
def test_polygamma_hurwitz_refuse_non_finite(call):
    with pytest.raises(DomainError):
        call()


def test_polygamma_vs_finite_difference():
    h = 1e-5
    for m in (1, 2, 3):
        for x in (0.5, 0.75, 1.5):
            fd = (specfun.polygamma(m - 1, x + h) - specfun.polygamma(m - 1, x - h)) / (2 * h)
            v = specfun.polygamma(m, x)
            assert abs(v - fd) <= 1e-6 * abs(v), (m, x)


def test_hurwitz_refs():
    assert specfun.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert specfun.hurwitz_zeta(3.0, 0.25) == pytest.approx(HURWITZ_3_QUARTER, rel=1e-13)


def test_xi_special_values():
    assert abs(specfun.xi(0.0) - 1.0) < 1e-13
    assert abs(specfun.xi(1.0) - 1.0) < 1e-13
    assert specfun.xi(0.5).real == pytest.approx(XI_HALF, abs=1e-13)


def test_xi_functional_equation(rng):
    # |xi(s)| = |xi(1-s)| to relative 1e-10 across the window
    pts = rng.uniform([-1.0, 0.0], [2.0, 30.0], size=(50, 2))
    for re, im in pts:
        s = complex(re, im)
        a = abs(specfun.xi(s))
        b = abs(specfun.xi(1.0 - s))
        assert abs(a - b) <= 1e-10 * max(a, b), s


# ordinates of the nontrivial zeros below 30
XI_ZEROS = (14.134725141734693, 21.022039638771555, 25.010857580145688)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.5, 2.5), st.floats(-30.0, 30.0))
@example(-1.4915, 0.0)  # the measured worst, left of Re s = -1
@example(0.0, 0.0)
@example(0.5, 0.0)
@example(2.5, -30.0)
def test_xi_functional_equation_property(re, im):
    s = complex(re, im)
    # within 1e-3 of a zero |xi| is itself a cancellation and the relative
    # gap reads the zero's depth, not the equation: 1.8e-8 at 1e-6 off it
    assume(all(abs(s - complex(0.5, g)) > 1e-3 for z in XI_ZEROS for g in (z, -z)))
    # relative 1e-10 while both real parts stay >= -1; further left the
    # tolerance follows the kernel's documented loss, 100x per unit of Re s
    # (measured 5.4e-12 at Re s = -1 and 1.4e-10 at -1.49)
    tol = 1e-10 * 100.0 ** max(0.0, -1.0 - min(re, 1.0 - re))
    a = abs(specfun.xi(s))
    b = abs(specfun.xi(1.0 - s))
    assert abs(a - b) <= tol * max(a, b), s


def test_zeta_logderiv_against_difference():
    h = 1e-6
    for s in (2.5, 3.0 + 11.0j, 1.5):
        fd = (cmath.log(specfun.zeta(s + h)) - cmath.log(specfun.zeta(s - h))) / (2 * h)
        v = specfun.zeta_logderiv(s)
        assert abs(v - fd) < 1e-7, s


def test_sieve_small():
    assert list(taylor.sieve_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_count_1e6():
    assert len(taylor.sieve_primes(10**6)) == 78498


def _full_flag_sieve(limit):
    # the sieve over every integer that the odd-only one replaced
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(int(limit)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def test_sieve_equals_full_flag_sieve():
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101)
    squares = [p * p + d for p in small for d in (-1, 0, 1)]
    # limits whose last flag falls at the end of one of the first three segments
    edges = [2 * k * taylor._SIEVE_SEGMENT + d for k in (1, 2, 3) for d in range(-2, 3)]
    for limit in [*range(2, 301), *squares, *edges, 10**6, 10**7 - 100, 10**7 + 100]:
        got, want = taylor.sieve_primes(limit), _full_flag_sieve(limit)
        assert got.dtype == want.dtype == np.int64, limit
        assert np.array_equal(got, want), limit


def test_sieve_count_within_dusart_bound():
    # pi(x) <= x/ln x (1 + 1.2762/ln x) for x > 1 (Dusart, Math. Comp. 68,
    # 1999) sizes the array sieve_primes fills; it is tightest at x = 1627,
    # where it exceeds pi(x) = 258 by 0.003
    powers = [10**k + d for k in range(1, 8) for d in (-1, 1)]
    for x in [*range(2, 10**4 + 1), *powers]:
        ln_x = math.log(x)
        assert len(taylor.sieve_primes(x)) <= x / ln_x * (1.0 + 1.2762 / ln_x), x


def test_sieve_capacity():
    with pytest.raises(DomainError, match="budget"):
        taylor.sieve_primes(10**11)


def test_sieve_budget_boundary(monkeypatch):
    # the budget counts the (limit + 1) // 2 flag bytes: 50 of them take
    # limit 100, and limit 101 needs 51
    monkeypatch.setattr(taylor, "_SIEVE_BUDGET", 50)
    assert len(taylor.sieve_primes(100)) == 25
    with pytest.raises(DomainError, match=r"^sieve to 101 needs ~51 bytes, budget is 50$"):
        taylor.sieve_primes(101)


def test_exp_integral_refs():
    for z, ref in E1_REFS.items():
        assert taylor.exp_integral_e1(z) == pytest.approx(ref, rel=1e-13)


def test_upper_gamma_int():
    # Gamma(n, z) = (n-1)! e^-z sum_{k<n} z^k/k!
    z = 2.5
    expect = 2.0 * math.exp(-z) * (1.0 + z + z * z / 2.0)
    assert taylor.upper_gamma_int(3, z) == pytest.approx(expect, rel=1e-13)
    assert taylor.upper_gamma_int(1, z) == pytest.approx(math.exp(-z), rel=1e-13)


def test_factorials_past_the_double_range_refuse_at_once():
    # m! from m = 171 on and (n-1)! from n = 172 on exceed a double, so
    # these calls could never return; they refuse before any work
    for call, bound in ((lambda: specfun.polygamma(10**9, 1.0), "m <= 170"),
                        (lambda: taylor.upper_gamma_int(10**9, 2.0), "n <= 171")):
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match=bound):
            call()
        assert time.perf_counter() - t0 < 0.1
    with pytest.raises(OverflowError, match="m <= 170"):
        specfun.polygamma(171, 1.0)
    with pytest.raises(OverflowError, match="n <= 171"):
        taylor.upper_gamma_int(172, 2.0)
    assert specfun.polygamma(170, 1.0) == -7.257415615307999e+306
    assert taylor.upper_gamma_int(171, 2.0) == 7.257415615307998e+306


def test_prime_tail_estimate_shrinks():
    a = taylor.prime_tail_estimate(1, 1.5, 1e6)
    b = taylor.prime_tail_estimate(1, 1.5, 1e7)
    assert 0.0 < b < a


@pytest.mark.parametrize(
    "fn",
    [specfun.zeta, specfun.zeta_reg, specfun.zeta_logderiv, specfun.reg_logderiv,
     specfun.xi],
)
def test_left_of_window_refused(fn):
    # the fixed-length Euler-Maclaurin sum cancels catastrophically there
    with pytest.raises(DomainError, match="window"):
        fn(complex(-3.5, 1.0))
    with pytest.raises(DomainError, match="window"):
        fn(-10.5)


def test_window_edge_accepted():
    assert 0.0 < abs(specfun.zeta(complex(-3.0, 5.0))) < math.inf
    assert abs(specfun.zeta(-3.0).real - 1.0 / 120.0) < 1e-9


def test_xi_overflow_raises():
    # at x = 433 the product overflows, from x = 436 on cmath.exp already:
    # one message either way, the real argument printed as a real number
    assert math.isfinite(abs(specfun.xi(400.0)))
    for x, shown in ((433.0, "433"), (500.0, "500"), (1e5, "100000")):
        with pytest.raises(OverflowError) as exc:
            specfun.xi(x)
        assert str(exc.value) == f"|xi({shown})| exceeds the double range"


# The zeta family as it was evaluated with numpy arrays: the base sums were
# `np.exp(-s*logn).sum()` and every quotient an np.complex128 division.  On
# the real axis the scalar path must keep these bits exactly.
_NP_LOGN = np.log(np.arange(1, specfun._MAX_N + 1, dtype=np.float64))


def _numpy_reg_em(s: complex):
    n_trunc = max(30, math.ceil(1.3 * abs(s.imag)))
    logn = _NP_LOGN[: n_trunc - 1]
    pw = np.exp(-s * logn)
    base = pw.sum()
    ln_big = _NP_LOGN[n_trunc - 1]
    n_pow_ms = cmath.exp(-s * ln_big)
    corr = dcorr = 0j
    poch, dpoch = s, 1.0 + 0j
    npow = n_pow_ms / n_trunc
    for k, coef in enumerate(specfun._B_OVER_FACT):
        if k:
            for j in (2 * k - 1, 2 * k):
                f = s + j
                dpoch = dpoch * f + poch
                poch = poch * f
            npow /= n_trunc * n_trunc
        corr += coef * poch * npow
        dcorr += coef * npow * (dpoch - poch * ln_big)
    inner = base + n_pow_ms / 2.0 + corr
    n_pow_1ms = cmath.exp((1.0 - s) * ln_big)
    reg = (s - 1.0) * inner + n_pow_1ms
    dinner = -(logn * pw).sum() - ln_big * n_pow_ms / 2.0 + dcorr
    return reg, inner + (s - 1.0) * dinner - ln_big * n_pow_1ms


def _numpy_family(z: complex) -> dict:
    """Oracle values of the five public functions at z, or the exception
    class the function must raise there: DomainError at the pole s = 1 and
    the Gamma pole of xi, OverflowError where xi leaves the double range."""
    reg, dreg = _numpy_reg_em(z)
    out = dict.fromkeys(("zeta", "zeta_logderiv", "xi"), DomainError)
    out["zeta_reg"] = reg
    out["reg_logderiv"] = dreg / reg
    if z != 1.0:
        out["zeta"] = reg / (z - 1.0)
        out["zeta_logderiv"] = dreg / reg - 1.0 / (z - 1.0)
    if not (z.imag == 0.0 and z.real == -2.0):
        lg = specfun.log_gamma(z / 2.0 + 1.0)
        try:
            val = 2.0 * cmath.exp(-z / 2.0 * specfun.LN_PI + lg) * complex(reg)
        except OverflowError:
            val = math.inf
        out["xi"] = val if cmath.isfinite(val) else OverflowError
    return out


def _bits(v) -> tuple:
    """Both parts of v as raw bytes, zero signs included; any NaN is one key."""
    v = complex(v)
    return tuple("nan" if x != x else struct.pack("<d", x) for x in (v.real, v.imag))


# Off the axis the numpy kernel and the oracle round differently (the kernel
# divides by N and N^2 through numpy's reciprocal, the oracle with Python's
# `/`): a value may lie _OFF_AXIS_TOL * 100^max(0, -1 - Re s) of
# max(1, |oracle|) away, 100x looser per unit of Re s left of -1, where the
# sums cancel.  The worst gaps on the points below, divided by that power of
# 100: zeta 2.8e-14, zeta_reg 7.3e-14, xi 1.9e-13, zeta_logderiv 7.1e-13 and
# reg_logderiv 7.2e-13, the last three at Re s = -2.71.
_OFF_AXIS_TOL = {"zeta": 1e-13, "zeta_reg": 1e-13, "xi": 1e-12, "zeta_logderiv": 1e-12,
                 "reg_logderiv": 1e-12}


def test_scalar_family_keeps_numpy_bits(rng):
    pts = [complex(x, 0.0) for x in rng.uniform(-3.0, 12.0, 700)]
    off_axis = zip(rng.uniform(-3.0, 12.0, 1100), rng.uniform(-200.0, 200.0, 1100))
    pts += [complex(x, y) for x, y in off_axis]
    pts += [complex(x, 0.0) for x in 10.0 ** rng.uniform(1.0, 20.0, 100)]
    pts += [0j, 0.5 + 0j, 1 + 0j, 1.5 + 0j, -1 + 0j, -2 + 0j, 1 + 1e-9 + 0j, 1 - 1e-9 + 0j]
    pts += [complex(0.5, -0.0), -3 + 0j, 1e20 + 0j, complex(0.5, 200.0), complex(-3.0, -200.0)]
    for z in pts:
        for name, want in _numpy_family(z).items():
            fn = getattr(specfun, name)
            if isinstance(want, type):
                with pytest.raises(want):
                    fn(z)
            elif z.imag == 0.0:
                assert _bits(fn(z)) == _bits(want), (name, z)
            else:
                tol = _OFF_AXIS_TOL[name] * 100.0 ** max(0.0, -1.0 - z.real)
                assert abs(fn(z) - want) <= tol * max(1.0, abs(want)), (name, z)


def test_cdiv_is_numpy_complex_division(rng):
    # finite divisors, zero included; the numerator may be inf or nan.  A
    # complex divisor goes to numpy itself, a float one takes the written-out
    # reciprocal, and neither warns
    finite = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.5, *rng.uniform(-1e3, 1e3, 40)]
    parts = [*finite, math.inf, -math.inf, math.nan]
    nums = rng.integers(0, len(parts), (20_000, 2)).tolist()
    dens = rng.integers(0, len(finite), (20_000, 2)).tolist()
    for (i, j), (k, m) in zip(nums, dens):
        a, b = complex(parts[i], parts[j]), complex(finite[k], finite[m])
        with np.errstate(all="ignore"):
            want = np.complex128(a) / np.complex128(b)
            want_real = np.complex128(a.real) / np.complex128(b.real)
        assert _bits(specfun._cdiv(a, b)) == _bits(want), (a, b)
        # numpy adds the numerator's imaginary +0.0 into a zero real part
        got = specfun._cdiv(a.real, b.real)
        assert _bits(got)[0] == _bits(want_real)[0] or got == want_real.real == 0.0, (a, b)


def _complex_log_gamma(x: float) -> complex:
    """log_gamma at complex(x, 0) in complex arithmetic, the oracle the
    float path must match bit for bit in its real part: unit shifts to
    Re >= 9 with cmath.log, then the Stirling series."""
    w, shift = complex(x, 0.0), 0j
    while w.real < 9.0:
        shift += cmath.log(w)
        w += 1.0
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi)
    wpow, w2 = w, w * w
    for coef in specfun._STIRLING:
        out += coef / wpow
        wpow *= w2
    return out - shift


def test_log_gamma_float_path_keeps_complex_bits(rng):
    # cmath.log switches to log1p inside [0.71, 1.73] and rescales
    # subnormals; the float path must switch at the same points
    edges = [0.71, 1.73, 1.0, 2.2250738585072014e-308]
    xs = [y for e in edges for y in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
    xs += [k + 0.5 for k in range(10)]  # 9 - k unit shifts, k = 0..9
    xs += [9.0, 5e-324, 1e-310, 1e-300, *rng.uniform(0.0, 60.0, 20_000)]
    xs += [*rng.uniform(0.6, 1.8, 2_000), *(10.0 ** rng.uniform(-300.0, 27.0, 2_000))]
    for x in xs:
        x = float(x)
        if x > 0.0:
            got = specfun.log_gamma(x)
            assert type(got) is float
            assert _bits(got) == _bits(_complex_log_gamma(x).real), x


def test_real_kernel_keeps_complex_kernel_bits(rng):
    # the written-out float kernel against the numpy oracle on the axis
    xs = [*rng.uniform(-3.0, 12.0, 20_000), *(10.0 ** rng.uniform(1.0, 20.0, 500))]
    for x in [*xs, -3.0, -2.0, 0.0, 0.5, 1.0, 1e20]:
        want = [_bits(v.real) for v in _numpy_reg_em(complex(x, 0.0))]
        assert _bits(specfun._reg_real(float(x), False)[0]) == want[0], x
        assert [_bits(v) for v in specfun._reg_real(float(x), True)] == want, x


# where each public function takes its float path: the whole window for
# the zeta family, x > -2 for xi and x > 0 for log_gamma
_FLOAT_PATH = {
    "zeta": -3.0, "zeta_reg": -3.0, "zeta_logderiv": -3.0, "reg_logderiv": -3.0,
    "xi": math.nextafter(-2.0, 0.0), "log_gamma": 5e-324,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_FLOAT_PATH)), st.floats(-3.0, 60.0) | st.floats(300.0, 440.0))
@example("xi", 433.0)
# xi's last finite value, its first overflow, and where cmath.exp turns to
# exp(x - 1) * e and where it overflows itself
@example("xi", 432.7635057595044)
@example("xi", 432.7635057595045)
@example("xi", 435.4824127419271)
@example("xi", 435.95395383901683)
@example("zeta", 1.0)
@example("zeta_logderiv", 0.5)
@example("reg_logderiv", -2.000000000044)  # reg is exactly 0 here
@example("log_gamma", 1.73)
def test_real_argument_is_the_axis_value(name, x):
    assume(x >= _FLOAT_PATH[name])
    fn = getattr(specfun, name)
    try:
        want = fn(complex(x, 0.0))
    except (DomainError, OverflowError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fn(x)
        return
    got = fn(x)
    assert type(got) is float and type(want) is complex
    # zeta and reg_logderiv keep numpy's signed zero of a negative divisor,
    # and its inf + nan*j where reg is exactly 0
    assert want.imag == 0.0 or (math.isinf(want.real) and math.isnan(want.imag))
    assert _bits(got)[0] == _bits(want)[0]


@pytest.mark.parametrize("name", ["zeta", "zeta_reg", "zeta_logderiv", "reg_logderiv", "xi"])
@pytest.mark.parametrize("x,message", [
    (math.nan, "non-finite argument nan"),
    (math.inf, "non-finite argument inf"),
    (-math.inf, "non-finite argument -inf"),
    (math.nextafter(-3.0, -math.inf), "Re s = -3 lies left of the supported window Re s >= -3"),
    (1e20 * (1.0 + 2.0**-52), "Re s = 1e+20 lies right of the supported window Re s <= 1e+20"),
])
def test_float_refusals_keep_their_messages(name, x, message):
    # a float outside the window bypasses the float path and is refused as
    # it always was
    with pytest.raises(DomainError) as exc:
        getattr(specfun, name)(x)
    assert str(exc.value) == message


def test_log_gamma_off_axis_right_edge():
    # the Stirling powers z^(2k-1) overflow to nan from Re s of about 1e26
    # on; the refusal starts where the zeta window ends
    assert cmath.isfinite(specfun.log_gamma(complex(1e20, 1.0)))
    for z in (complex(1e26, 1.0), complex(math.nextafter(1e20, math.inf), -3.0)):
        with pytest.raises(DomainError, match=r"Re s <= 1e\+20"):
            specfun.log_gamma(z)
    assert specfun.log_gamma(1e26) > 0.0  # the positive axis takes the float path


_FAMILY = ("zeta", "zeta_reg", "zeta_logderiv", "reg_logderiv", "xi")


def _outcome(fn, z):
    """The exception class and message of fn(z), or which parts of the value
    are finite (f), +inf, -inf or nan (n)."""
    try:
        v = complex(fn(z))
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)
    return "".join("f" if math.isfinite(x) else "n" if x != x else "+" if x > 0 else "-"
                   for x in (v.real, v.imag))


_FINITE = ("ff",) * 5


def _xi_overflow(arg: str):
    return ("ff",) * 4 + ((OverflowError, f"|xi({arg})| exceeds the double range"),)


def _refused(message):
    return ((DomainError, message),) * 5


# the outcome of each function of _FAMILY beside the pole, at the window's
# edges and just past them, and at the conjugation spots
_EDGES = [
    (complex(1.0, 5e-324), ("+-", "ff", "f+", "ff", "ff")),
    (complex(1.0, -5e-324), ("++", "ff", "f-", "ff", "ff")),
    (complex(1.0, 1e-300), _FINITE),
    (complex(0.0, 5e-324), _FINITE),
    (complex(-2.0, 5e-324), ("ff",) * 4 + ((DomainError, "log_gamma pole at 0"),)),
    (complex(0.5, 200.0), _FINITE),
    (complex(0.5, -200.0), _FINITE),
    (complex(-3.0, 200.0), _FINITE),
    (complex(-3.0, -200.0), _FINITE),
    (complex(-3.0, 1.0), _FINITE),
    (complex(400.0, 1.0), _FINITE),
    (complex(433.0, 1.0), _xi_overflow("433+1j")),
    (complex(1e5, 1.0), _xi_overflow("100000+1j")),
    (complex(1e20, 200.0), _xi_overflow("1e+20+200j")),
    (complex(1e20, -200.0), _xi_overflow("1e+20-200j")),
    (complex(1e20, 1.0), _xi_overflow("1e+20+1j")),
    (complex(1e20, 5e-324), _xi_overflow("1e+20+4.94066e-324j")),
    (complex(1e20, 1e-300), _xi_overflow("1e+20+1e-300j")),
    (complex(0.5, math.nextafter(200.0, math.inf)),
     _refused("|Im s| = 200 exceeds the supported window 200")),
    (complex(math.nextafter(-3.0, -math.inf), 1.0),
     _refused("Re s = -3 lies left of the supported window Re s >= -3")),
    (complex(math.nextafter(1e20, math.inf), 1.0),
     _refused("Re s = 1e+20 lies right of the supported window Re s <= 1e+20")),
    (complex(math.nan, 1.0), _refused("non-finite argument (nan+1j)")),
    (complex(1.0, math.inf), _refused("non-finite argument (1+infj)")),
    *((s, _FINITE) for s in (0.7 + 23.0j, 2.0 + 150.0j, -0.5 + 14.0j)),
    *((s.conjugate(), _FINITE) for s in (0.7 + 23.0j, 2.0 + 150.0j, -0.5 + 14.0j)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z,want", _EDGES, ids=[repr(z) for z, _ in _EDGES])
def test_complex_edge_cases(z, want):
    # numpy's kernel and quotients raise no warning, and the outcome is the
    # one the complex path has always had
    assert tuple(_outcome(getattr(specfun, name), z) for name in _FAMILY) == want
