import hashlib
import math
import tracemalloc
from decimal import Context, localcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magneton import magneton as mg, specfun, taylor
from magneton.errors import ConvergenceError, DomainError

# Coefficients through order 13 from the high-precision route, frozen.
# Derived once from 40-digit zeta derivatives at 3/2; the prime route
# must agree within its own reported bounds.
C_EXACT = (
    0.017311367323249543,
    0.04613592806046257,
    0.045988383149495514,
    -0.0004403594695291328,
    -0.00042904558475458885,
    3.350703775033648e-05,
    3.135550876743978e-05,
    -6.305004643461996e-06,
    -5.568656081399005e-06,
    2.129098135623845e-06,
    1.7382049213463057e-06,
    -1.1117947357293156e-06,
    -8.164855086957724e-07,
    8.234949656758185e-07,
)

LN_XI = {  # ln|xi(x)| at 30 digits, rounded once
    1.6: 0.022154826866944095,
    1.05: 0.0012124735983357228,
    0.9: -0.0020787640994530114,
}


@pytest.fixture(scope="module")
def exact13():
    return taylor.compute_coefficients_exact(13)


@pytest.fixture(scope="module")
def prime13():
    return taylor.compute_coefficients(13, 10**6)


def test_exact_coefficients_frozen(exact13):
    assert len(exact13) == 14
    for got, want in zip(exact13, C_EXACT):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-20)


@pytest.mark.parametrize("x,warn", [(1.6, False), (1.05, False), (0.9, True)])
def test_reconstruct(exact13, x, warn):
    # the whole partial series against ln|xi| away from the center
    dx = x - 1.5
    value = math.fsum(c * dx**n / math.factorial(n) for n, c in enumerate(exact13))
    # warn marks leaving the conservative radius 1/2, not divergence:
    # just outside, the partial sum still tracks ln|xi|
    assert (abs(dx) > 0.5 + 1e-15) is warn
    assert abs(value - LN_XI[x]) < 1e-12
    assert abs(value - math.log(abs(specfun.xi(x)))) < 1e-12


def test_c0_is_log_xi_at_center(exact13):
    assert abs(exact13[0] - math.log(abs(specfun.xi(1.5)))) < 1e-13


def test_prime_route_within_own_bounds(exact13, prime13):
    assert len(prime13.c) == 14
    for n, (p, e, b) in enumerate(zip(prime13.c, exact13, prime13.c_bounds)):
        assert abs(p - e) <= b, (n, p - e, b)


def test_prime_bounds_shrink_with_table(exact13):
    small = taylor.compute_coefficients(5, 10**6)
    big = taylor.compute_coefficients(5, 2 * 10**6)
    assert big.tail_bound < small.tail_bound
    for p, e, b in zip(big.c, exact13, big.c_bounds):
        assert abs(p - e) <= b


def test_truncation_budget():
    taylor.compute_coefficients(3, 10**6, tail_budget=1e-3)
    with pytest.raises(ConvergenceError, match="table limit"):
        taylor.compute_coefficients(3, 10**6, tail_budget=1e-6)
    with pytest.raises(ConvergenceError, match="budget"):
        taylor.compute_coefficients(13, 10**6, tail_budget=1e-12)


def test_compute_validation():
    with pytest.raises(DomainError):
        taylor.compute_coefficients(-1, 10**6)
    with pytest.raises(DomainError):
        taylor.compute_coefficients(3, 10**6, k_max=0)
    with pytest.raises(DomainError):
        taylor.compute_coefficients(3, 1)
    with pytest.raises(DomainError, match="k_max must be <= 716"):
        taylor.compute_coefficients(3, 10**6, k_max=717)
    with pytest.raises(DomainError, match="nan"):
        taylor.compute_coefficients(3, 10**6, tail_budget=math.nan)
    with pytest.raises(DomainError):
        taylor.compute_coefficients_exact(-2)


def test_k_max_ceiling_changes_nothing_beyond(monkeypatch):
    # from the ceiling on, p^(-3k/2) is 0.0 for every prime, so a higher
    # k_max would reproduce the same coefficients and bounds bit for bit
    at_ceiling = taylor.compute_coefficients(20, 1000, taylor._K_CEILING)
    monkeypatch.setattr(taylor, "_K_CEILING", 2000)
    assert taylor.compute_coefficients(20, 1000, 2000) == at_ceiling


_PRIMES = specfun.sieve_primes(2 * 10**6)  # 148,933 primes
_LEAF = taylor._LEAF


def _prime_sums_oracle(lp, q, order, k_top):
    # the whole-array loop _prime_sums replaced: one product and one numpy
    # sum over every prime per (k, n)
    S = np.zeros((order + 1, k_top + 1))
    qk = np.ones_like(q)
    for k in range(1, k_top + 1):
        qk = qk * q
        w = qk
        for n in range(order + 1):
            S[n, k] = w.sum()
            if n < order:
                w = w * lp
    return S


_lengths = st.one_of(
    st.integers(0, 7),
    st.builds(lambda m, d: 8 * m + d, st.integers(1, 600), st.sampled_from((-1, 0, 1))),
    st.sampled_from(
        [base + d for base in (_LEAF, 2 * _LEAF) for d in (-9, -8, -1, 0, 1, 8, 9)]
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(0, len(_PRIMES)),
    size=_lengths,
    order=st.integers(0, 20),
    k_top=st.integers(1, 60),
)
# two blocks, the second from p ~ 3.9e5: it underflows from k = 39 on
@example(start=0, size=2 * _LEAF + 1, order=20, k_top=48)
# one block from p ~ 1e6, underflowing from k = 36 on
@example(start=78_498, size=7 * 8 + 1, order=3, k_top=45)
# the whole table: right blocks are skipped for part of (n, k) at every split
@example(start=0, size=len(_PRIMES), order=20, k_top=68)
# the k ceiling: a skipped right block whose own right half is skipped for
# more (n, k), and leaves that stop their k loop early
@example(start=0, size=3 * _LEAF + 1, order=3, k_top=taylor._K_CEILING + taylor._K_GUARD)
# one leaf from the first prime: inside it, right halves down to numpy's
# 128-element block are skipped for part of (n, k)
@example(start=0, size=_LEAF, order=20, k_top=68)
# the smallest nodes that split, into 64 + 65, 64 + 72 and 64 + 73: numpy
# rounds each split down to a multiple of 8
@example(start=0, size=129, order=20, k_top=68)
@example(start=0, size=136, order=20, k_top=68)
@example(start=0, size=137, order=20, k_top=68)
# the k ceiling inside a leaf: lower bounds of 0.0 where the term at the
# peak is not a normal float
@example(start=0, size=_LEAF + 1, order=20, k_top=taylor._K_CEILING + taylor._K_GUARD)
def test_prime_sums_bitwise_equal_to_whole_array_sums(start, size, order, k_top):
    """_prime_sums splits the primes at the nodes of numpy's pairwise-sum
    tree and adds block sums back up that tree, so it must reproduce the
    whole-array sums bit for bit.  This is the test that catches a numpy
    release whose pairwise-sum tree (leaf size, split rule or unrolling)
    differs from the one the kernel mirrors; the taylor payload goldens
    would then move too, and this test names the cause."""
    start = min(start, len(_PRIMES) - size)
    lp = np.log(_PRIMES[start : start + size].astype(np.float64))
    q = np.exp(-1.5 * lp)  # whole-array q: pins the bits of the kernel's per-block q
    got = taylor._prime_sums(lp, order, k_top)
    want = _prime_sums_oracle(lp, q, order, k_top)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "k_max, cap",
    # Without skipping, 469,275,618 elements in 22,596 sums at the default
    # k_max.  Skipping right blocks above the leaves left 71,338,266 (15.2%)
    # in 3,435 sums, and 353,949,210 in 17,043 at the k ceiling; skipping
    # right halves inside the leaves too leaves 43,678,314 and 44,766,954.
    [(taylor.DEFAULT_K_MAX, 0.65 * 71_338_266), (taylor._K_CEILING, 0.25 * 353_949_210)],
    ids=("default", "ceiling"),
)
def test_prime_sums_skip_absorbed_blocks(monkeypatch, k_max, cap):
    # deterministic work counter: elements the leaf passes sum (every summed
    # entry is positive, so a nonzero S entry is one sum) for the
    # taylor-deep point
    summed = []
    leaf = taylor._leaf_sums

    def counting(lp, need):
        S = leaf(lp, need)
        summed.append(len(lp) * np.count_nonzero(S))
        return S

    monkeypatch.setattr(taylor, "_leaf_sums", counting)
    taylor.compute_coefficients(20, 10**7, k_max)
    assert sum(summed) <= cap


@pytest.mark.parametrize(
    "k_max, cap",
    [(taylor.DEFAULT_K_MAX, 8e6), (taylor._K_CEILING, 9e6)],
    ids=("default", "ceiling"),
)
def test_prime_route_memory_peak(k_max, cap):
    # ln p, 8 bytes for each of the 664,579 primes to 10^7 (5.3 MB), is the
    # only whole-table array; the sieve segment and the kernel's blocks add
    # under 2 MB (peaks of 6,555,921 and 6,779,643 B): the kernel's
    # per-entry bound arrays die before it recurses
    tracemalloc.start()
    try:
        taylor.compute_coefficients(20, 10**7, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap


def test_rearranged_float_route_pins(exact13):
    # partial sums pushed to x = 1 on double-rounded coefficients; the
    # value bottoms out at the coefficient-rounding floor of a few 1e-18
    r1 = taylor.rearranged_at_one(exact13, 1)
    assert r1.value == pytest.approx(-0.005756596706981743, rel=1e-11)
    assert r1.slope == pytest.approx(0.04613592806046257, rel=1e-11)
    assert r1.curvature == 0.0
    r2 = taylor.rearranged_at_one(exact13, 2)
    assert r2.value == pytest.approx(-8.048813294803982e-06, rel=1e-9)
    assert r2.slope == pytest.approx(0.023141736485714815, rel=1e-11)
    assert r2.curvature == pytest.approx(0.022994191574747757, rel=1e-11)
    r13 = taylor.rearranged_at_one(exact13, 13)
    assert r13.value == pytest.approx(2.7611091692770037e-18, rel=1e-6, abs=1e-19)
    assert r13.slope == pytest.approx(0.02309570896612103, rel=1e-12)


def test_rearranged_exact_route_pins():
    r12 = taylor.rearranged_at_one_exact(12)
    assert r12.value == pytest.approx(1.5757994591279206e-20, rel=1e-6, abs=1e-22)
    r13 = taylor.rearranged_at_one_exact(13)
    assert r13.value == pytest.approx(-3.852448535326574e-22, rel=1e-6, abs=1e-23)
    assert abs(r13.value) <= 1e-18  # the deep-cancellation headline
    assert abs(r13.slope - mg.lambda_one()) <= 1e-12
    assert r13.curvature == pytest.approx(0.0230771586479023, rel=1e-11)


@pytest.fixture(scope="module")
def zeta_oracle():
    """zeta^(k)(3/2)/k! for k <= 20 from mpmath's own zeta, at 80 digits."""
    with mp.workdps(80):
        return [mp.zeta(mp.mpf(3) / 2, derivative=k) / mp.factorial(k) for k in range(21)]


def _coefficients_oracle(f):
    """C_0..C_order from f_k = zeta^(k)(3/2)/k!, assembled with mpmath's
    log, loggamma and polygamma at the caller's working precision."""
    order = len(f) - 1
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


def test_zeta_series_within_its_bound(zeta_oracle):
    # at 70 digits the rounding (about 1e-64) is far below the bound, so
    # what is left is the Euler-Maclaurin truncation the bound covers
    bound = math.exp(taylor._em_log_bound(taylor._EM_TERMS))
    assert bound < 10.0 ** -(taylor._DPS + 2)
    with localcontext(Context(prec=70)), mp.workdps(80):
        for order in range(21):
            f = taylor._zeta_taylor(order, taylor._EM_TERMS)
            assert len(f) == order + 1
            for k, (got, want) in enumerate(zip(f, zeta_oracle)):
                assert abs(mp.mpf(str(got)) - want) <= bound, (order, k)


def test_gamma_series_within_its_bound():
    # ln Gamma(3/4), psi(3/4) and zeta(s, 3/4) for s = 2..20 from the pass
    # at 75 digits, where rounding (about 1e-70 at zeta(20, 3/4) ~ 316)
    # stays far below each value's truncation bound
    with localcontext(Context(prec=75)):
        values = taylor._gamma_values(20, taylor._EM_TERMS)
    assert len(values) == 21
    with mp.workdps(80):
        a = mp.mpf(3) / 4
        want = [mp.loggamma(a), mp.digamma(a)] + [mp.zeta(s, a) for s in range(2, 21)]
        for s, (got, w) in enumerate(zip(values, want)):
            log_bound = taylor._gamma_log_bound(s, taylor._EM_TERMS)
            assert log_bound < -(taylor._DPS + 2) * math.log(10.0), s
            assert abs(mp.mpf(str(got)) - w) <= math.exp(log_bound), s


def test_pi_literal():
    with mp.workdps(100):
        assert abs(mp.mpf(taylor._PI) - mp.pi) < mp.mpf(10) ** -80


@pytest.mark.parametrize("order", range(21))
def test_rearranged_exact_matches_zeta_oracle(zeta_oracle, order):
    # the reference column of every order against the same sums built on
    # mpmath's zeta derivatives at 80 digits; 40 digits missed at order 20
    with mp.workdps(80):
        c = _coefficients_oracle(zeta_oracle[: order + 1])
        want = taylor._rearranged(c, order, -mp.mpf(1) / 2, mp.fsum, mp.factorial)
    got = taylor.rearranged_at_one_exact(order)
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), rel=1e-13, abs=0.0)


def test_exact_route_bits_pinned():
    # every float of both exact entry points at orders 0..20; each is the
    # 80-digit mpmath oracle of the test above rounded once to double
    rows = [
        (taylor.compute_coefficients_exact(n), tuple(taylor.rearranged_at_one_exact(n)))
        for n in range(21)
    ]
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == "7a5007594d32db74be04269f2f24f90ecb4e12f5b901020fba72d73180db2397"


def test_rearranged_validation(exact13):
    for k in (-1, 14):
        with pytest.raises(DomainError):
            taylor.rearranged_at_one(exact13, k)


def test_slope_estimates_lambda_one(prime13):
    # from primes alone: positive at every truncation order, within 8e-4
    # of the closed value already at order 2, and pinned at the prime
    # truncation floor (~6e-4) at order 13
    lam = mg.lambda_one()
    for k in range(1, 14):
        assert taylor.rearranged_at_one(prime13.c, k).slope > 0.0
    assert abs(taylor.rearranged_at_one(prime13.c, 2).slope - lam) < 8e-4
    assert abs(taylor.rearranged_at_one(prime13.c, 13).slope - lam) < 2e-3
