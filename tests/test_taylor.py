import math

import pytest

from magneton import magneton as mg, specfun, taylor
from magneton.errors import DomainError, TruncationBudgetError

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
def prime13(primes_1e6):
    return taylor.compute_coefficients(13, primes_1e6)


def test_exact_coefficients_frozen(exact13):
    assert exact13.order == 13
    assert exact13.method == "exact"
    assert len(exact13.c) == 14
    for got, want in zip(exact13.c, C_EXACT):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-20)


@pytest.mark.parametrize("x,warn", [(1.6, False), (1.05, False), (0.9, True)])
def test_reconstruct(exact13, x, warn):
    # the whole partial series against ln|xi| away from the center
    dx = x - 1.5
    value = math.fsum(c * dx**n / math.factorial(n) for n, c in enumerate(exact13.c))
    # warn marks leaving the conservative radius 1/2, not divergence:
    # just outside, the partial sum still tracks ln|xi|
    assert (abs(dx) > 0.5 + 1e-15) is warn
    assert abs(value - LN_XI[x]) < 1e-12
    assert abs(value - math.log(abs(specfun.xi(x)))) < 1e-12


def test_c0_is_log_xi_at_center(exact13):
    assert abs(exact13.c[0] - math.log(abs(specfun.xi(1.5)))) < 1e-13


def test_prime_route_within_own_bounds(exact13, prime13):
    assert prime13.method == "prime"
    assert len(prime13.c) == 14
    for n, (p, e, b) in enumerate(zip(prime13.c, exact13.c, prime13.c_bounds)):
        assert abs(p - e) <= b, (n, p - e, b)


def test_prime_bounds_shrink_with_table(primes_1e6, primes_2e6, exact13):
    small = taylor.compute_coefficients(5, primes_1e6)
    big = taylor.compute_coefficients(5, primes_2e6)
    assert big.tail_bound < small.tail_bound
    for p, e, b in zip(big.c, exact13.c, big.c_bounds):
        assert abs(p - e) <= b


def test_truncation_budget(primes_1e6):
    taylor.compute_coefficients(3, primes_1e6, tail_budget=1e-3)
    with pytest.raises(TruncationBudgetError, match="table limit"):
        taylor.compute_coefficients(3, primes_1e6, tail_budget=1e-6)
    with pytest.raises(TruncationBudgetError):
        taylor.compute_coefficients(13, primes_1e6, tail_budget=1e-12)


def test_compute_validation(primes_1e6):
    with pytest.raises(DomainError):
        taylor.compute_coefficients(-1, primes_1e6)
    with pytest.raises(DomainError):
        taylor.compute_coefficients(3, primes_1e6, k_max=0)
    with pytest.raises(DomainError):
        taylor.compute_coefficients(3, specfun.sieve_primes(1))
    with pytest.raises(DomainError):
        taylor.compute_coefficients_exact(-2)


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
        assert taylor.rearranged_at_one(prime13, k).slope > 0.0
    assert abs(taylor.rearranged_at_one(prime13, 2).slope - lam) < 8e-4
    assert abs(taylor.rearranged_at_one(prime13, 13).slope - lam) < 2e-3
