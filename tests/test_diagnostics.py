import math

import pytest

from magneton import diagnostics, magneton as mg, specfun
from magneton.errors import DomainError

# independently located root of the well equation (30-digit bisection on
# the log form), and the completed-zeta magnitude there
X1 = 1.6102174836352662
XI_AT_X1 = 1.0229346286489098


def test_well_zeros():
    x1, x2 = diagnostics.well_zeros()
    assert abs(x1 - X1) < 1e-9
    assert x2 == 2.0 - x1
    assert abs(mg.well_S(x1)) < 1e-10
    assert diagnostics.well_zeros() == (x1, x2)


def test_well_zero_matches_published_decimals():
    x1, x2 = diagnostics.well_zeros()
    assert abs(x1 - 1.610217484) < 1e-7
    assert abs(x2 - 0.389782516) < 1e-7


def test_xi_magnitude_at_crossing():
    x1, _ = diagnostics.well_zeros()
    assert abs(abs(specfun.xi(x1)) - XI_AT_X1) < 1e-9


def test_offline_zero_correction_formula():
    z = diagnostics.OffLineZero(a=0.75, t0=100.0)
    got = diagnostics.offline_zero_correction(z, 1.2)
    want = 2.0 * 0.25 / 1e4 - 2.0 * 0.2 / 1e4
    assert abs(got - want) < 1e-18


def test_offline_zero_correction_vanishes_on_line():
    # the default reading must die as the zero returns to the half line
    z = diagnostics.OffLineZero(a=0.5 + 1e-12, t0=100.0)
    assert abs(diagnostics.offline_zero_correction(z, 1.0)) < 1e-15
    # and the perturbation falls off as 1/t0^2
    lo = diagnostics.offline_zero_correction(diagnostics.OffLineZero(0.75, 100.0), 1.2)
    hi = diagnostics.offline_zero_correction(diagnostics.OffLineZero(0.75, 1000.0), 1.2)
    assert abs(hi / lo - 0.01) < 1e-12


@pytest.mark.parametrize("a,t0", [(0.4, 10.0), (0.5, 10.0), (1.0, 10.0), (0.75, 0.0), (0.75, -2.0)])
def test_offline_zero_validation(a, t0):
    with pytest.raises(DomainError):
        diagnostics.OffLineZero(a=a, t0=t0)


def test_tail_bound_frozen():
    assert abs(diagnostics.tail_bound(1.25e21, 1.0) - 6.1850705499557822e-21) < 1e-33
    assert abs(diagnostics.tail_bound(1e21, 1.0) - 7.6958237882339913e-21) < 1e-33


def test_tail_bound_monotone():
    prev = diagnostics.tail_bound(10.0, 2.0)
    for t0 in (1e2, 1e4, 1e8, 1e16, 1e21):
        cur = diagnostics.tail_bound(t0, 2.0)
        assert 0.0 < cur < prev
        prev = cur


def test_tail_bound_domain():
    with pytest.raises(DomainError):
        diagnostics.tail_bound(math.e, 1.0)  # monotone only above e
    with pytest.raises(DomainError):
        diagnostics.tail_bound(10.0, 0.0)


def test_zero_count_estimate():
    assert abs(diagnostics.zero_count_estimate(100.0) - 44.042837896514882) < 1e-12
    with pytest.raises(DomainError):
        diagnostics.zero_count_estimate(2.0 * math.pi)


def test_find_root_simple():
    root = diagnostics.find_root(math.cos, 1.0, 2.0)
    assert abs(root - 0.5 * math.pi) < 1e-12


def test_find_root_flat_approach():
    # x^10 - 1/2: secant proposals stall on one side; the forced bisection
    # steps must still close the bracket
    root = diagnostics.find_root(lambda x: x**10 - 0.5, 0.0, 1.0)
    assert abs(root - 0.5**0.1) < 1e-12


def test_find_root_exact_endpoint():
    assert diagnostics.find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert diagnostics.find_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_find_root_requires_bracket():
    with pytest.raises(DomainError, match="sign change"):
        diagnostics.find_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_find_root_xtol():
    root = diagnostics.find_root(math.cos, 1.0, 2.0, xtol=1e-4)
    assert abs(root - 0.5 * math.pi) < 1e-4
