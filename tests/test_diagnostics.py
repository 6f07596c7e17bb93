import math

import pytest

from magneton import diagnostics, magneton as mg, specfun
from magneton.errors import ConvergenceError, DomainError

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


def test_find_root_xtol(monkeypatch):
    monkeypatch.setattr(diagnostics, "_XTOL", 1e-4)
    root = diagnostics.find_root(math.cos, 1.0, 2.0)
    assert abs(root - 0.5 * math.pi) < 1e-4
    # an exhausted step budget raises instead of returning a loose bracket
    monkeypatch.setattr(diagnostics, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="in 2 steps"):
        diagnostics.find_root(math.cos, 1.0, 2.0)
