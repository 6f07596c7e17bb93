import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from magneton import magneton as mg
from magneton import quad, specfun
from magneton.errors import DomainError

GAMMA = specfun.EULER_GAMMA

# Frozen closed-form values (conditional mode inside the strip).  The
# strip rows agree with the published 6-decimal table except its rho=0.2
# cell, which contradicts the table's own rho=0.8 entry through the exact
# antisymmetry identity; the acceptance suite carries that comparison.
PHI_CLOSED = {
    1.0: 3.016745455955884,
    0.0: -2.1892082015270704,
    0.8: 1.6394006213261632,
    0.2: -1.352803034048862,
    0.7: 1.0523329146060876,
    0.3: -0.9186707017886018,
    0.6: 0.5094444991792,
    0.55: 0.2510816636025838,
    0.45: -0.23743527575348994,
    1.2: 2.2617258073354565,
    1.5: 1.5635716139315123,
    2.0: 0.9229336087526836,
    2.5: 0.5781604134193649,
    3.0: 0.37486446313791066,
    4.0: 0.16733218105103295,
    6.0: 0.03749302580806781,
    -1.0: -5.418834913829883,
}

DEFECT_SPOTS = {1.0: 5.205953657482954, 0.6: 0.9786979653261593}


@pytest.mark.parametrize("rho", sorted(PHI_CLOSED))
def test_phi_closed_frozen(rho):
    assert abs(mg.phi_closed(rho) - PHI_CLOSED[rho]) < 1e-12


def test_phi_closed_zero_at_center():
    assert mg.phi_closed(0.5) == 0.0


def test_phi_closed_rejects_nonfinite():
    with pytest.raises(DomainError):
        mg.phi_closed(float("nan"))


def test_piecewise_continuity():
    eps = 1e-8
    for b in (0.0, 0.5, 1.0):
        gap = abs(mg.phi_closed(b - eps) - mg.phi_closed(b + eps))
        assert gap < 1e-6, (b, gap)


def test_defect_identity_random(rng):
    # phi(rho) - phi(1-rho) = f(rho), an identity of the closed forms on
    # the whole real line
    for rho in rng.uniform(-3.0, 4.0, size=200):
        lhs = mg.phi_closed(rho) - mg.phi_closed(1.0 - rho)
        assert abs(lhs - mg.symmetry_defect(rho)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.floats(-3.0, 4.0),
        # the seams of the closed pieces, where |rho| and |rho - 1| turn
        st.sampled_from([0.0, 0.5, 1.0]).flatmap(lambda c: st.floats(c - 1e-9, c + 1e-9)),
    )
)
@example(0.0)
@example(0.5)
@example(1.0)
def test_defect_identity_property(rho):
    lhs = mg.phi_closed(rho) - mg.phi_closed(1.0 - rho)
    assert abs(lhs - mg.symmetry_defect(rho)) < 1e-10


@pytest.mark.parametrize("rho,val", sorted(DEFECT_SPOTS.items()))
def test_defect_frozen(rho, val):
    assert abs(mg.symmetry_defect(rho) - val) < 1e-12


def test_defect_odd_about_half(rng):
    for rho in rng.uniform(-2.0, 3.0, size=50):
        assert abs(mg.symmetry_defect(rho) + mg.symmetry_defect(1.0 - rho)) < 1e-10
    assert mg.symmetry_defect(0.5) == 0.0


def test_antisymmetric_pair():
    # the well crossing: phi takes opposite values at x1 +- the half shift
    rho1 = 1.1102174836352662
    assert abs(mg.phi_closed(rho1) + mg.phi_closed(1.0 - rho1)) < 1e-6
    # measured far tighter; keep a second line at the actual scale
    assert abs(mg.phi_closed(rho1) + mg.phi_closed(1.0 - rho1)) < 1e-12


def test_field_matches_difference_quotient():
    h = 1e-6
    fd = (mg.phi_closed(2.0 + h) - mg.phi_closed(2.0 - h)) / (2.0 * h)
    assert abs(fd - mg.field_E(2.0)) < 1e-5


def test_field_refuses_jump_points():
    for b in (0.0, 0.5, 1.0):
        with pytest.raises(DomainError, match="field_E_onesided"):
            mg.field_E(b)


def test_field_onesided_validation():
    with pytest.raises(DomainError):
        mg.field_E_onesided(0.5, "up")
    with pytest.raises(DomainError):
        mg.field_E_onesided(0.3, "+")


def test_onesided_limits_match_interior_field():
    # Richardson-extrapolated interior samples against each closed limit
    for point, side, sgn in [
        (0.0, "+", 1.0), (0.0, "-", -1.0),
        (0.5, "+", 1.0), (0.5, "-", -1.0),
        (1.0, "+", 1.0), (1.0, "-", -1.0),
    ]:
        f = lambda h: mg.field_E(point + sgn * h)
        extrap = 2.0 * f(5e-6) - f(1e-5)
        assert abs(extrap - mg.field_E_onesided(point, side)) < 1e-7, (point, side)


def test_onesided_closed_values():
    assert mg.field_E_onesided(0.5, "+") == math.pi * (1.0 + GAMMA)
    assert mg.field_E_onesided(0.5, "-") == math.pi * (math.log(4.0 * math.pi) - 1.0)
    gap = mg.field_E_onesided(1.0, "-") - mg.field_E_onesided(1.0, "+")
    assert abs(gap - 4.0 * math.pi) < 1e-12
    # at 0 and 1 the limits are field_E's adjacent pieces at the point; they
    # equal the hand-written limit formulas bit for bit
    zl32 = specfun.zeta_logderiv(1.5)
    psi_plus = 0.5 * specfun.digamma(0.75)
    pi, ln_pi = math.pi, specfun.LN_PI
    assert mg.field_E_onesided(1.0, "+") == pi * zl32
    assert mg.field_E_onesided(1.0, "-") == pi * (zl32 + 4.0)
    assert mg.field_E_onesided(0.0, "-") == pi * (
        ln_pi - zl32 - psi_plus + 0.5 * specfun.digamma(0.25)
    )
    assert mg.field_E_onesided(0.0, "+") == pi * (
        -specfun.reg_logderiv(1.5) - 2.0 + ln_pi - psi_plus - 0.5 * specfun.digamma(0.25)
    )


def test_jump_at_one():
    assert mg.jump_at_one() == 4.0 * math.pi
    assert mg.jump_at_one() > 0.0
    assert abs(mg.numeric_jump_at_one(1e-7) - 4.0 * math.pi) < 1e-4
    with pytest.raises(DomainError):
        mg.numeric_jump_at_one(0.3)


def test_jump_at_zero():
    closed = math.pi * (-4.0 + GAMMA + 3.0 * math.log(2.0) + 0.5 * math.pi)
    assert mg.jump_at_zero() == closed
    assert abs(closed - 0.714566) < 1e-6
    assert abs(mg.numeric_jump_at_zero(1e-7) - closed) < 1e-4
    # the Euler constant enters linearly with coefficient pi
    without_gamma = math.pi * (-4.0 + 3.0 * math.log(2.0) + 0.5 * math.pi)
    assert abs(mg.jump_at_zero() - without_gamma - math.pi * GAMMA) < 1e-12


def test_slope_and_lambda_relations():
    mean = 0.5 * (mg.field_E_onesided(0.5, "+") + mg.field_E_onesided(0.5, "-"))
    assert abs(mean - mg.slope_at_half()) < 1e-12
    h = 1e-6
    fd = (mg.symmetry_defect(0.5 + h) - mg.symmetry_defect(0.5 - h)) / (2.0 * h)
    assert abs(0.5 * fd - mg.slope_at_half()) < 1e-6
    half_jump = mg.field_E_onesided(0.5, "+") - mg.field_E_onesided(0.5, "-")
    assert abs(mg.lambda_one() - half_jump / (2.0 * math.pi)) < 1e-10
    assert mg.lambda_one() > 0.0


def test_volchkov_delta():
    delta = mg.volchkov_delta()
    assert abs(delta - math.pi * (3.0 - GAMMA)) < 1e-12
    # decomposition: full jump at 1 minus the upper limit at 1/2
    assert abs(delta - (4.0 * math.pi - math.pi * (1.0 + GAMMA))) < 1e-12
    with pytest.raises(DomainError, match="strip"):
        mg.volchkov_delta(mg.RhMode.OUTSIDE_STRIP_ONLY)


def test_mode_gating():
    out = mg.RhMode.OUTSIDE_STRIP_ONLY
    with pytest.raises(DomainError, match="strip"):
        mg.phi_closed(0.7, out)
    with pytest.raises(DomainError, match="strip"):
        mg.field_E(0.3, out)
    # the strip boundary itself is not inside
    mg.phi_closed(0.0, out)
    mg.phi_closed(1.0, out)
    mg.field_E(1.5, out)
    mg.field_E(-0.5, out)
    # one-sided limits: only the outward-facing two are outside claims
    mg.field_E_onesided(1.0, "+", out)
    mg.field_E_onesided(0.0, "-", out)
    for point, side in [(1.0, "-"), (0.0, "+"), (0.5, "+"), (0.5, "-")]:
        with pytest.raises(DomainError, match="strip"):
            mg.field_E_onesided(point, side, out)
    with pytest.raises(DomainError, match="strip"):
        mg.well_S(0.8, out)
    mg.well_S(1.8, out)


def _kernel_calls(monkeypatch) -> list:
    args = []
    real = specfun._reg_real
    monkeypatch.setattr(specfun, "_reg_real", lambda x, d: args.append(x) or real(x, d))
    return args


def test_well_is_the_mean_of_its_halves(monkeypatch):
    # bit for bit the two phi_closed halves, from one kernel call a row
    xs = [-2.5 + k / 512 for k in range(7 * 512 + 1)] + [0.02 + 0.000196 * k for k in range(5001)]
    args = _kernel_calls(monkeypatch)
    for x in xs:
        rho = x - 0.5
        want = 0.5 * (mg.phi_closed(rho) + mg.phi_closed(1.0 - rho))
        del args[:]
        assert mg.well_S(x) == want, x
        assert len(args) == (0 if x == 1.0 else 1), x


def test_well_two_call_fallback(monkeypatch):
    # at x = -2^53 the halves ask for zeta at 2^53 + 2 and 2^53: 1 - rho and
    # 1.5 - rho round differently, so the row takes two kernel calls
    x = -(2.0**53)
    rho = x - 0.5
    want = 0.5 * (mg.phi_closed(rho) + mg.phi_closed(1.0 - rho))
    args = _kernel_calls(monkeypatch)
    assert mg.well_S(x) == want
    assert args == [2.0**53 + 2.0, 2.0**53]


def test_well_basics():
    assert mg.well_S(1.0) == 0.0
    assert mg.well_S(1.3) == mg.well_S(0.7)
    assert abs(mg.well_S(1.3) - 0.1432987936386504) < 1e-12
    assert abs(mg.well_S(1.610217484)) < 1e-8


def test_quadrature_agreement():
    # stated concordance holds verbatim right of rho = 0.5
    for rho in (0.5, 0.8, 1.0, 2.0, 6.0):
        gap = abs(quad.phi_numeric(rho).value - mg.phi_closed(rho))
        assert gap < 5e-3, (rho, gap)
    # left of the half line the default height leaves a truncation drift
    # of ~0.0615 per unit of (1/2 - rho); the flat 5e-3 cap is not
    # attainable at t_max = 50 and the honest bound is the model
    for rho in (0.0, 0.2):
        gap = abs(quad.phi_numeric(rho).value - mg.phi_closed(rho))
        assert gap < (0.5 - rho) * 0.0615 * 1.3 + 5e-3, (rho, gap)


def test_closed_form_parts_from_average_left_of_strip():
    # Left of the strip the piecewise closed form is the reflection image
    # of the outer branch, which is NOT the line average there: the
    # reflected gamma factor drags a pole across the averaging half-plane.
    # At rho = -1 the offset converges to pi*ln(4/3) = 0.90378, plus the
    # familiar 0.0922 truncation tail at this height.
    gap = mg.phi_closed(-1.0) - quad.phi_numeric(-1.0).value
    tail = 1.5 * (math.log(50.0 / (2.0 * math.pi)) + 1.0) / 50.0
    predicted = math.pi * math.log(4.0 / 3.0) + tail
    assert abs(gap - predicted) < 3e-3


def _ln_abs_chi(rho: float, t: float) -> float:
    # chi(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), the reflection
    # factor: ln|zeta(s)| - ln|zeta(1-s)| = ln|chi(s)|
    s = complex(rho, t)
    return (
        (rho - 0.5) * specfun.LN_PI
        + specfun.log_gamma((1.0 - s) / 2.0).real
        - specfun.log_gamma(s / 2.0).real
    )


def _defect_by_integration(rho: float) -> float:
    cfg = quad.QuadratureConfig(abs_tol=1e-10)
    f = lambda t, lines: np.array(
        [[_ln_abs_chi(rho, x) / (0.25 + x * x) for x in t.tolist()]]
    )
    (res,) = quad._integrate(f, [0.0, 50.0], cfg)
    tail = (0.5 - rho) * (math.log(50.0 / (2.0 * math.pi)) + 1.0) / 50.0
    return res.value + tail


def test_defect_closed_form_matches_integral_on_strip():
    # unconditional dual route: the averaged reflection factor lands on
    # the closed defect inside the strip...
    for rho in (0.3, 0.7):
        assert abs(_defect_by_integration(rho) - mg.symmetry_defect(rho)) < 5e-6
    # ...and departs from it by exactly -pi*ln(4/3) at rho = -1
    off = _defect_by_integration(-1.0) - mg.symmetry_defect(-1.0)
    assert abs(off + math.pi * math.log(4.0 / 3.0)) < 1e-4


def test_jump_points_constant():
    assert mg.JUMP_POINTS == (0.0, 0.5, 1.0)
    assert isinstance(mg.JUMP_POINTS, tuple)
