import math

import numpy as np
import pytest

from magneton import quad, specfun
from magneton.errors import ConvergenceError, DomainError

# Frozen half-line averages at t_max = 50, computed independently at 30
# significant digits with the integration interval split at every zeta
# zero below the cutoff.  The package must land on these, not near them.
PHI_T50 = {
    0.0: -2.2201178177501101,
    0.2: -1.371468375869684,
    0.5: -0.00036372004066848972,
    0.8: 1.6391796523380856,
    1.0: 3.016576496675403,
    2.0: 0.92288064141778046,
}

# rho = 0.5 runs straight through the zeros (true log singularities, the
# micro-panel closeout caps the attainable accuracy); rho = 1 starts at
# the pole sliver.  Everywhere else the integrand is smooth.
PHI_TOL = {0.0: 5e-8, 0.2: 5e-8, 0.5: 2e-6, 0.8: 5e-8, 1.0: 1e-5, 2.0: 5e-8}

# same construction at rho = -1 (left of the strip, no zeros on the line)
PHI_T50_NEG_ONE = -6.4148910704699175


def test_config_defaults():
    cfg = quad.QuadratureConfig()
    assert cfg.t_max == 50.0
    assert cfg.abs_tol == 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_max": 0.0},
        {"t_max": -3.0},
        {"t_max": 250.0},  # beyond the zeta evaluation window
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"max_depth": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(DomainError):
        quad.QuadratureConfig(**kwargs)


def test_simpson_exact_on_cubic():
    res = quad.integrate_adaptive(lambda t: t**3, 0.0, 1.0)
    assert abs(res.value - 0.25) < 1e-15
    assert res.error_estimate < 1e-15


def test_integrate_adaptive_smooth():
    cfg = quad.QuadratureConfig(abs_tol=1e-12)
    res = quad.integrate_adaptive(math.cos, -1.0, 1.0, cfg)
    assert abs(res.value - 2.0 * math.sin(1.0)) < 1e-12
    res = quad.integrate_adaptive(math.exp, 0.0, 1.0, cfg)
    assert abs(res.value - (math.e - 1.0)) < 1e-12
    assert res.n_evals >= 5


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0), (0.0, float("inf"))])
def test_integrate_interval_validation(a, b):
    with pytest.raises(DomainError):
        quad.integrate_adaptive(math.cos, a, b)


def test_depth_budget_raises():
    cfg = quad.QuadratureConfig(abs_tol=1e-14, max_depth=2)
    with pytest.raises(ConvergenceError, match="depth"):
        quad.integrate_adaptive(lambda t: math.sqrt(abs(t - 0.3)), 0.0, 1.0, cfg)


@pytest.mark.parametrize("rho", sorted(PHI_T50))
def test_phi_numeric_frozen(rho):
    got = quad.phi_numeric(rho).value
    assert abs(got - PHI_T50[rho]) < PHI_TOL[rho], (rho, got)


# (n_evals, max_depth_used) at the default config: the panel tree is
# deterministic, and these are the counts of the depth-first recursion the
# level-by-level integrator replaced
PHI_COUNTERS = {0.0: (1709, 13), 0.5: (8881, 26), 1.0: (3973, 26), 2.0: (1189, 13)}


@pytest.mark.parametrize("rho", sorted(PHI_COUNTERS))
def test_phi_numeric_counters(rho):
    det = quad.phi_numeric(rho)
    assert (det.n_evals, det.max_depth_used) == PHI_COUNTERS[rho]


def _recursive_simpson(f, a, b, cfg):
    """The depth-first adaptive Simpson that the level-by-level integrator
    replaced, kept as the reference for its results: (value, error,
    n_evals, max_depth_used)."""
    acc = {"err": 0.0, "evals": 3, "depth": 0}

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def panel(a, b, fa, fm, fb, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        acc["evals"] += 2
        whole = simpson(fa, fm, fb, b - a)
        split = simpson(fa, flm, fm, m - a) + simpson(fm, frm, fb, b - m)
        err = abs(split - whole) / 15.0
        if err <= tol or (b - a) < quad._MIN_WIDTH:
            if not math.isfinite(split):
                raise ConvergenceError(
                    f"non-finite integrand on panel [{a:.6g}, {b:.6g}]"
                )
            acc["err"] += err
            return split + (split - whole) / 15.0
        if depth >= cfg.max_depth:
            raise ConvergenceError(
                f"panel [{a:.6g}, {b:.6g}] not converged at depth limit "
                f"{cfg.max_depth}: error {err:.3g} > {tol:.3g}"
            )
        acc["depth"] = max(acc["depth"], depth + 1)
        out_l = panel(a, m, fa, flm, fm, tol / 2.0, depth + 1)
        return out_l + panel(m, b, fm, frm, fb, tol / 2.0, depth + 1)

    value = panel(a, b, f(a), f(0.5 * (a + b)), f(b), cfg.abs_tol, 0)
    return value, acc["err"], acc["evals"], acc["depth"]


def _cusps(t):
    return math.sqrt(abs(t - 0.3)) + math.sqrt(abs(t - 0.8))


@pytest.mark.parametrize(
    "f,a,b,kwargs",
    [
        (math.cos, -1.0, 1.0, {"abs_tol": 1e-12}),
        (math.exp, 0.0, 1.0, {}),
        (lambda t: t**3, 0.0, 1.0, {}),
        (_cusps, 0.0, 1.0, {"abs_tol": 1e-12}),
        (_cusps, 0.0, 1.0, {"abs_tol": 1e-30}),  # ends in _MIN_WIDTH close-outs
        (lambda t: math.log(abs(t - 1.7)) / (1 + t * t), 0.0, 5.0, {"abs_tol": 1e-10}),
    ],
)
def test_level_loop_matches_recursion(f, a, b, kwargs):
    cfg = quad.QuadratureConfig(**kwargs)
    got = quad.integrate_adaptive(f, a, b, cfg)
    assert tuple(got) == _recursive_simpson(f, a, b, cfg)


@pytest.mark.parametrize(
    "f,kwargs",
    [
        (_cusps, {"abs_tol": 1e-14, "max_depth": 3}),  # several panels fail at once
        (_cusps, {"abs_tol": 1e-14, "max_depth": 2}),
        (lambda t: math.inf if t > 0.5 else 1.0, {}),
        (lambda t: math.nan if 0.2 < t < 0.4 or t > 0.7 else t, {}),
    ],
)
def test_failures_match_recursion(f, kwargs):
    cfg = quad.QuadratureConfig(**kwargs)
    with pytest.raises(ConvergenceError) as want:
        _recursive_simpson(f, 0.0, 1.0, cfg)
    with pytest.raises(ConvergenceError) as got:
        quad.integrate_adaptive(f, 0.0, 1.0, cfg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_phi_numeric_matches_recursion(rho):
    # the scalar integrand under the recursive rule: the same panels and
    # sums, so the same bits
    cfg = quad.QuadratureConfig()

    def integrand(t):
        raw = max(specfun.log_abs_zeta(complex(rho, t)), quad._LOG_FLOOR)
        return raw / (0.25 + t * t)

    det = quad.phi_numeric(rho)
    got = (det.value, det.error_estimate, det.n_evals, det.max_depth_used)
    assert got == _recursive_simpson(integrand, 0.0, cfg.t_max, cfg)


@pytest.mark.parametrize("rho", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_line_kernel_matches_scalar(rng, rho):
    t = [rng.uniform(-200.0, 200.0) for _ in range(150)]
    t += [rng.uniform(0.0, 50.0) for _ in range(150)]
    if rho == 0.5:  # on top of the first zero, |zeta| ~ 1e-7
        t += [14.134725 + rng.uniform(-1e-6, 1e-6) for _ in range(40)]
    if rho == 1.0:  # beside the pole
        t += [1e-12 + rng.uniform(-5e-13, 5e-13) for _ in range(40)]
    got = quad.log_abs_zeta_line(rho, np.array(t))
    want = np.array([specfun.log_abs_zeta(complex(rho, x)) for x in t])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_line_kernel_error_signals(monkeypatch):
    with pytest.raises(DomainError, match="pole"):
        quad.log_abs_zeta_line(1.0, np.array([3.0, 0.0]))
    with pytest.raises(DomainError, match="window"):
        quad.log_abs_zeta_line(0.5, np.array([10.0, -200.5]))
    with pytest.raises(DomainError, match="window"):  # left of Re s = -3
        quad.log_abs_zeta_line(-3.5, np.array([0.0, 10.0]))
    with pytest.raises(DomainError):
        quad.log_abs_zeta_line(0.5, np.array([np.nan]))
    assert quad.log_abs_zeta_line(0.5, np.array([])).shape == (0,)
    # a modulus below the floor is a zero hit and maps to -inf, as in the
    # scalar path: the trivial zero at s = -2 and the first nontrivial one
    for rho, t, floor in ((-2.0, 0.0, 1e-10), (0.5, 14.134725141734693, 1e-12)):
        monkeypatch.setattr(specfun, "_ZERO_FLOOR", floor)
        assert specfun.log_abs_zeta(complex(rho, t)) == -math.inf
        got = quad.log_abs_zeta_line(rho, np.array([t, t + 1.0]))
        assert got[0] == -math.inf and math.isfinite(got[1])


def test_phi_numeric_left_of_strip():
    got = quad.phi_numeric(-1.0).value
    assert abs(got - PHI_T50_NEG_ONE) < 1e-8


@pytest.mark.parametrize(
    "rho,coarse", [(2.0, 0.92295), (0.5, 0.00026), (6.0, 0.03749)]
)
def test_phi_numeric_coarse_references(rho, coarse):
    # round-number measurement targets; the default height reproduces them
    assert abs(quad.phi_numeric(rho).value - coarse) < 1e-3


def test_phi_error_estimate_honest_on_smooth_lines():
    # only claimed where the line stays clear of zeros and the pole
    for rho in (0.0, 0.2, 0.8, 2.0):
        det = quad.phi_numeric(rho)
        assert abs(det.value - PHI_T50[rho]) <= 5.0 * det.error_estimate + 1e-9


def test_panel_cap(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_PANELS", 64)
    cfg = quad.QuadratureConfig(abs_tol=1e-10)
    want = r"open at depth \d+, above the cap 64: tolerance 1e-10"
    with pytest.raises(ConvergenceError, match=want):
        quad.phi_numeric(2.0, cfg)
    with pytest.raises(ConvergenceError, match="above the cap 64"):
        quad.integrate_adaptive(_cusps, 0.0, 1.0, quad.QuadratureConfig(abs_tol=1e-30))


def test_phi_rejects_nonfinite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            quad.phi_numeric(bad)


def test_phi_deterministic():
    a = quad.phi_numeric(0.8)
    b = quad.phi_numeric(0.8)
    assert a == b


def test_integrand_even_in_t():
    g = lambda t: specfun.log_abs_zeta(complex(0.8, t)) / (0.25 + t * t)
    full = quad.integrate_adaptive(g, -50.0, 50.0)
    half = quad.integrate_adaptive(g, 0.0, 50.0)
    assert abs(full.value - 2.0 * half.value) < 1e-8


def test_truncation_drift_50_vs_100():
    # doubling the height moves phi by roughly (ln(T/2pi)+1)/T per unit of
    # (1/2 - rho) left of the half line, ~0.024 at T = 50; right of it the
    # drift is far below 5e-3.  At rho = 0 and 0.25 the drift (1.2e-2,
    # 6.2e-3) genuinely exceeds a flat 5e-3, so the bound asserted here is
    # the measured truncation model, not a flat cap.
    cfg100 = quad.QuadratureConfig(t_max=100.0)
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        drift = abs(quad.phi_numeric(rho).value - quad.phi_numeric(rho, cfg100).value)
        assert drift <= max(0.5 - rho, 0.0) * 0.0239 + 1.5e-3, (rho, drift)
        if rho >= 0.5:
            assert drift < 5e-3


def test_lorentz_closed_examples():
    assert quad.lorentz_log_integral(0.25, 0.5, 1.0) == 0.0
    assert quad.lorentz_log_integral(1.0, 0.0, 1.0) == 0.0
    want = 2.0 * math.pi * math.log(1.5)
    assert abs(quad.lorentz_log_integral(0.25, 1.0, 1.0) - want) < 1e-12


@pytest.mark.parametrize(
    "alpha,beta,mu", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -0.1, 1.0), (1.0, 1.0, 0.0)]
)
def test_lorentz_domain(alpha, beta, mu):
    with pytest.raises(DomainError):
        quad.lorentz_log_integral(alpha, beta, mu)


def _lorentz_tail(alpha: float, beta: float, mu: float, R: float) -> float:
    # integral over [R, inf): expand the integrand in 1/t^2
    lead = (2.0 * math.log(R) + 2.0 + math.log(mu)) / R
    sub = (
        beta * beta / mu
        - alpha * (2.0 * math.log(R) + 2.0 / 3.0)
        - alpha * math.log(mu)
    ) / (3.0 * R**3)
    return lead + sub


def test_lorentz_dual_route(rng):
    # closed form vs adaptive quadrature over [0, 1e4] plus the analytic
    # remainder; the two routes share no code path past the integrand
    cfg = quad.QuadratureConfig(abs_tol=1e-10, max_depth=48)
    for _ in range(20):
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.1, 3.0)
        mu = rng.uniform(0.5, 2.0)
        f = lambda t: math.log(beta * beta + mu * t * t) / (alpha + t * t)
        res = quad.integrate_adaptive(f, 0.0, 1e4, cfg)
        numeric = res.value + _lorentz_tail(alpha, beta, mu, 1e4)
        assert abs(numeric - quad.lorentz_log_integral(alpha, beta, mu)) < 1e-9
