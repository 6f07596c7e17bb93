"""End-to-end acceptance checks.

One test per published claim, one printed PASS/FAIL line each (visible with
pytest -s; pytest -v shows the per-criterion verdict either way).  Where a
published decimal contradicts an exact identity that the same source also
asserts, the suite checks the identity-consistent value and emits a loud
warning with the measured gap instead of silently matching a corrupt cell.
One criterion is knowingly red: the default-height numeric average drifts
from the closed form left of the anchor by more than the stated bound, and
the bound is asserted as stated rather than widened to make it green.
"""
import math
import time
import warnings

import numpy as np
import pytest

from magneton import cli, diagnostics, magneton, quad, specfun, taylor

GAMMA = specfun.EULER_GAMMA
LAMBDA1 = 1.0 + 0.5 * GAMMA - 0.5 * math.log(4.0 * math.pi)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_strip_table():
    published = {
        1.0: 3.016745,
        0.0: -2.189208,
        0.8: 1.639400,
        0.7: 1.052322,
        0.3: -0.918670,
        0.6: 0.509444,
        0.55: 0.251081,
        0.45: -0.237435,
    }
    # The published 0.2 cell reads -1.396331, which is 4.35e-2 away from the
    # value forced by the same table's 0.8 cell together with the exact
    # antisymmetry identity phi(rho) - phi(1-rho) = f(rho) (checked to 1e-10
    # in criterion 5).  Both cannot hold at once; the identity wins.
    consistent_02 = -1.352803
    warnings.warn(
        "published value -1.396331 at rho=0.2 contradicts the table's own "
        "0.8 entry through the exact antisymmetry identity (forced value "
        f"{published[0.8] + magneton.symmetry_defect(0.2):.6f}, gap 4.35e-2); "
        "checking the identity-consistent value instead",
        stacklevel=1,
    )
    published[0.2] = consistent_02

    t0 = time.perf_counter()
    got = {rho: magneton.phi_closed(rho) for rho in published}
    elapsed = time.perf_counter() - t0
    bad = {
        rho: abs(got[rho] - published[rho])
        for rho in published
        if abs(got[rho] - published[rho]) >= 5e-5
    }
    _report(1, not bad and elapsed < 1.0,
            f"nine strip values vs 5e-5 (0.2 via identity), {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not bad, f"strip table misses 5e-5 at {bad}"


def test_criterion_2_right_table():
    published = {
        1.2: 2.261725,
        1.5: 1.563571,
        2.0: 0.922933,
        2.5: 0.578160,
        3.0: 0.374864,
        4.0: 0.167332,
        6.0: 0.037493,
    }
    t0 = time.perf_counter()
    got = {rho: magneton.phi_closed(rho) for rho in published}
    elapsed = time.perf_counter() - t0
    bad = {
        rho: abs(got[rho] - published[rho])
        for rho in published
        if abs(got[rho] - published[rho]) >= 5e-5
    }
    _report(2, not bad and elapsed < 1.0,
            f"seven right-of-strip values vs 5e-5, {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not bad, f"right-of-strip table misses 5e-5 at {bad}"


def test_criterion_3_numeric_vs_closed():
    # Knowingly red at rho=0.2.  The height-50 truncated average sits
    # ~1.9e-2 below the closed form there (the drift grows roughly linearly
    # in (1/2 - rho), measured slope ~6e-2 per unit; see test_quad and
    # test_magneton for the model checks), so the stated 5e-3 cannot hold.
    # The bound is asserted as stated; widening it here would just hide the
    # truncation behaviour the numeric route is supposed to expose.
    tol = {0.0: 5e-2, 0.2: 5e-3, 0.5: 5e-3, 0.8: 5e-3, 2.0: 5e-3}
    cfg = quad.QuadratureConfig()
    t0 = time.perf_counter()
    gaps = {
        rho: abs(quad.phi_numeric(rho, cfg).value - magneton.phi_closed(rho))
        for rho in tol
    }
    elapsed = time.perf_counter() - t0
    bad = {rho: g for rho, g in gaps.items() if g >= tol[rho]}
    _report(3, not bad and elapsed < 60.0,
            "default-height average vs closed form: "
            + ", ".join(f"rho={r:g} gap {gaps[r]:.2e} (tol {tol[r]:.0e})"
                        for r in sorted(gaps))
            + f", {elapsed:.1f}s")
    assert elapsed < 60.0
    assert not bad, (
        f"truncated average misses the stated bound at {bad}; the gap is "
        "height-50 truncation drift, not quadrature error (the same run "
        "meets 5e-3 at every point right of 0.5)"
    )


def test_criterion_4_field_constants():
    volchkov = math.pi * (3.0 - GAMMA)
    field_half_plus = math.pi * (1.0 + GAMMA)
    slope = 0.5 * math.pi * (math.log(math.pi) + GAMMA + 2.0 * math.log(2.0))
    warnings.warn(
        "published decimals 7.611177 / 4.954967 / 4.882410 are roundings of "
        "the defining formulas evaluated with gamma truncated to 0.577215; "
        "they sit 2.3e-4 / 2.0e-6 / 1.8e-6 from the true values "
        f"{volchkov:.7f} / {field_half_plus:.7f} / {slope:.7f}, so the "
        "formula values are checked at 1e-6, not those decimals",
        stacklevel=1,
    )
    checks = {
        "jump_at_one exact": magneton.jump_at_one() == 4.0 * math.pi,
        "jump_at_one numeric 1e-4": abs(
            magneton.numeric_jump_at_one() - 4.0 * math.pi) < 1e-4,
        "volchkov_delta 1e-6": abs(
            magneton.volchkov_delta() - volchkov) < 1e-6,
        "lambda_one vs 0.0230957 1e-6": abs(
            magneton.lambda_one() - 0.0230957) < 1e-6,
        "field_E(1/2+) 1e-6": abs(
            magneton.field_E_onesided(0.5, "+") - field_half_plus) < 1e-6,
        "slope_at_half 1e-6": abs(magneton.slope_at_half() - slope) < 1e-6,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report(4, not bad, "field and well constants vs defining formulas")
    assert not bad, f"constant checks failed: {bad}"


def test_criterion_5_symmetries(capsys):
    rng = np.random.default_rng(20260822)
    worst_id = 0.0
    for rho in rng.uniform(-3.0, 4.0, size=200):
        lhs = magneton.phi_closed(rho) - magneton.phi_closed(1.0 - rho)
        worst_id = max(worst_id, abs(lhs - magneton.symmetry_defect(rho)))

    worst_xi = 0.0
    for a, b in zip(np.linspace(-1.5, 2.5, 50), np.linspace(0.1, 30.0, 50)):
        s = complex(a, b)
        m1, m2 = abs(specfun.xi(s)), abs(specfun.xi(1.0 - s))
        worst_xi = max(worst_xi, abs(m1 - m2) / abs(m2))

    assert cli.main(["figure", "well"]) == 0
    out = capsys.readouterr().out
    rows = [ln.split(",") for ln in out.splitlines()
            if ln and not ln.startswith("#")][1:]
    by_x = {r[0]: r[1] for r in rows}
    mirror_ok = all(
        by_x[f"{2.0 - float(xs):.12g}"] == vs for xs, vs in by_x.items()
    )

    ok = worst_id < 1e-10 and worst_xi < 1e-10 and mirror_ok
    _report(5, ok,
            f"antisymmetry worst {worst_id:.1e}, completed-zeta functional "
            f"equation worst rel {worst_xi:.1e}, emitted well grid mirrors "
            "to the printed digit")
    assert worst_id < 1e-10
    assert worst_xi < 1e-10
    assert mirror_ok


def test_criterion_6_well_zeros():
    x1, x2 = diagnostics.well_zeros()
    mag = abs(specfun.xi(x1))
    ok = (abs(x1 - 1.610217484) < 1e-7
          and abs(x2 - 0.389782516) < 1e-7
          and abs(mag - 1.022934630) < 1e-6)
    _report(6, ok, f"well zeros {x1:.9f}/{x2:.9f}, |xi(x1)| = {mag:.9f}")
    assert abs(x1 - 1.610217484) < 1e-7
    assert abs(x2 - 0.389782516) < 1e-7
    assert abs(mag - 1.022934630) < 1e-6


def test_criterion_7_prime_route():
    exact = taylor.rearranged_at_one_exact(13)
    prime13 = taylor.compute_coefficients(13, 10**6)
    low = taylor.rearranged_at_one(prime13.c, 2)
    honest = all(
        abs(prime13.c[n] - cn_exact) <= prime13.c_bounds[n]
        for n, cn_exact in enumerate(
            taylor.compute_coefficients_exact(13))
    )
    # The order-13 slope tolerance was left open pending a convergence
    # study.  The study: the exact-coefficient route reproduces the slope
    # to 2e-17 at order 13 while the prime-sum route floors near 6e-4
    # (tail fluctuation at table limit 1e6), so the exact route carries
    # the order-13 claim and its tolerance is set to 1e-12.
    checks = {
        "rearranged order-13 value <= 1e-18": abs(exact.value) <= 1e-18,
        "slope gap at low order < 8e-4": abs(low.slope - LAMBDA1) < 8e-4,
        "slope gap at order 13 <= 1e-12": abs(exact.slope - LAMBDA1) <= 1e-12,
        "prime tail bounds contain truth": honest,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report(7, not bad,
            f"rearranged value {exact.value:.3e}, low-order slope gap "
            f"{abs(low.slope - LAMBDA1):.2e}, order-13 slope gap "
            f"{abs(exact.slope - LAMBDA1):.2e}")
    assert not bad, f"prime-route checks failed: {bad}"


def _lorentz_tail(alpha: float, beta: float, mu: float, R: float) -> float:
    lead = (2.0 * math.log(R) + 2.0 + math.log(mu)) / R
    sub = (
        beta * beta / mu
        - alpha * (2.0 * math.log(R) + 2.0 / 3.0)
        - alpha * math.log(mu)
    ) / (3.0 * R**3)
    return lead + sub


def test_criterion_8_infrastructure():
    zeta2 = abs(specfun.zeta(2.0).real - math.pi**2 / 6.0)

    conj = max(
        abs(specfun.zeta(s.conjugate()) - specfun.zeta(s).conjugate())
        for s in (complex(0.5, 14.1), complex(2.5, -31.0),
                  complex(-0.5, 8.0), complex(1.3, 99.0))
    )

    # the integral over [0, inf) of ln(beta^2 + t^2)/(alpha + t^2) is
    # (pi/sqrt(alpha)) ln(sqrt(alpha) + beta), here with alpha = beta^2 = 1/4
    closed = math.pi / math.sqrt(0.25) * math.log(math.sqrt(0.25) + 0.5)
    (res,) = quad._integrate(
        lambda t, lines: (np.log(0.25 + t * t) / (0.25 + t * t))[None, :],
        [0.0, 1e4], quad.QuadratureConfig(abs_tol=1e-10, max_depth=48),
    )
    numeric = res.value + _lorentz_tail(0.25, 0.5, 1.0, 1e4)

    worst_pg = 0.0
    h = 1e-5
    for m in (1, 2, 3):
        lower = (specfun.digamma if m == 1
                 else lambda u, mm=m: specfun.polygamma(mm - 1, u))
        for x in (0.7, 1.5, 2.3):
            fd = (lower(x + h) - lower(x - h)) / (2.0 * h)
            ref = specfun.polygamma(m, x)
            worst_pg = max(worst_pg, abs(fd - ref) / abs(ref))

    ok = (zeta2 < 1e-12 and conj < 1e-13 and closed == 0.0
          and abs(numeric) < 1e-8 and worst_pg < 1e-6)
    _report(8, ok,
            f"zeta(2) gap {zeta2:.1e}, conjugation {conj:.1e}, vanishing "
            f"log integral closed {closed:g} / numeric {numeric:.1e}, "
            f"polygamma FD worst rel {worst_pg:.1e}")
    assert zeta2 < 1e-12
    assert conj < 1e-13
    assert closed == 0.0
    assert abs(numeric) < 1e-8
    assert worst_pg < 1e-6
