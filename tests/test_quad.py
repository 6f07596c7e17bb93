import hashlib
import json
import math
import pathlib
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest

from magneton import magneton, quad, specfun
from magneton.errors import ConvergenceError, DomainError

# Frozen half-line averages at t_max = 50, computed independently at 20
# significant digits with the integration interval split at every zeta
# zero below the cutoff (the references of perfbench/refs.json).  The
# package must land on these, not near them: rho = 0.5 runs through the
# zeros and rho = 1 starts at the pole, and both are panel ends.
PHI_T50 = {
    0.0: -2.2201178177501101,
    0.2: -1.371468375869684,
    0.5: -0.00036463801779817649679,
    0.8: 1.6391796523380856,
    1.0: 3.016576496675403,
    2.0: 0.92288064141778046,
}
PHI_TOL = dict.fromkeys(PHI_T50, 1e-11)

REFS = pathlib.Path(__file__).parents[1] / "perfbench" / "refs.json"

# mpmath.zetazero(n).imag for n = 1..79, every zero below the window's
# height 200
ZETA_ZEROS = (
    14.134725141734694, 21.022039638771555, 25.010857580145689,
    30.424876125859513, 32.93506158773919, 37.586178158825671,
    40.918719012147495, 43.327073280915, 48.00515088116716, 49.773832477672302,
    52.970321477714461, 56.446247697063395, 59.347044002602353,
    60.83177852460981, 65.112544048081607, 67.079810529494174,
    69.546401711173979, 72.067157674481908, 75.704690699083933,
    77.144840068874805, 79.337375020249368, 82.91038085408603,
    84.73549298051705, 87.425274613125229, 88.809111207634465,
    92.491899270558484, 94.651344040519887, 95.87063422824531,
    98.831194218193692, 101.31785100573139, 103.72553804047834,
    105.44662305232609, 107.16861118427641, 111.02953554316967,
    111.87465917699264, 114.32022091545271, 116.22668032085755,
    118.79078286597622, 121.37012500242065, 122.94682929355259,
    124.25681855434577, 127.5166838795965, 129.57870419995605,
    131.08768853093266, 133.49773720299759, 134.75650975337387,
    138.11604205453344, 139.73620895212139, 141.12370740402112,
    143.11184580762063, 146.00098248676552, 147.4227653425596,
    150.05352042078488, 150.92525761224147, 153.0246938111989,
    156.11290929423787, 157.59759181759406, 158.8499881714205,
    161.18896413759603, 163.03070968718199, 165.53706918790042,
    167.18443997817451, 169.09451541556882, 169.9119764794117,
    173.41153651959155, 174.75419152336573, 176.44143429771042,
    178.37740777609998, 179.916484020257, 182.20707848436646,
    184.87446784838751, 185.59878367770747, 187.22892258350185,
    189.41615865601694, 192.02665636071379, 193.0797266038457,
    195.26539667952924, 196.87648184095832, 198.01530967625191,
)

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
        {"abs_tol": math.inf},  # every panel would close at level 0
        {"max_depth": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(DomainError):
        quad.QuadratureConfig(**kwargs)


# `quad._integrate` takes an integrand as `fv(t, lines)`: the (lines, t)
# array of values at the abscissae t; the one-line integrands below ignore
# `lines` and return one row


def test_exact_on_polynomial():
    # tanh-sinh is not exact on polynomials, but it reaches the rounding
    # level, and the rounding term keeps the estimate above the error
    cfg = quad.QuadratureConfig(abs_tol=1e-12)
    (res,) = quad._integrate(lambda t, lines: t[None, :] ** 3, [0.0, 1.0], cfg)
    assert abs(res.value - 0.25) <= res.error_estimate < 1e-15


def test_integrate_smooth():
    cfg = quad.QuadratureConfig(abs_tol=1e-12)
    (res,) = quad._integrate(lambda t, lines: np.cos(t)[None, :], [-1.0, 1.0], cfg)
    assert abs(res.value - 2.0 * math.sin(1.0)) < 1e-12
    (res,) = quad._integrate(lambda t, lines: np.exp(t)[None, :], [0.0, 1.0], cfg)
    assert abs(res.value - (math.e - 1.0)) < 1e-12
    assert res.n_evals >= 5


def test_depth_budget_raises():
    cfg = quad.QuadratureConfig(abs_tol=1e-14, max_depth=2)
    kink = lambda t, lines: np.sqrt(np.abs(t - 0.3))[None, :]
    with pytest.raises(ConvergenceError, match="depth"):
        quad._integrate(kink, [0.0, 1.0], cfg)


@pytest.mark.parametrize("rho", sorted(PHI_T50))
def test_phi_numeric_frozen(rho):
    got = quad.phi_numeric(rho).value
    assert abs(got - PHI_T50[rho]) < PHI_TOL[rho], (rho, got)


# (n_evals, max_depth_used) at the default config: the nodes and the
# levels at which each panel closes are deterministic
PHI_COUNTERS = {0.0: (1074, 5), 0.5: (677, 5), 1.0: (1098, 5), 2.0: (827, 5)}


@pytest.mark.parametrize("rho", sorted(PHI_COUNTERS))
def test_phi_numeric_counters(rho):
    det = quad.phi_numeric(rho)
    assert (det.n_evals, det.max_depth_used) == PHI_COUNTERS[rho]


def _cusps(t):
    return np.sqrt(np.abs(t - 0.3)) + np.sqrt(np.abs(t - 0.8))


@pytest.mark.parametrize(
    "f,kwargs,want",
    [
        (
            _cusps,
            {"abs_tol": 1e-14, "max_depth": 3},
            "panel [0, 1] not converged at depth limit 3: error 0.00809 > 1e-14",
        ),
        (
            _cusps,
            {"abs_tol": 1e-14, "max_depth": 2},
            "panel [0, 1] not converged at depth limit 2: error 0.0325 > 1e-14",
        ),
        (lambda t: np.where(t > 0.5, math.inf, 1.0), {}, "non-finite integrand on panel [0, 1]"),
        (
            lambda t: np.where((0.2 < t) & (t < 0.4) | (t > 0.7), math.nan, t),
            {},
            "non-finite integrand on panel [0, 1]",
        ),
    ],
    ids=["depth3", "depth2", "inf", "nan"],
)
def test_failure_messages(f, kwargs, want):
    with pytest.raises(ConvergenceError) as got:
        quad._integrate(lambda t, lines: f(t)[None, :], [0.0, 1.0], quad.QuadratureConfig(**kwargs))
    assert str(got.value) == want


def test_failures_name_the_leftmost_panel():
    # panel [0, 1] closes; [1, 2] and [2, 3] hold a kink or a NaN each
    edges = [0.0, 1.0, 2.0, 3.0]
    cfg = quad.QuadratureConfig(abs_tol=1e-9, max_depth=3)
    kinks = lambda t, lines: (np.sqrt(np.abs(t - 1.5)) + np.sqrt(np.abs(t - 2.5)))[None, :]
    want = r"^panel \[1, 2\] not converged at depth limit 3: error \S+ > 3.33e-10$"
    with pytest.raises(ConvergenceError, match=want):
        quad._integrate(kinks, edges, cfg)
    nans = lambda t, lines: np.where(t > 1.5, math.nan, t)[None, :]
    with pytest.raises(ConvergenceError, match=r"^non-finite integrand on panel \[1, 2\]$"):
        quad._integrate(nans, edges, cfg)


def test_zero_ordinates_match_zetazero():
    got = quad._zero_ordinates(200.0)
    assert len(got) == len(ZETA_ZEROS)
    assert max(abs(a - b) for a, b in zip(got, ZETA_ZEROS)) <= 1e-12


# sha256 of the ordinates packed as little-endian doubles: the panel ends
# of every table, whose goldens exist only at T = 50
ZERO_DIGESTS = {
    50.0: (10, "62cc1d0f50c3c1b7955edc2a81bfb4d4cb3f3d028d6c79ba48b02d766e37f7d6"),
    100.0: (29, "6809107dea6f1058ec7cf6b79dfa77d791fffdc8eff912a2d929a56d22df8468"),
    200.0: (79, "03eae62a697b5eb9c6294456ef4d357dea56fdae13df445fce9ee18629f0d6b6"),
}


@pytest.mark.parametrize("t_max", sorted(ZERO_DIGESTS))
def test_zero_ordinates_pinned(t_max):
    got = quad._zero_ordinates(t_max)
    digest = hashlib.sha256(struct.pack(f"<{len(got)}d", *got)).hexdigest()
    assert (len(got), digest) == ZERO_DIGESTS[t_max]


def test_lockstep_bisection_equals_each_bracket_alone():
    # each of the search's own grid cells bisected by itself, with Z at
    # every midpoint, one midpoint per call, ends where the search ends it
    z = quad._hardy_z(100.0)
    n = math.ceil(100.0 / quad._Z_STEP)
    grid = np.array([100.0 * k / n for k in range(n + 1)])
    signs = z(grid) > 0.0
    at = np.flatnonzero(signs[1:] != signs[:-1])
    alone = []
    for lo, hi, sign in zip(grid[at].tolist(), grid[at + 1].tolist(), signs[at].tolist()):
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (z(np.array([mid]))[0] > 0.0) == sign:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        alone.append(lo)
    assert len(alone) == 29
    quad._zero_ordinates.cache_clear()
    assert quad._zero_ordinates(100.0) == tuple(alone)


def test_hardy_z_bits_do_not_depend_on_the_call():
    # the search gathers the midpoints of many brackets into one call of Z,
    # so the value at an abscissa must not depend on what else the call holds
    rng = np.random.default_rng(28)
    t = 200.0 - rng.uniform(0.0, 200.0, 500)  # in (0, 200]
    z = quad._hardy_z(200.0)
    whole = z(t)
    one = np.concatenate([z(t[i : i + 1]) for i in range(t.size)])
    order = rng.permutation(t.size)
    shuffled = np.empty_like(whole)
    shuffled[order] = z(t[order])
    assert whole.tobytes() == one.tobytes() == shuffled.tobytes()


def test_zero_search_evaluates_each_abscissa_once(monkeypatch):
    # the grid's signs serve as the brackets' left ends: no Z value is
    # computed twice
    seen = []
    hardy_z = quad._hardy_z

    def counted(t_max):
        z = hardy_z(t_max)
        return lambda t: seen.extend(t.tolist()) or z(t)

    monkeypatch.setattr(quad, "_hardy_z", counted)
    quad._zero_ordinates.cache_clear()
    assert len(quad._zero_ordinates(50.0)) == 10
    assert len(seen) == len(set(seen))


def _plain_zero_ordinates(t_max: float) -> tuple[float, ...]:
    # the search without polish or replay: the grid's sign changes, bisected
    # in lockstep with Z computed at every midpoint
    n = math.ceil(t_max / quad._Z_STEP)
    grid = np.array([t_max * k / n for k in range(n + 1)])
    z = quad._hardy_z(t_max)
    positive = lambda t: z(t) > 0.0
    signs = positive(grid)
    at = np.flatnonzero(signs[1:] != signs[:-1])
    lo, hi, sign = grid[at], grid[at + 1], signs[at]
    while True:
        mid = 0.5 * (lo + hi)
        open_ = ((lo < mid) & (mid < hi)).nonzero()[0]
        if not open_.size:
            return tuple(lo.tolist())
        same = positive(mid[open_]) == sign[open_]
        lo[open_[same]] = mid[open_[same]]
        hi[open_[~same]] = mid[open_[~same]]


@pytest.mark.parametrize(
    "t_max",
    [50.0, 100.0, 200.0, *np.random.default_rng(25).uniform(14.2, 200.0, 40).tolist()],
)
def test_zero_search_equals_plain_bisection(t_max):
    quad._zero_ordinates.cache_clear()
    assert quad._zero_ordinates(t_max) == _plain_zero_ordinates(t_max)


def _flickering_z(t_max: float):
    # cos t, whose sign flips irregularly within 20 ulp of each zero
    # (k + 1/2) pi: wider than the 3 ulp in which rounding flips the sign of
    # Z next to some of its zeros
    def z(t: np.ndarray) -> np.ndarray:
        s = np.cos(t)
        flip = (np.abs(s) < 20.0 * np.spacing(t)) & np.isin(t.view(np.int64) % 7, (1, 2, 4))
        return np.where(flip, -s, s)

    return z


@pytest.mark.parametrize("t_max,zeros", [(50.0, 16), (200.0, 64)])
def test_zero_search_equals_plain_bisection_through_sign_noise(monkeypatch, t_max, zeros):
    # the replay computes every midpoint within reach of a polished bracket,
    # so a sign that flips there sends it where the plain bisection goes
    monkeypatch.setattr(quad, "_hardy_z", _flickering_z)
    got = quad._zero_ordinates.__wrapped__(t_max)  # past the cache
    assert len(got) == zeros
    assert got == _plain_zero_ordinates(t_max)


@pytest.mark.parametrize(
    "t_max,calls,values", [(50.0, 16, 332), (100.0, 16, 776), (200.0, 17, 1824)]
)
def test_zero_search_work(monkeypatch, t_max, calls, values):
    # the caps are the measured counts: one call for the grid, one per polish
    # step and one per replay round that needs Z; the plain bisection makes
    # 48 calls for 656, 1,696 and 4,259 values
    sizes = []
    hardy_z = quad._hardy_z

    def counted(t_max):
        z = hardy_z(t_max)
        return lambda t: sizes.append(t.size) or z(t)

    monkeypatch.setattr(quad, "_hardy_z", counted)
    quad._zero_ordinates.cache_clear()
    quad._zero_ordinates(t_max)
    assert len(sizes) <= calls
    assert sum(sizes) <= values


def test_polish_halves_where_the_secant_stalls():
    # Z as a step: each secant pair is flat or straddles the step, so the
    # halving rule does the shrinking, and no quotient warns on the way
    for step in (0.1, 0.0625, 0.24999):
        sizes = []

        def z(t):
            sizes.append(t.size)
            return np.where(t > step, 1.0, -1.0)

        width = quad._POLISH_ULP * np.spacing(np.array([0.25]))
        a, b = quad._polish(
            np.array([0.0]), np.array([0.25]), np.array([-1.0]), np.array([1.0]), width, z
        )
        assert a[0] <= step < b[0] and b[0] - a[0] <= width[0]
        # at most one halving in every _HALVING_STEPS + 1 steps
        halvings = math.ceil(math.log2(0.25 / width[0]))
        assert len(sizes) <= (quad._HALVING_STEPS + 1) * halvings


def test_phi_numeric_t_max_on_first_zero():
    # t_max a few ulp above the first ordinate leaves a last panel a few
    # ulp wide; with its equal share of the tolerance it still closes
    cfg = quad.QuadratureConfig(t_max=14.1347251417347)
    assert quad._zero_ordinates(cfg.t_max) == (14.134725141734693,)
    below = quad.QuadratureConfig(t_max=14.134725141734693)
    assert quad._zero_ordinates(below.t_max) == ()
    got = quad.phi_numeric(0.5, cfg)
    assert got.error_estimate <= cfg.abs_tol
    assert abs(got.value - quad.phi_numeric(0.5, below).value) <= 1e-12


def test_missed_zero_refuses(monkeypatch):
    # the ordinates are hints: without the first one the rho = 1/2 line
    # keeps a log singularity inside a panel and exits 3 rather than print a
    # wrong value, while a line beside the zeros only costs more nodes
    beside = quad.phi_numeric(0.45).value
    zeros = quad._zero_ordinates(50.0)[1:]
    monkeypatch.setattr(quad, "_zero_ordinates", lambda t_max: zeros)
    with pytest.raises(ConvergenceError, match="above the cap"):
        quad.phi_numeric(0.5)
    assert abs(quad.phi_numeric(0.45).value - beside) <= 1e-11


@pytest.mark.parametrize("rho", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_line_kernel_matches_scalar(rng, rho):
    # against mpmath's zeta at 30 digits.  The kernel's error in |zeta| is
    # below 2e-12 relative to max(1, |zeta|): 600 points per line measured
    # 1.5e-12 at rho = -1, 3.6e-13 at 0, 1.3e-13 at 1/2 and 3e-14 at 1.  In
    # ln|zeta| that is the error divided by min(1, |zeta|)
    t = np.concatenate((rng.uniform(-200.0, 200.0, 20), rng.uniform(0.0, 50.0, 20)))
    if rho == 1.0:  # beside the pole
        t[:8] = 1e-12 + rng.uniform(-5e-13, 5e-13, 8)
    one = np.zeros(1, dtype=np.intp)
    got = quad._zeta_lines([rho], 200.0)(t, one)[0]
    with mpmath.workdps(30):
        az = [abs(mpmath.zeta(mpmath.mpc(rho, x))) for x in t.tolist()]
        err = [abs(mpmath.log(a) - g) * min(1, a) for a, g in zip(az, got.tolist())]
    assert max(err) <= 3e-12, max(err)
    if rho == 0.5:
        # on top of the first zero, |zeta| ~ 1e-7, the sum cancels down to
        # its rounding, so the modulus is good to an absolute error rather
        # than its log: 4.6e-15 measured over 40 points
        t = 14.134725 + rng.uniform(-1e-6, 1e-6, 40)
        got = np.exp(quad._zeta_lines([rho], 200.0)(t, one)[0])
        with mpmath.workdps(30):
            want = [abs(mpmath.zeta(mpmath.mpc(rho, x))) for x in t.tolist()]
        assert max(abs(float(w) - g) for w, g in zip(want, got.tolist())) <= 1e-14


def test_line_kernel_error_signals(monkeypatch):
    # a modulus below the floor is a zero hit and maps to -inf: the trivial
    # zero at s = -2 and the first nontrivial one
    for rho, t, floor in ((-2.0, 0.0, 1e-10), (0.5, 14.134725141734693, 1e-12)):
        monkeypatch.setattr(quad, "_ZERO_FLOOR", floor)
        got = quad._zeta_lines([rho], t + 1.0)(np.array([t, t + 1.0]), np.zeros(1, dtype=np.intp))[0]
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


def test_phi_error_estimate_contains_reference():
    # every line of the benchmark's grid on [-1, 3]: the 20-digit reference
    # lies within the error estimate, with no factor or slack
    refs = json.loads(REFS.read_text(encoding="utf-8"))["table"]
    assert refs["t_max"] == quad.QuadratureConfig().t_max
    assert len(refs["phi_truncated"]) == 81
    with mpmath.workdps(30):
        for key, ref in refs["phi_truncated"].items():
            det = quad.phi_numeric(float(key))
            err = abs(mpmath.mpf(det.value) - mpmath.mpf(ref))
            assert err <= det.error_estimate, (key, err, det.error_estimate)
            assert err <= 1e-11, (key, err)


def _grid() -> list[float]:
    """The 81 lines of the benchmark's table grid on [-1, 3]."""
    refs = json.loads(REFS.read_text(encoding="utf-8"))["table"]["phi_truncated"]
    return sorted(float(key) for key in refs)


def test_lines_equal_each_line_alone(monkeypatch):
    # the lines share nodes and tables, never sums or decisions: every
    # result is the one its line gets alone, whatever the list around it
    grid = _grid()
    alone = [quad.phi_numeric(rho) for rho in grid]
    assert quad.phi_numeric_lines(grid) == alone
    assert quad.phi_numeric_lines(grid[::-1]) == alone[::-1]
    assert quad.phi_numeric_lines(grid[5:40:3]) == alone[5:40:3]
    monkeypatch.setattr(quad, "_BATCH_BYTES", 2**14)  # batches of 9 lines
    assert quad.phi_numeric_lines(grid[::4]) == alone[::4]


# the 40 lines of the benchmark's table-sweep at seed 1
SWEEP_LINES = (
    -0.9, -0.8, -0.7, -0.55, -0.45, -0.3, -0.2, -0.1, 0.0, 0.1, 0.15, 0.25, 0.35, 0.5,
    0.55, 0.65, 0.7, 0.85, 0.95, 1.0, 1.05, 1.2, 1.25, 1.4, 1.5, 1.6, 1.7, 1.75, 1.85,
    2.0, 2.05, 2.15, 2.25, 2.35, 2.5, 2.55, 2.7, 2.75, 2.85, 3.0,
)


@pytest.mark.parametrize(
    "lines,pairs,calls",
    [(None, 73567, 94), (SWEEP_LINES, 36552, 66)],
    ids=["grid", "sweep"],
)
def test_lines_build_one_n_it_row_per_node(monkeypatch, lines, pairs, calls):
    # the lines at T = 50 evaluate their (line, node) pairs at 1,146
    # distinct nodes, each node in one kernel call for every line open
    # there, so each node's n^-it row is built once
    rows, sizes = [], []
    build, zeta_lines = specfun._n_pow_it, quad._zeta_lines
    quad._zero_ordinates(50.0)  # the zero search, which builds rows of its own, once
    monkeypatch.setattr(specfun, "_n_pow_it", lambda t, logn: rows.append(t.size) or build(t, logn))

    def counted(rhos, t_top):
        log_abs = zeta_lines(rhos, t_top)
        return lambda t, lines: sizes.append(t.size * lines.size) or log_abs(t, lines)

    monkeypatch.setattr(quad, "_zeta_lines", counted)
    got = quad.phi_numeric_lines(list(lines or _grid()))
    assert sum(det.n_evals for det in got) == sum(sizes) == pairs
    assert len(sizes) == calls
    assert sum(rows) == 1146


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n,t_max",
    [
        pytest.param(40, 50.0, id="40"),
        pytest.param(400, 50.0, id="400"),
        pytest.param(64, 200.0, id="64-T200"),
    ],
)
def test_lines_memory_peak(n, t_max):
    # batches sized by bytes and capped kernel blocks keep the traced peak
    # flat, also at T = 200, where a line holds 259 terms and 80 panels
    cfg = quad.QuadratureConfig(t_max=t_max)
    lines = [round(-1.0 + 4.0 * i / n, 3) for i in range(n)]
    quad.phi_numeric_lines(lines[:1], cfg)  # the zero ordinates and log table, once
    peak = _traced_peak(lambda: quad.phi_numeric_lines(lines, cfg))
    assert peak < 2**20, peak


def test_zero_search_memory_peak():
    # Z hands its whole grid, 801 abscissae at T = 200, to the kernel in one
    # call, which holds one n^-it table of at most specfun._TERMS values at
    # a time
    quad._zero_ordinates.cache_clear()
    peak = _traced_peak(lambda: quad._zero_ordinates(200.0))
    assert peak < 2**20, peak


def _alone(rho: float, cfg: quad.QuadratureConfig):
    try:
        return quad.phi_numeric(rho, cfg)
    except ConvergenceError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "lines,depth",
    [
        ([2.0, 0.5, 1.0, 0.2], 40),  # 1.0 is the first line over the cap
        ([2.0, 1.0], 4),  # 1.0 meets the cap on level 4 before 2.0 ends it
        ([1.0, 2.0], 4),
    ],
)
def test_lines_raise_the_first_failure_alone(monkeypatch, lines, depth):
    monkeypatch.setattr(quad, "_MAX_NODES", 300)
    cfg = quad.QuadratureConfig(max_depth=depth)
    first = next(a for a in (_alone(rho, cfg) for rho in lines) if isinstance(a, str))
    with pytest.raises(ConvergenceError) as got:
        quad.phi_numeric_lines(lines, cfg)
    assert str(got.value) == first


def test_failure_builds_no_unread_table(monkeypatch):
    # once a failure closes every line of a panel, the rest of its nodes
    # get no kernel call: every call has a line still open
    monkeypatch.setattr(quad, "_MAX_NODES", 300)
    sizes = []
    zeta_lines = quad._zeta_lines

    def counted(rhos, t_top):
        log_abs = zeta_lines(rhos, t_top)
        return lambda t, lines: sizes.append(lines.size) or log_abs(t, lines)

    monkeypatch.setattr(quad, "_zeta_lines", counted)
    with pytest.raises(ConvergenceError, match="above the cap 300"):
        quad.phi_numeric_lines([2.0, 0.5, 1.0, 0.2])
    assert len(sizes) == 49 and min(sizes) > 0


@pytest.mark.parametrize("bad", [0, 1])
def test_failure_closes_its_lines_mid_panel(bad):
    # 300 lines take 3 nodes a call, so the 7 nodes of level 0 go in three
    # calls.  Line `bad` is infinite right of t = 1/2, which the second call
    # reaches; no later call holds it or a line after it
    seen = []

    def f(t, lines):
        seen.append(lines.tolist())
        out = np.ones((lines.size, t.size))
        out[lines == bad] = np.where(t > 0.5, math.inf, 1.0)
        return out

    with pytest.raises(ConvergenceError, match="non-finite integrand on panel"):
        quad._integrate(f, [0.0, 1.0], quad.QuadratureConfig(), 300)
    assert seen[:2] == [list(range(300))] * 2
    if bad:  # line 0 integrates on alone
        assert seen[2:] and all(lines == [0] for lines in seen[2:])
    else:
        assert seen[2:] == []


def test_lines_refuse_in_order():
    cfg = quad.QuadratureConfig(max_depth=4)
    with pytest.raises(ConvergenceError, match="depth limit 4"):
        quad.phi_numeric_lines([2.0, math.nan], cfg)
    with pytest.raises(DomainError, match="finite"):
        quad.phi_numeric_lines([math.nan, 2.0], cfg)
    with pytest.raises(DomainError, match="left of the supported window"):
        quad.phi_numeric_lines([0.5, -5.0])


def test_panel_cap(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_NODES", 64)
    cfg = quad.QuadratureConfig(abs_tol=1e-10)
    want = r"open at depth \d+, above the cap 64: tolerance 1e-10"
    with pytest.raises(ConvergenceError, match=want):
        quad.phi_numeric(2.0, cfg)
    cusps = lambda t, lines: _cusps(t)[None, :]
    with pytest.raises(ConvergenceError, match="above the cap 64"):
        quad._integrate(cusps, [0.0, 1.0], quad.QuadratureConfig(abs_tol=1e-30))


def test_phi_rejects_nonfinite():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            quad.phi_numeric(bad)


def test_phi_deterministic():
    a = quad.phi_numeric(0.8)
    b = quad.phi_numeric(0.8)
    assert a == b


def test_integrand_even_in_t():
    kern, cfg = quad._zeta_lines([0.8], 50.0), quad.QuadratureConfig()
    g = lambda t, lines: kern(t, lines) / (0.25 + t * t)
    (full,) = quad._integrate(g, [-50.0, 50.0], cfg)
    (half,) = quad._integrate(g, [0.0, 50.0], cfg)
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


@pytest.mark.parametrize("t_max", [50.0, 100.0])
def test_quadrature_kinks_are_the_papers_jumps(t_max):
    # the kink phi_T'(p+) - phi_T'(p-) of the truncated average, from
    # second-order one-sided differences K(h) with h = 1e-3, Richardson-
    # extrapolated as (4K(h/2) - K(h))/3.  Each zero 1/2 + i*gamma below T
    # adds 2*pi/(1/4 + gamma^2) at 1/2, the pole adds -4*pi at 1, and no
    # charge lies on Re s = 0.  Measured at both heights: +1.54e-9 from the
    # zero sum at 1/2, +2.50e-8 from -4*pi at 1, 2.0e-10 at 0.
    cfg = quad.QuadratureConfig(t_max=t_max, abs_tol=1e-12)
    h = 1e-3

    def kink(p):
        offsets = (0.0, 0.5 * h, -0.5 * h, h, -h, 2.0 * h, -2.0 * h)
        phi = dict(zip(offsets, (r.value for r in quad.phi_numeric_lines(
            [p + d for d in offsets], cfg))))

        def k(e):
            return (4.0 * (phi[e] + phi[-e]) - (phi[2.0 * e] + phi[-2.0 * e])
                    - 6.0 * phi[0.0]) / (2.0 * e)

        return (4.0 * k(0.5 * h) - k(h)) / 3.0

    zero_sum = sum(1.0 / (0.25 + g * g) for g in quad._zero_ordinates(t_max))
    at_half = kink(0.5)
    assert abs(at_half - 2.0 * math.pi * zero_sum) <= 1e-8
    # the truncated kink approaches the paper's 2*pi*lambda_1 from below
    assert at_half < 2.0 * math.pi * magneton.lambda_one()
    assert abs(kink(1.0) + magneton.jump_at_one()) <= 1e-7
    assert abs(kink(0.0)) <= 1e-8


def _lorentz_closed(alpha: float, beta: float, mu: float) -> float:
    # integral over [0, inf) of ln(beta^2 + mu t^2)/(alpha + t^2), for
    # alpha > 0, beta >= 0, mu > 0
    return math.pi / math.sqrt(alpha) * math.log(math.sqrt(mu * alpha) + beta)


def test_lorentz_closed_examples():
    assert _lorentz_closed(0.25, 0.5, 1.0) == 0.0
    assert _lorentz_closed(1.0, 0.0, 1.0) == 0.0
    want = 2.0 * math.pi * math.log(1.5)
    assert abs(_lorentz_closed(0.25, 1.0, 1.0) - want) < 1e-12


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
    # closed form vs tanh-sinh quadrature over [0, 1e4] plus the analytic
    # remainder; the two routes share no code path past the integrand
    cfg = quad.QuadratureConfig(abs_tol=1e-10, max_depth=48)
    for _ in range(20):
        alpha = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.1, 3.0)
        mu = rng.uniform(0.5, 2.0)
        f = lambda t, lines: (np.log(beta * beta + mu * t * t) / (alpha + t * t))[None, :]
        (res,) = quad._integrate(f, [0.0, 1e4], cfg)
        numeric = res.value + _lorentz_tail(alpha, beta, mu, 1e4)
        assert abs(numeric - _lorentz_closed(alpha, beta, mu)) < 1e-9
