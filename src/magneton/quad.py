"""Quadrature of ln|zeta(rho + it)| against the Lorentz measure
dt/(1/4 + t^2).

The rule is tanh-sinh (Takahasi & Mori 1974) on panels.  On a panel with
midpoint c and half width r the substitution t = c + r tanh(pi/2 sinh u)
turns the integral into one over the whole u axis whose integrand decays
double exponentially, so the trapezoidal sum in u converges exponentially
in 1/h, also when the integrand has an integrable singularity at a panel
end.  Refinement runs level by level: level 0 takes the step h = 1, each
later level halves the step of every open panel and adds the nodes at the
odd multiples of the new step, and all new nodes of one level go through
one batched integrand call.  A panel closes once the change of its value
from the last level, plus the rounding term 2^-52 h sum|w f|, is within its
equal share abs_tol / n_panels of the tolerance; that sum is its error
estimate.  Nodes stop short of |u| = _U_MAX, and a node closer to its
panel end than the spacing of floats there is dropped, so no node lands on
an end.

`phi_numeric` splits [0, T] at the ordinates of the zeta zeros on the half
line, found as sign changes of Hardy's Z(t).  The log dips of the
rho = 1/2 line then sit at panel ends, where the rule handles them, and so
does the pole of the rho = 1 line at t = 0.  The ordinates are hints, not
an assumption: a panel holding a singularity the search missed does not
converge.

A panel still open at level ``max_depth`` raises ConvergenceError naming
the leftmost one, and a non-finite integrand value raises it naming its
panel.  So does a level of more than ``_MAX_NODES`` new nodes: an
unreachable tolerance would double them level after level until memory
runs out.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import specfun
from .errors import ConvergenceError, DomainError

_MAX_NODES = 2**16
# pi/2 sinh(3.5) = 26, so a node past it would lie within 3e-23 panel
# widths of its end: what the outer nodes leave out is far below the
# rounding term, even beside a log singularity
_U_MAX = 3.5
# the closest zeta zeros on the half line below the window's height 200 are
# 0.72 apart, so on a grid this fine each has a cell of its own
_Z_STEP = 0.25
# Rows of the n^-s table built per array pass in log_abs_zeta_line; caps
# the temporary at 64 x 260 complex values (about 270 kB).
_LINE_CHUNK = 64

# numpy is imported inside the functions that build arrays, so that the
# scalar commands (figure, constants) never load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class QuadratureConfig:
    t_max: float = 50.0
    abs_tol: float = 1e-8
    max_depth: int = 40  # levels of step halving per panel

    def __post_init__(self):
        if not (self.t_max > 0.0):
            raise DomainError("t_max must be positive")
        if self.t_max > specfun.IM_WINDOW:
            raise DomainError(
                f"t_max {self.t_max:g} beyond the zeta window {specfun.IM_WINDOW:g}"
            )
        if not (self.abs_tol > 0.0):
            raise DomainError("abs_tol must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    n_evals: int
    max_depth_used: int


def _integrate(
    fv: Callable[[np.ndarray], np.ndarray], edges: list[float], cfg: QuadratureConfig
) -> QuadResult:
    """Tanh-sinh over the panels between consecutive `edges`; `fv` maps an
    array of abscissae to the array of integrand values."""
    import numpy as np

    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    r = 0.5 * (hi - lo)
    n_pan = lo.size
    tol = cfg.abs_tol / n_pan
    wf_sum, wf_abs = np.zeros(n_pan), np.zeros(n_pan)  # over every node so far
    value, err = np.zeros(n_pan), np.full(n_pan, math.inf)
    is_open = np.ones(n_pan, dtype=bool)
    n_evals = 0
    for level in range(cfg.max_depth + 1):
        h = 0.5**level
        # new nodes: every multiple of h on level 0, the odd ones after it
        u = np.arange(h if level else 0.0, _U_MAX, 2.0 * h if level else h)
        # t = end -+ r*delta with delta = 1 -+ tanh(pi/2 sinh u), taken
        # without cancellation; the weight is r * g
        delta = 2.0 / (1.0 + np.exp(math.pi * np.sinh(u)))
        g = 0.5 * math.pi * np.cosh(u) * delta * (2.0 - delta)
        rows = np.flatnonzero(is_open)[:, None]
        d = r[rows] * delta
        ends = np.stack((lo[rows], hi[rows]))
        keep = d > np.spacing(np.abs(ends))
        if not level:
            keep[1, :, 0] = False  # u = 0 is the midpoint, taken once
        n_new = np.count_nonzero(keep)
        if n_new > _MAX_NODES:
            raise ConvergenceError(
                f"{n_new} nodes for the panels open at depth {level}, above the "
                f"cap {_MAX_NODES}: tolerance {cfg.abs_tol:.3g} is out of reach"
            )
        f = fv(np.stack((lo[rows] + d, hi[rows] - d))[keep])
        n_evals += f.size
        pan = np.broadcast_to(rows, keep.shape)[keep]
        bad = pan[~np.isfinite(f)]
        if bad.size:
            i = bad.min()
            raise ConvergenceError(
                f"non-finite integrand on panel [{lo[i]:.6g}, {hi[i]:.6g}]"
            )
        wf = np.broadcast_to(r[rows] * g, keep.shape)[keep] * f
        wf_sum += np.bincount(pan, wf, n_pan)
        wf_abs += np.bincount(pan, np.abs(wf), n_pan)
        new = h * wf_sum
        if level:
            err[is_open] = (np.abs(new - value) + 2.0**-52 * h * wf_abs)[is_open]
        value[is_open] = new[is_open]
        is_open &= err > tol
        if not is_open.any():
            return QuadResult(float(value.sum()), float(err.sum()), n_evals, level)
    i = np.flatnonzero(is_open)[0]
    raise ConvergenceError(
        f"panel [{lo[i]:.6g}, {hi[i]:.6g}] not converged at depth limit "
        f"{cfg.max_depth}: error {err[i]:.3g} > {tol:.3g}"
    )


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> QuadResult:
    """Tanh-sinh integral of f over the one panel [a, b], refined level by
    level; raises ConvergenceError if the depth budget runs out first."""
    import numpy as np

    cfg = config or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    return _integrate(
        lambda x: np.array([f(v) for v in x.tolist()], dtype=np.float64), [a, b], cfg
    )


@functools.cache
def _logn_array() -> np.ndarray:
    """`specfun._LOGN` as a read-only array, built once per process."""
    import numpy as np

    logn = np.array(specfun._LOGN)
    logn.flags.writeable = False
    return logn


def log_abs_zeta_line(rho: float, t) -> np.ndarray:
    """ln|zeta(rho + it)| at every t of a 1-D array.

    The Euler-Maclaurin sum of `specfun._reg_em` (same truncation max(30,
    ceil(1.3|t|)), same `_LOGN`, same `_B_OVER_FACT` corrections) in numpy
    complex arithmetic.  It agrees with `specfun.log_abs_zeta` to rounding,
    not bit for bit.  Errors and the zero signal are the scalar ones:
    DomainError at the pole s = 1 and outside the window, and -inf where
    |zeta| < specfun._ZERO_FLOOR."""
    import numpy as np

    rho = float(rho)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise DomainError(f"t must be a 1-D array, got shape {t.shape}")
    if not (math.isfinite(rho) and np.isfinite(t).all()):
        raise DomainError(f"non-finite argument on the line rho = {rho!r}")
    if not t.size:
        return np.empty(0)
    specfun._in_window(complex(rho, np.abs(t).max()))
    if rho == 1.0 and (t == 0.0).any():
        raise DomainError("zeta has its pole at s = 1")

    logn = _logn_array()
    n_trunc = np.maximum(30.0, np.ceil(1.3 * np.abs(t))).astype(np.intp)
    s = rho + 1j * t

    # base sum over n = 1 .. N-1, for rows of equal N at most _LINE_CHUNK at
    # a time, so that no row sums terms past its own N
    order = np.argsort(n_trunc, kind="stable")
    n_sorted = n_trunc[order]
    starts = np.flatnonzero(np.diff(n_sorted, prepend=0)).tolist()
    base = np.empty_like(s)
    for g0, g1 in zip(starts, [*starts[1:], t.size]):
        for c0 in range(g0, g1, _LINE_CHUNK):
            rows = order[c0 : min(c0 + _LINE_CHUNK, g1)]
            terms = np.exp(-s[rows, None] * logn[: n_sorted[g0] - 1])
            base[rows] = terms.sum(axis=1)

    # corrections: sum_k B_2k/(2k)! * (s)_(2k-1) * N^(1-2k-s), k = 1..7
    ln_big = logn[n_trunc - 1]
    n_pow_ms = np.exp(-s * ln_big)  # N^-s
    corr = np.zeros_like(s)
    poch = s  # (s)_(2k-1), grown two factors a round
    npow = n_pow_ms / n_trunc  # N^(-s-1)
    for k, coef in enumerate(specfun._B_OVER_FACT):
        if k:
            poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
            npow = npow / (n_trunc * n_trunc)
        corr += coef * poch * npow

    reg = (s - 1.0) * (base + n_pow_ms / 2.0 + corr) + np.exp((1.0 - s) * ln_big)
    az = np.abs(reg / (s - 1.0))
    out = np.full(t.shape, -math.inf)
    hit = az >= specfun._ZERO_FLOOR
    out[hit] = np.log(az[hit])
    return out


def _hardy_z_positive(t: float) -> bool:
    """Whether Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it) is positive,
    with the Riemann-Siegel theta(t) = Im ln Gamma(1/4 + it/2) - (t/2) ln pi."""
    theta = specfun.log_gamma(complex(0.25, 0.5 * t)).imag - 0.5 * t * specfun.LN_PI
    return (cmath.exp(1j * theta) * specfun.zeta(complex(0.5, t))).real > 0.0


@functools.cache
def _zero_ordinates(t_max: float) -> tuple[float, ...]:
    """Ordinates in (0, t_max) of the zeta zeros on the half line: each sign
    change of Z on a grid of step at most _Z_STEP, bisected until its two
    ends are adjacent floats."""
    n = math.ceil(t_max / _Z_STEP)
    grid = [t_max * k / n for k in range(n + 1)]
    signs = [_hardy_z_positive(t) for t in grid]
    out = []
    for lo, hi, sign, sign_hi in zip(grid, grid[1:], signs, signs[1:]):
        if sign == sign_hi:
            continue
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if _hardy_z_positive(mid) == sign:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out.append(lo)
    return tuple(out)


def phi_numeric(rho: float, config: QuadratureConfig | None = None) -> QuadResult:
    """(1/2) * integral over [-T, T] of ln|zeta(rho+it)| dt/(1/4+t^2),
    realized as the half-line integral [0, T] by evenness in t, on panels
    split at the zero ordinates below T."""
    cfg = config or QuadratureConfig()
    rho = float(rho)
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")

    def integrand(t: np.ndarray) -> np.ndarray:
        return log_abs_zeta_line(rho, t) / (0.25 + t * t)

    return _integrate(integrand, [0.0, *_zero_ordinates(cfg.t_max), cfg.t_max], cfg)


def lorentz_log_integral(alpha: float, beta: float, mu: float) -> float:
    """Closed form of the integral over [0, inf) of ln(beta^2 + mu t^2)/(alpha + t^2):
    (pi/sqrt(alpha)) * ln(sqrt(mu*alpha) + beta).  Quadrature self-test oracle."""
    if not (alpha > 0.0) or beta < 0.0 or not (mu > 0.0):
        raise DomainError(
            f"need alpha > 0, beta >= 0, mu > 0, got {(alpha, beta, mu)!r}"
        )
    return math.pi / math.sqrt(alpha) * math.log(math.sqrt(mu * alpha) + beta)
