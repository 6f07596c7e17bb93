"""Adaptive quadrature of ln|zeta(rho + it)| against the Lorentz measure
dt/(1/4 + t^2).

The rule is adaptive Simpson with a Richardson-corrected panel value, run
level by level: each pass takes every open panel of one depth, evaluates
the two new quarter points of all of them in one batched integrand call,
then accepts or splits each panel against that depth's tolerance (the
root tolerance halved once per level).  On the vertical line the batch goes
through `specfun.log_abs_zeta_line`, which reproduces the scalar
`log_abs_zeta` bit for bit, so the panel tree -- which panels split, the
evaluation count, the depth reached -- is the one a depth-first recursion
builds.  Panel values and errors are then summed in that recursion's
order, so every result matches it to the last bit.

The integrand is smooth except for integrable logarithmic dips where the
vertical line passes a zeta zero (only possible inside the critical strip).
Two measures keep the refinement finite there without a zero table:

* the raw log is clamped at ``_LOG_FLOOR`` before weighting, which bounds
  the integrand and swallows the -inf zero-hit signal of the kernel; the
  clamp perturbs the integral by less than exp(_LOG_FLOOR) times the
  affected width, far below every tolerance in use;
* a panel that still cannot meet its halved tolerance once it is narrower
  than ``_MIN_WIDTH`` is closed out with its Richardson value and its local
  estimate is added to the reported error instead of refining forever.

A panel that fails at ``max_depth``, or closes with a non-finite value,
raises ConvergenceError.  When several fail, the leftmost is reported: the
one a left-to-right recursion meets first.  A level of more than
``_MAX_PANELS`` finite open panels raises it too: an unreachable tolerance
would keep millions of them open down to ``_MIN_WIDTH`` and exhaust memory
(the widest level of rho = 1/2 at tolerance 1e-14 holds 12,044).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError

_MIN_WIDTH = 1e-6
_MAX_PANELS = 2**16
_LOG_FLOOR = -30.0


@dataclass(frozen=True)
class QuadratureConfig:
    t_max: float = 50.0
    abs_tol: float = 1e-8
    max_depth: int = 40

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


def _simpson(fa, fm, fb, width):
    return width / 6.0 * (fa + 4.0 * fm + fb)


@np.errstate(invalid="ignore", over="ignore")  # non-finite panels stay silent, as floats do
def _integrate(
    fv: Callable[[np.ndarray], np.ndarray], a: float, b: float, cfg: QuadratureConfig
) -> QuadResult:
    """Level-synchronous adaptive Simpson over [a, b]; `fv` maps an array of
    abscissae to the array of integrand values."""
    f_lo, f_mid, f_hi = (np.array([v]) for v in fv(np.array([a, 0.5 * (a + b), b])))
    lo, hi = np.array([a]), np.array([b])
    n_evals, depth, tol = 3, 0, cfg.abs_tol
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (closed?, Richardson value)
    closed_lo: list[np.ndarray] = []
    closed_err: list[np.ndarray] = []
    while True:
        mid = 0.5 * (lo + hi)
        f_new = fv(np.concatenate((0.5 * (lo + mid), 0.5 * (mid + hi))))
        n_evals += f_new.size
        f_l, f_r = f_new[: lo.size], f_new[lo.size :]
        whole = _simpson(f_lo, f_mid, f_hi, hi - lo)
        left = _simpson(f_lo, f_l, f_mid, mid - lo)
        right = _simpson(f_mid, f_r, f_hi, hi - mid)
        split = left + right
        err = np.abs(split - whole) / 15.0
        done = (err <= tol) | (hi - lo < _MIN_WIDTH)
        levels.append((done, split + (split - whole) / 15.0))
        closed_lo.append(lo[done])
        closed_err.append(err[done])
        fail = done & ~np.isfinite(split)
        if depth >= cfg.max_depth:
            fail |= ~done
        if fail.any():
            # all panels of a level share one width, so failures come on one
            # level only (the depth limit, or the first below _MIN_WIDTH);
            # its leftmost is the one a left-to-right recursion meets first
            i = np.flatnonzero(fail)[np.argmin(lo[fail])]
            panel = f"panel [{float(lo[i]):.6g}, {float(hi[i]):.6g}]"
            if done[i]:
                raise ConvergenceError(f"non-finite integrand on {panel}")
            raise ConvergenceError(
                f"{panel} not converged at depth limit "
                f"{cfg.max_depth}: error {float(err[i]):.3g} > {tol:.3g}"
            )
        more = ~done
        if not more.any():
            break
        # a panel holding a non-finite value cannot converge and ends the
        # run at _MIN_WIDTH or max_depth as above, so it is not counted
        n_open = 2 * np.count_nonzero(more & np.isfinite(split))
        if n_open > _MAX_PANELS:
            raise ConvergenceError(
                f"{n_open} panels open at depth {depth + 1}, above the cap "
                f"{_MAX_PANELS}: tolerance {cfg.abs_tol:.3g} is out of reach"
            )
        depth += 1
        tol /= 2.0
        # children: [lo, mid] and [mid, hi] of every panel still open
        lo, hi, f_lo, f_mid, f_hi = [
            np.concatenate((x[more], y[more]))
            for x, y in ((lo, mid), (mid, hi), (f_lo, f_mid), (f_l, f_r), (f_mid, f_hi))
        ]
    # sum in the order of a depth-first recursion, so that results match it
    # to the last bit: bottom up, a split panel is its left plus its right
    # child, and the closed panels' errors add up from left to right
    below = None
    for done, value in reversed(levels):
        if below is not None:
            half = below.size // 2
            value[~done] = below[:half] + below[half:]
        below = value
    errors = np.concatenate(closed_err)[np.argsort(np.concatenate(closed_lo))]
    return QuadResult(float(below[0]), float(np.cumsum(errors)[-1]), n_evals, depth)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
) -> QuadResult:
    """Adaptive Simpson integral of f over [a, b] with an embedded error
    pair; raises ConvergenceError if the depth budget runs out first."""
    cfg = config or QuadratureConfig()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    return _integrate(
        lambda x: np.array([f(v) for v in x.tolist()], dtype=np.float64), a, b, cfg
    )


def phi_numeric(rho: float, config: QuadratureConfig | None = None) -> QuadResult:
    """(1/2) * integral over [-T, T] of ln|zeta(rho+it)| dt/(1/4+t^2),
    realized as the half-line integral [0, T] by evenness in t."""
    cfg = config or QuadratureConfig()
    rho = float(rho)
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")

    def integrand(t: np.ndarray) -> np.ndarray:
        raw = specfun.log_abs_zeta_line(rho, t)
        raw[raw < _LOG_FLOOR] = _LOG_FLOOR
        return raw / (0.25 + t * t)

    if rho != 1.0:
        return _integrate(integrand, 0.0, cfg.t_max, cfg)
    # the line through the zeta pole: ln|zeta(1+it)| = -ln|t| + O(t^2),
    # so start just above 0 and add the sliver integral of -4 ln t
    a = 1e-12
    res = _integrate(integrand, a, cfg.t_max, cfg)
    return res._replace(value=res.value + 4.0 * a * (1.0 - math.log(a)))


def lorentz_log_integral(alpha: float, beta: float, mu: float) -> float:
    """Closed form of the integral over [0, inf) of ln(beta^2 + mu t^2)/(alpha + t^2):
    (pi/sqrt(alpha)) * ln(sqrt(mu*alpha) + beta).  Quadrature self-test oracle."""
    if not (alpha > 0.0) or beta < 0.0 or not (mu > 0.0):
        raise DomainError(
            f"need alpha > 0, beta >= 0, mu > 0, got {(alpha, beta, mu)!r}"
        )
    return math.pi / math.sqrt(alpha) * math.log(math.sqrt(mu * alpha) + beta)
