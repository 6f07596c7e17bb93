"""Quadrature of ln|zeta(rho + it)| against the Lorentz measure
dt/(1/4 + t^2).

The rule is tanh-sinh (Takahasi & Mori 1974) on panels.  On a panel with
midpoint c and half width r the substitution t = c + r tanh(pi/2 sinh u)
turns the integral into one over the whole u axis whose integrand decays
double exponentially, so the trapezoidal sum in u converges exponentially
in 1/h, also when the integrand has an integrable singularity at a panel
end.  Refinement runs level by level: level 0 takes the step h = 1, each
later level halves the step of every open panel and adds the nodes at the
odd multiples of the new step.  A panel closes once the change of its value
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
converge.  The panels do not depend on rho, so `phi_numeric_lines`
integrates the lines of a table in one level loop: each level's new nodes
go through the line kernel panel by panel, which builds the factor n^-it of
the zeta sum once per node for every line still open there.  Each line
keeps its own panels, sums and decisions, so its result is the one
`phi_numeric` gets for it alone, bit for bit.

A panel still open at level ``max_depth`` raises ConvergenceError naming
the leftmost one, and a non-finite integrand value raises it naming its
panel.  So does a level of more than ``_MAX_NODES`` new nodes: an
unreachable tolerance would double them level after level until memory
runs out.  Of several lines, the first in list order that fails raises
what it raises alone.
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
# Abscissae per n^-it table of the line kernel: 64 rows of at most 260
# terms, about 270 kB
_LINE_CHUNK = 64
# Complex values per n^-s block of the line kernel, 64 kB
_TERMS = 4096
# (line, abscissa) pairs per pass of the line kernel
_PAIRS = 1024
# Lines integrated together; the per-line state is (lines, panels)
_LINE_BATCH = 128

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
    fv: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    edges: list[float],
    cfg: QuadratureConfig,
    n_lines: int = 1,
) -> list[QuadResult]:
    """Tanh-sinh over the panels between consecutive `edges`, for `n_lines`
    integrands at once.  `fv(t)` takes an array of at most _LINE_CHUNK
    abscissae and returns a function that maps an array of line indices to
    the (lines, abscissae) array of values.  Each level calls fv once for
    each piece of _LINE_CHUNK new nodes of a panel, and the function it
    returns for the lines that still have that panel open, at most _PAIRS
    values at a time.

    Each line keeps its own open panels, sums and counters, so its result
    is the one it gets alone.  The first line in order that fails raises
    its own error; the lines after it stop at once, since nothing they do
    can change what is raised."""
    import numpy as np

    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    r = 0.5 * (hi - lo)
    n_pan = lo.size
    tol = cfg.abs_tol / n_pan
    shape = (n_lines, n_pan)
    wf_sum, wf_abs = np.zeros(shape), np.zeros(shape)  # over every node so far
    value, err = np.zeros(shape), np.full(shape, math.inf)
    is_open = np.ones(shape, dtype=bool)
    n_evals = np.zeros(n_lines, dtype=int)
    done: list[QuadResult | None] = [None] * n_lines
    live, failure = n_lines, None  # lines from `live` on cannot matter

    def fail(line: int, exc: ConvergenceError):
        nonlocal live, failure
        if line < live:
            live, failure = line, exc

    for level in range(cfg.max_depth + 1):
        h = 0.5**level
        # new nodes: every multiple of h on level 0, the odd ones after it
        u = np.arange(h if level else 0.0, _U_MAX, 2.0 * h if level else h)
        # t = end -+ r*delta with delta = 1 -+ tanh(pi/2 sinh u), taken
        # without cancellation; the weight is r * g
        delta = 2.0 / (1.0 + np.exp(math.pi * np.sinh(u)))
        g = 0.5 * math.pi * np.cosh(u) * delta * (2.0 - delta)
        rows = np.flatnonzero(is_open[:live].any(axis=0))
        d = r[rows, None] * delta
        ends = np.stack((lo[rows], hi[rows]), axis=1)[:, :, None]
        keep = d[:, None, :] > np.spacing(np.abs(ends))
        if not level:
            keep[:, 1, 0] = False  # u = 0 is the midpoint, taken once
        # per panel: its nodes right of lo, then left of hi, each in u order
        nodes = np.stack((lo[rows, None] + d, hi[rows, None] - d), axis=1)
        weight = r[rows, None] * g
        counts = keep.sum(axis=(1, 2))
        n_new = (is_open[:live, rows] * counts).sum(axis=1)
        over = np.flatnonzero(n_new > _MAX_NODES)
        if over.size:
            fail(int(over[0]), ConvergenceError(
                f"{n_new[over[0]]} nodes for the panels open at depth {level}, above "
                f"the cap {_MAX_NODES}: tolerance {cfg.abs_tol:.3g} is out of reach"
            ))
        # this level's sum on each (line, panel), added node by node in node
        # order from 0.0 as np.bincount adds, as the line alone sums it
        lev_sum, lev_abs = np.zeros((live, n_pan)), np.zeros((live, n_pan))
        for k, p in enumerate(rows.tolist()):
            lines = np.flatnonzero(is_open[:live, p])
            t = nodes[k][keep[k]]
            w = np.broadcast_to(weight[k], keep[k].shape)[keep[k]]
            n_evals[lines] += t.size
            for c in range(0, t.size, _LINE_CHUNK):
                values = fv(t[c : c + _LINE_CHUNK])
                per = max(1, _PAIRS // min(_LINE_CHUNK, t.size - c))
                for ls in (lines[i : i + per] for i in range(0, lines.size, per)):
                    ls = ls[ls < live]
                    if not ls.size:
                        break
                    f = values(ls)
                    bad = ~np.isfinite(f).all(axis=1)
                    if bad.any():
                        fail(int(ls[bad][0]), ConvergenceError(
                            f"non-finite integrand on panel [{lo[p]:.6g}, {hi[p]:.6g}]"
                        ))
                    wf = w[c : c + _LINE_CHUNK] * f
                    at = np.repeat(ls * n_pan + p, f.shape[1])
                    np.add.at(lev_sum.reshape(-1), at, wf.ravel())
                    np.add.at(lev_abs.reshape(-1), at, np.abs(wf).ravel())
        wf_sum[:live] += lev_sum[:live]
        wf_abs[:live] += lev_abs[:live]
        is_live = is_open[:live]
        new = h * wf_sum[:live]
        if level:
            step_err = np.abs(new - value[:live]) + 2.0**-52 * h * wf_abs[:live]
            err[:live][is_live] = step_err[is_live]
        value[:live][is_live] = new[is_live]
        is_live &= err[:live] > tol
        for i in np.flatnonzero(~is_live.any(axis=1)).tolist():
            if done[i] is None:
                done[i] = QuadResult(float(value[i].sum()), float(err[i].sum()), int(n_evals[i]), level)
        if all(done[:live]):
            break
    else:
        i = done.index(None)
        p = int(np.flatnonzero(is_open[i])[0])
        fail(i, ConvergenceError(
            f"panel [{lo[p]:.6g}, {hi[p]:.6g}] not converged at depth limit "
            f"{cfg.max_depth}: error {err[i, p]:.3g} > {tol:.3g}"
        ))
    if failure is not None:
        raise failure
    return done


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

    def fv(t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        return lambda lines: np.array([[f(v) for v in t.tolist()]], dtype=np.float64)

    return _integrate(fv, [a, b], cfg)[0]


@functools.cache
def _logn_array() -> np.ndarray:
    """`specfun._LOGN` as a read-only array, built once per process."""
    import numpy as np

    logn = np.array(specfun._LOGN)
    logn.flags.writeable = False
    return logn


def _n_trunc(t: np.ndarray) -> np.ndarray:
    """The Euler-Maclaurin truncation N = max(30, ceil(1.3|t|)) of each t."""
    import numpy as np

    return np.maximum(30.0, np.ceil(1.3 * np.abs(t))).astype(np.intp)


def _n_pow_it(t: np.ndarray, m: int) -> np.ndarray:
    """n^-it = exp(-it ln n) for n = 1 .. m, one row per t."""
    import numpy as np

    return np.exp((-t[:, None] * _logn_array()[:m]) * 1j)


def _zeta_lines(rhos: list[float], t_top: float):
    """ln|zeta| on the lines rho = rhos[i] at once, as `kern(t)(lines)`: the
    (lines, t) array of ln|zeta(rhos[i] + it)| for the indices i in `lines`
    and a 1-D array of at most _LINE_CHUNK abscissae |t| <= t_top.

    The Euler-Maclaurin sum of `specfun._reg_em` (same truncation, same
    `_LOGN`, same `_B_OVER_FACT` corrections) in numpy complex arithmetic.
    It agrees with `specfun.log_abs_zeta` to rounding, not bit for bit, and
    maps |zeta| < specfun._ZERO_FLOOR to -inf.  A base-sum term n^-s is
    n^-rho, from libm's exp once per line and n, times n^-it, built by
    `kern(t)` once per abscissa and n and shared by every line.  glibc's
    cexp forms exp(x) cos y and exp(x) sin y, so the product has the bits
    of np.exp(-s ln n).  Each row sums its own N - 1 terms in numpy's
    pairwise order."""
    import numpy as np

    logn = _logn_array()
    rho = np.array(rhos)
    # numpy's SIMD exp rounds some n^-rho differently from libm
    m = int(_n_trunc(np.array(t_top))) - 1
    n_pow_rho = np.array(
        [[math.exp(-r * ln) for ln in specfun._LOGN[:m]] for r in rhos], dtype=complex
    )

    def kern(t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        n_trunc = _n_trunc(t)
        ln_big = logn[n_trunc - 1]
        cuts = [0, *(np.flatnonzero(np.diff(n_trunc)) + 1).tolist(), t.size]
        # one n^-it table per run of equal N
        runs = [(a, b, _n_pow_it(t[a:b], n_trunc[a] - 1)) for a, b in zip(cuts, cuts[1:])]

        def at(lines: np.ndarray) -> np.ndarray:
            s = rho[lines, None] + 1j * t
            base = np.empty_like(s)
            for a, b, n_it in runs:
                step = max(1, _TERMS // n_it.size)
                for j in range(0, lines.size, step):
                    n_pow_s = n_pow_rho[lines[j : j + step], None, : n_it.shape[1]] * n_it
                    base[j : j + step, a:b] = n_pow_s.sum(axis=-1)
                    del n_pow_s  # so that the next block is the only one held
            # corrections: sum_k B_2k/(2k)! * (s)_(2k-1) * N^(1-2k-s), k = 1..7
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
            # next to the pole (rho = 1, t ~ 1e-308) the quotient overflows
            # to inf, which the integration refuses as a non-finite value
            with np.errstate(over="ignore"):
                az = np.abs(reg / (s - 1.0))
            out = np.full(s.shape, -math.inf)
            hit = az >= specfun._ZERO_FLOOR
            out[hit] = np.log(az[hit])
            return out

        return at

    return kern


def log_abs_zeta_line(rho: float, t) -> np.ndarray:
    """ln|zeta(rho + it)| at every t of a 1-D array: the one-line case of
    the line kernel.  Errors and the zero signal are the scalar ones:
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
    t_top = float(np.abs(t).max())
    specfun._in_window(complex(rho, t_top))
    if rho == 1.0 and (t == 0.0).any():
        raise DomainError("zeta has its pole at s = 1")
    # in order of N, so that rows of one N run together
    order = np.argsort(_n_trunc(t), kind="stable")
    kern, line = _zeta_lines([rho], t_top), np.zeros(1, dtype=np.intp)
    out = np.empty(t.size)
    for c in range(0, t.size, _LINE_CHUNK):
        rows = order[c : c + _LINE_CHUNK]
        out[rows] = kern(t[rows])(line)[0]
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


def phi_numeric_lines(
    rhos: list[float], config: QuadratureConfig | None = None
) -> list[QuadResult]:
    """`phi_numeric` of every rho of `rhos`, integrated together: each level
    builds the n^-it table of a node once for all the lines that need it,
    and every result equals the one its line gets alone.  Lines run in
    batches of _LINE_BATCH.  What is raised is what the first failing line
    raises alone; the lines after it are not integrated."""
    cfg = config or QuadratureConfig()
    rhos = [float(rho) for rho in rhos]
    refused = None
    for i, rho in enumerate(rhos):
        try:
            if not math.isfinite(rho):
                raise DomainError(f"rho must be finite, got {rho!r}")
            specfun._in_window(complex(rho, cfg.t_max))
        except DomainError as exc:
            rhos, refused = rhos[:i], exc
            break
    edges = [0.0, *_zero_ordinates(cfg.t_max), cfg.t_max]
    out: list[QuadResult] = []
    for b0 in range(0, len(rhos), _LINE_BATCH):
        batch = rhos[b0 : b0 + _LINE_BATCH]
        kern = _zeta_lines(batch, cfg.t_max)

        def integrand(t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            at, lorentz = kern(t), 0.25 + t * t
            return lambda lines: at(lines) / lorentz

        out += _integrate(integrand, edges, cfg, len(batch))
    if refused is not None:
        raise refused
    return out


def phi_numeric(rho: float, config: QuadratureConfig | None = None) -> QuadResult:
    """(1/2) * integral over [-T, T] of ln|zeta(rho+it)| dt/(1/4+t^2),
    realized as the half-line integral [0, T] by evenness in t, on panels
    split at the zero ordinates below T."""
    return phi_numeric_lines([rho], config)[0]


def lorentz_log_integral(alpha: float, beta: float, mu: float) -> float:
    """Closed form of the integral over [0, inf) of ln(beta^2 + mu t^2)/(alpha + t^2):
    (pi/sqrt(alpha)) * ln(sqrt(mu*alpha) + beta).  Quadrature self-test oracle."""
    if not (alpha > 0.0) or beta < 0.0 or not (mu > 0.0):
        raise DomainError(
            f"need alpha > 0, beta >= 0, mu > 0, got {(alpha, beta, mu)!r}"
        )
    return math.pi / math.sqrt(alpha) * math.log(math.sqrt(mu * alpha) + beta)
