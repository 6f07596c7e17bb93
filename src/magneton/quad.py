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
line, found as sign changes of Hardy's Z(t) on a grid, bisected in
lockstep.  The log dips of the rho = 1/2 line then sit at panel ends, where
the rule handles them, and so does the pole of the rho = 1 line at t = 0.
The ordinates are hints, not an assumption: a panel holding a singularity
the search missed does not converge.  The panels do not depend on rho, so
`phi_numeric_lines` integrates the lines of a table in one level loop: each
level's new nodes go panel by panel through the line kernel
`specfun._reg_lines` (the package's one complex zeta sum, which Z uses
too), and it builds the factor n^-it of the zeta sum once per node for
every line still open there.  Each line keeps its own panels, sums and
decisions, so its result is the one `phi_numeric` gets for it alone, bit
for bit.

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
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError

_MAX_NODES = 2**16
_ZERO_FLOOR = 1e-300  # a |zeta| below this is a zero hit
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
# (line, abscissa) pairs per pass of the line kernel
_PAIRS = 1024
# Bytes of line state per batch of lines integrated together: 16 a term of
# the kernel's n^-rho row, 8 a panel for each of eight arrays of _integrate
_BATCH_BYTES = 2**18


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
    failure = None

    def fail(line: int, exc: ConvergenceError):
        # only open lines fail, so `line` comes before any earlier failure,
        # and the lines from it on can no longer change what is raised
        nonlocal failure
        is_open[line:], failure = False, exc

    for level in range(cfg.max_depth + 1):
        h = 0.5**level
        # new nodes: every multiple of h on level 0, the odd ones after it
        u = np.arange(h if level else 0.0, _U_MAX, 2.0 * h if level else h)
        # t = end -+ r*delta with delta = 1 -+ tanh(pi/2 sinh u), taken
        # without cancellation; the weight is r * g
        delta = 2.0 / (1.0 + np.exp(math.pi * np.sinh(u)))
        g = 0.5 * math.pi * np.cosh(u) * delta * (2.0 - delta)
        rows = np.flatnonzero(is_open.any(axis=0))
        d = r[rows, None] * delta
        ends = np.stack((lo[rows], hi[rows]), axis=1)[:, :, None]
        keep = d[:, None, :] > np.spacing(np.abs(ends))
        if not level:
            keep[:, 1, 0] = False  # u = 0 is the midpoint, taken once
        # per panel: its nodes right of lo, then left of hi, each in u order
        nodes = np.stack((lo[rows, None] + d, hi[rows, None] - d), axis=1)
        weight = r[rows, None] * g
        counts = keep.sum(axis=(1, 2))
        n_new = (is_open[:, rows] * counts).sum(axis=1)
        over = np.flatnonzero(n_new > _MAX_NODES)
        if over.size:
            fail(int(over[0]), ConvergenceError(
                f"{n_new[over[0]]} nodes for the panels open at depth {level}, above "
                f"the cap {_MAX_NODES}: tolerance {cfg.abs_tol:.3g} is out of reach"
            ))
        # this level's sum on each (line, panel), added node by node in node
        # order from 0.0 as np.bincount adds, as the line alone sums it
        lev_sum, lev_abs = np.zeros(shape), np.zeros(shape)
        for k, p in enumerate(rows.tolist()):
            lines = np.flatnonzero(is_open[:, p])
            t = nodes[k][keep[k]]
            w = np.broadcast_to(weight[k], keep[k].shape)[keep[k]]
            n_evals[lines] += t.size
            for c in range(0, t.size, _LINE_CHUNK):
                values = fv(t[c : c + _LINE_CHUNK])
                per = max(1, _PAIRS // min(_LINE_CHUNK, t.size - c))
                for ls in (lines[i : i + per] for i in range(0, lines.size, per)):
                    ls = ls[is_open[ls, p]]
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
        wf_sum += lev_sum
        wf_abs += lev_abs
        new = h * wf_sum
        if level:
            step_err = np.abs(new - value) + 2.0**-52 * h * wf_abs
            err[is_open] = step_err[is_open]
        value[is_open] = new[is_open]
        is_open &= err > tol
        for i in np.flatnonzero(~is_open.any(axis=1)).tolist():
            if done[i] is None:
                done[i] = QuadResult(float(value[i].sum()), float(err[i].sum()), int(n_evals[i]), level)
        if not is_open.any():
            break
    else:
        i, p = np.argwhere(is_open)[0].tolist()  # the first open line's first open panel
        fail(i, ConvergenceError(
            f"panel [{lo[p]:.6g}, {hi[p]:.6g}] not converged at depth limit "
            f"{cfg.max_depth}: error {err[i, p]:.3g} > {tol:.3g}"
        ))
    if failure is not None:
        raise failure
    return done


def _zeta_lines(rhos: list[float], t_top: float):
    """ln|zeta| on the lines rho = rhos[i] at once, as `kern(t)(lines)`: the
    (lines, t) array of ln|zeta(rhos[i] + it)| for the indices i in `lines`
    and a 1-D array of at most _LINE_CHUNK abscissae |t| <= t_top, from the
    values of `specfun._reg_lines`.  A |zeta| below _ZERO_FLOOR maps to
    -inf, a zero hit."""
    reg_lines = specfun._reg_lines(rhos, t_top)

    def kern(t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        at = reg_lines(t)

        def log_abs(lines: np.ndarray) -> np.ndarray:
            s, reg, _ = at(lines)
            # next to the pole (rho = 1, t ~ 1e-308) the quotient overflows
            # to inf, which the integration refuses as a non-finite value
            with np.errstate(over="ignore"):
                az = np.abs(reg / (s - 1.0))
            out = np.full(s.shape, -math.inf)
            hit = az >= _ZERO_FLOOR
            out[hit] = np.log(az[hit])
            return out

        return log_abs

    return kern


def _hardy_z(t_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it) on arrays of abscissae
    |t| <= t_max, with the Riemann-Siegel theta(t) = Im ln Gamma(1/4 + it/2)
    - (t/2) ln pi from the scalar `log_gamma` and zeta from
    `specfun._reg_lines`, _LINE_CHUNK abscissae at a time."""
    kern, half = specfun._reg_lines([0.5], t_max), np.zeros(1, dtype=np.intp)

    def z(t: np.ndarray) -> np.ndarray:
        theta = (specfun.log_gamma(complex(0.25, 0.5 * x)).imag - 0.5 * x * specfun.LN_PI
                 for x in t.tolist())
        rot = np.array([cmath.exp(1j * x) for x in theta])
        zeta = np.empty(t.size, dtype=complex)
        for c in range(0, t.size, _LINE_CHUNK):
            s, reg, _ = kern(t[c : c + _LINE_CHUNK])(half)
            zeta[c : c + _LINE_CHUNK] = reg[0] / (s[0] - 1.0)
        # the real part of rot * zeta as Python's complex product forms it
        return rot.real * zeta.real - rot.imag * zeta.imag

    return z


def _bisect(
    lo: np.ndarray, hi: np.ndarray, positive: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """The left end of each bracket [lo, hi] of a sign change of `positive`,
    bisected until its two ends are adjacent floats.  All brackets step in
    lockstep, one call of `positive` per step, and each ends where it ends
    alone."""
    lo, hi, sign = lo.copy(), hi.copy(), positive(lo)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = ((lo < mid) & (mid < hi)).nonzero()[0]
        if not open_.size:
            return lo
        same = positive(mid[open_]) == sign[open_]
        lo[open_[same]] = mid[open_[same]]
        hi[open_[~same]] = mid[open_[~same]]


@functools.cache
def _zero_ordinates(t_max: float) -> tuple[float, ...]:
    """Ordinates in (0, t_max) of the zeta zeros on the half line: each sign
    change of Z on a grid of step at most _Z_STEP, bisected until its two
    ends are adjacent floats."""
    n = math.ceil(t_max / _Z_STEP)
    grid = np.array([t_max * k / n for k in range(n + 1)])
    z = _hardy_z(t_max)
    positive = lambda t: z(t) > 0.0
    signs = positive(grid)
    at = np.flatnonzero(signs[1:] != signs[:-1])
    return tuple(_bisect(grid[at], grid[at + 1], positive).tolist())


def phi_numeric_lines(
    rhos: list[float], config: QuadratureConfig | None = None
) -> list[QuadResult]:
    """`phi_numeric` of every rho of `rhos`, integrated together: each level
    builds the n^-it table of a node once for all the lines that need it,
    and every result equals the one its line gets alone.  Lines run in
    batches of _BATCH_BYTES of line state (144 at T = 50, 28 at T = 200).
    What is raised is what the first failing line raises alone; the lines
    after it are not integrated."""
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
    if not rhos:  # no line to integrate, so no zero search
        if refused is not None:
            raise refused
        return []
    edges = [0.0, *_zero_ordinates(cfg.t_max), cfg.t_max]
    n_trunc = int(specfun._n_trunc(np.array(cfg.t_max)))
    size = max(1, _BATCH_BYTES // (16 * n_trunc + 64 * len(edges)))
    out: list[QuadResult] = []
    for b0 in range(0, len(rhos), size):
        batch = rhos[b0 : b0 + size]
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

