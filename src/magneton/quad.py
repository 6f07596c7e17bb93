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
line, found as sign changes of Hardy's Z(t) on a grid, bisected to
adjacent floats; a secant polish lets the bisection compute Z only next
to each zero, for the same ordinates from 16 calls of Z at T = 50, not 48.
The log dips of the rho = 1/2 line then sit at panel ends, where the rule
handles them, and so does the pole of the rho = 1 line at t = 0.
The ordinates are hints, not an assumption: a panel holding a singularity
the search missed does not converge.  The panels do not depend on rho, so
`phi_numeric_lines` integrates the lines of a table in one level loop: each
level's new nodes go panel by panel through the line kernel
`specfun._reg_lines` (the package's one complex zeta sum, which Z uses
too), each piece of nodes in one call for every line still open there, so
the factor n^-it of the zeta sum is built once per node.  Each line keeps
its own panels, sums and decisions, so its result is the one
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
from typing import Callable, NamedTuple

import numpy as np

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
# The zero search polishes each bracket to at most this many ulp and computes
# Z within as many ulp of it, far beyond the 3 ulp where rounding flips Z
_POLISH_ULP = 64
# a polish step bisects a bracket not halved in this many steps (at two,
# the first secant steps are bisected: 21 calls of Z at T = 50, not 16)
_HALVING_STEPS = 3
# (line, abscissa) pairs per call, unless one abscissa has more lines open
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
        if self.abs_tol == math.inf:  # err starts at inf, so no panel would refine
            raise DomainError("abs_tol must be finite")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    n_evals: int
    max_depth_used: int


def _integrate(
    fv: Callable[[np.ndarray, np.ndarray], np.ndarray],
    edges: list[float],
    cfg: QuadratureConfig,
    n_lines: int = 1,
) -> list[QuadResult]:
    """Tanh-sinh over the panels between consecutive `edges`, for `n_lines`
    integrands at once.  `fv(t, lines)` maps an array of abscissae and an
    array of line indices to the (lines, abscissae) array of values.  Each
    level calls fv on the new nodes of a panel piece by piece, each piece
    for every line that still has the panel open: at most _PAIRS values a
    call, or one node where more lines than that are open.

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
            if not lines.size:
                continue
            t = nodes[k][keep[k]]
            w = np.broadcast_to(weight[k], keep[k].shape)[keep[k]]
            n_evals[lines] += t.size
            step = max(1, _PAIRS // lines.size)
            for c in range(0, t.size, step):
                lines = lines[is_open[lines, p]]
                if not lines.size:
                    break  # a failure closed every line here: build no table
                f = fv(t[c : c + step], lines)
                bad = ~np.isfinite(f).all(axis=1)
                if bad.any():
                    fail(int(lines[bad][0]), ConvergenceError(
                        f"non-finite integrand on panel [{lo[p]:.6g}, {hi[p]:.6g}]"
                    ))
                wf = w[c : c + step] * f
                at = np.repeat(lines * n_pan + p, f.shape[1])
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


def _zeta_lines(rhos: list[float], t_top: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """ln|zeta| on the lines rho = rhos[i] at once, as `log_abs(t, lines)`:
    the (lines, t) array of ln|zeta(rhos[i] + it)| for the indices i in
    `lines` and a 1-D array of abscissae |t| <= t_top, from the values of
    `specfun._reg_lines`.  Only an exact zero logs to -inf: on a zero below
    200 the computed |zeta| is at least 1.5e-15, far above underflow."""
    kern = specfun._reg_lines(rhos, t_top)

    def log_abs(t: np.ndarray, lines: np.ndarray) -> np.ndarray:
        s, reg, _ = kern(t, lines)
        # next to the pole (rho = 1, t ~ 1e-308) the quotient overflows to
        # inf; the integration refuses it, like -inf, as a non-finite value
        with np.errstate(over="ignore", divide="ignore"):
            return np.log(np.abs(reg / (s - 1.0)))

    return log_abs


def _hardy_z(t_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it) on arrays of abscissae
    |t| <= t_max, with the Riemann-Siegel theta(t) = Im ln Gamma(1/4 + it/2)
    - (t/2) ln pi from the scalar `log_gamma` and zeta from
    `specfun._reg_lines`, one kernel call per array."""
    kern, half = specfun._reg_lines([0.5], t_max), np.zeros(1, dtype=np.intp)

    def z(t: np.ndarray) -> np.ndarray:
        theta = (specfun.log_gamma(complex(0.25, 0.5 * x)).imag - 0.5 * x * specfun.LN_PI
                 for x in t.tolist())
        rot = np.array([cmath.exp(1j * x) for x in theta])
        s, reg, _ = kern(t, half)
        zeta = reg[0] / (s[0] - 1.0)
        # the real part of rot * zeta as Python's complex product forms it
        return rot.real * zeta.real - rot.imag * zeta.imag

    return z


def _polish(
    a: np.ndarray, b: np.ndarray, za: np.ndarray, zb: np.ndarray, width: np.ndarray, z: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets [a, b] of sign changes of `z`, with its values `za`, `zb` at
    their ends, shrunk in lockstep to at most `width`, one call of `z` a
    step: the secant through each bracket's last two points, or its middle
    if it did not halve in _HALVING_STEPS steps, at least width/2 inside."""
    a, b, left = a.copy(), b.copy(), za > 0.0
    x0, z0, x1, z1 = a.copy(), za.copy(), b.copy(), zb.copy()
    past = [np.full(a.shape, math.inf)] * _HALVING_STEPS
    while (open_ := np.flatnonzero(b - a > width)).size:
        # a flat pair gives an inf or nan, which the clamp takes to an end
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = x1 - (x1 - x0) * (z1 / (z1 - z0))
        past.append(b - a)
        x = np.where(past[-1] > 0.5 * past[-1 - _HALVING_STEPS], 0.5 * (a + b), x)
        x = np.fmin(np.fmax(x, a + 0.5 * width), b - 0.5 * width)[open_]
        zx = z(x)
        same = (zx > 0.0) == left[open_]
        a[open_[same]], b[open_[~same]] = x[same], x[~same]
        x0[open_], z0[open_], x1[open_], z1[open_] = x1[open_], z1[open_], x, zx
    return a, b


@functools.cache
def _zero_ordinates(t_max: float) -> tuple[float, ...]:
    """Ordinates in (0, t_max) of the zeta zeros on the half line: each sign
    change of Z on a grid of step at most _Z_STEP, bisected until its two
    ends are adjacent floats.  `_polish` first shrinks each cell to a
    bracket [a, b] of at most `width`, _POLISH_ULP ulp.  The plain
    bisection of every cell is then replayed in rounds: a midpoint left of
    its reach [a - width, b + width] moves the low end and one right of it
    the high end, as the grid's signs on those sides would, until every
    open midpoint lies in its reach; then one call of Z (or the polish's
    values) gives all their signs.  So the ordinates are the plain search's
    wherever every computed sign change in a cell lies in its reach: each
    cell holds one zero (see _Z_STEP), and next to a zero below 200 the
    computed sign changes span at most 3 ulp (5 of the 79 zeros show more
    than one within 100 ulp)."""
    n = math.ceil(t_max / _Z_STEP)
    grid = np.array([t_max * k / n for k in range(n + 1)])
    hardy, known = _hardy_z(t_max), {}

    def z(t: np.ndarray) -> np.ndarray:  # Z, keeping each sign for the replay
        v = hardy(t)
        known.update(zip(t.tolist(), (v > 0.0).tolist()))
        return v

    zg = hardy(grid)
    signs = zg > 0.0
    at = np.flatnonzero(signs[1:] != signs[:-1])
    lo, hi, sign = grid[at], grid[at + 1], signs[at]
    width = _POLISH_ULP * np.spacing(hi)
    a, b = _polish(lo, hi, zg[at], zg[at + 1], width, z)
    while (open_ := (lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
        up, down = open_ & (mid < a - width), open_ & (b + width < mid)
        if not (up | down).any():  # every open midpoint in its reach
            t = mid[open_].tolist()
            if ask := [x for x in t if x not in known]:
                z(np.array(ask))
            up[open_] = np.array([known[x] for x in t]) == sign[open_]
            down = open_ & ~up
        lo[up], hi[down] = mid[up], mid[down]
    return tuple(lo.tolist())


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
        log_abs = _zeta_lines(batch, cfg.t_max)
        out += _integrate(lambda t, lines: log_abs(t, lines) / (0.25 + t * t), edges, cfg, len(batch))
        del log_abs  # so that one batch's n^-rho rows are held at a time
    if refused is not None:
        raise refused
    return out


def phi_numeric(rho: float, config: QuadratureConfig | None = None) -> QuadResult:
    """(1/2) * integral over [-T, T] of ln|zeta(rho+it)| dt/(1/4+t^2),
    realized as the half-line integral [0, T] by evenness in t, on panels
    split at the zero ordinates below T."""
    return phi_numeric_lines([rho], config)[0]

