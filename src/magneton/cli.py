"""Command-line front end: tables of the potential, plot-ready figure
data, the headline jump constants with numeric cross-checks, and the
prime-sum Taylor report.

Output is UTF-8 comma-separated text with a '#'-prefixed manifest header
(command, parameters, rh mode, version, timestamp).  Identical flags
reproduce byte-identical payloads; only the timestamp line varies.  Exit
codes: 0 success, 2 bad flags, domain/mode violations or a value beyond
the double range, 3 numeric non-convergence or truncation budget, 4
cross-check failure.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys

from . import __version__, diagnostics, magneton, quad, specfun, taylor
from .errors import (
    CapacityError,
    ConvergenceError,
    CrossCheckError,
    DomainError,
    JumpPointError,
    MagnetonError,
    RhModeError,
    TruncationBudgetError,
)

_GAMMA = specfun.EULER_GAMMA
_JUMP_OFFSET = 1e-6
# Most rows one rho list or figure grid may hold; counted before anything
# is allocated, so a tiny step is refused instead of exhausting memory.
_MAX_ROWS = 1_000_000
_FIGURE_DEFAULTS = {
    # lo, hi, step
    "phi": (-2.0, 3.0, 0.01),
    "field": (-2.0, 3.0, 0.01),
    "well": (0.0, 2.0, 0.01),
    "xi": (0.0, 2.0, 0.01),
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _mode_from_flag(flag: str) -> magneton.RhMode:
    return {
        "conditional": magneton.RhMode.CONDITIONAL_RH,
        "outside-only": magneton.RhMode.OUTSIDE_STRIP_ONLY,
    }[flag]


def _manifest(command: str, params: dict, mode: magneton.RhMode) -> list[str]:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    rendered = ", ".join(f"{k}={params[k]}" for k in sorted(params)) or "defaults"
    return [
        f"# command: {command}",
        f"# parameters: {rendered}",
        f"# rh_mode: {mode.value}",
        f"# tool_version: {__version__}",
        f"# timestamp: {stamp}",
    ]


def _emit(out_path: str | None, lines: list[str]):
    payload = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _grid_count(lo: float, hi: float, step: float) -> int:
    """Number of points of the inclusive grid lo, lo + step, ... <= hi."""
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_ROWS:  # also refuses inf and nan
        raise CapacityError(
            f"grid {lo:g}..{hi:g} step {step:g} exceeds {_MAX_ROWS} rows "
            "or is not finite"
        )
    return int(math.floor(span)) + 1


def _parse_rho_spec(tokens: list[str]) -> list[float]:
    """Each token is a number or an inclusive lo:hi:step range."""
    out: list[float] = []
    for tok in tokens:
        if ":" in tok:
            parts = tok.split(":")
            if len(parts) != 3:
                raise DomainError(f"range spec must be lo:hi:step, got {tok!r}")
            lo, hi, step = (float(p) for p in parts)
            if not (step > 0.0) or hi < lo:
                raise DomainError(f"bad range {tok!r}: need lo <= hi, step > 0")
            n = _grid_count(lo, hi, step)
            if len(out) + n > _MAX_ROWS:
                raise CapacityError(f"rho list exceeds {_MAX_ROWS} rows")
            out.extend(lo + i * step for i in range(n))
        else:
            out.append(float(tok))
    if not out:
        raise DomainError("empty rho list")
    return out


def cmd_table(args) -> int:
    mode = _mode_from_flag(args.rh_mode)
    rhos = _parse_rho_spec(args.rho)
    cfg = quad.QuadratureConfig(
        t_max=args.t_max, abs_tol=args.tol, max_depth=args.max_depth
    )

    def row(rho: float) -> str:
        closed = magneton.phi_closed(rho, mode)
        numeric = quad.phi_numeric(rho, cfg).value
        f_val = magneton.symmetry_defect(rho)
        return ",".join(
            _fmt(v) for v in (rho, numeric, closed, abs(numeric - closed), f_val)
        )

    # all rows are computed before a single byte is written, so a failure
    # never leaves a truncated table behind
    rows = [row(rho) for rho in rhos]
    lines = _manifest(
        "table",
        {
            "rho": "[" + " ".join(_fmt(r) for r in rhos) + "]",
            "t_max": _fmt(args.t_max),
            "tol": _fmt(args.tol),
            "max_depth": args.max_depth,
        },
        mode,
    )
    lines.append("rho,phi_numeric,phi_closed,abs_diff,symmetry_f")
    lines.extend(rows)
    _emit(args.out, lines)
    return 0


def _coarse_grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(_grid_count(lo, hi, step))]


def _field_grid(coarse: list[float], lo: float, hi: float) -> list[float]:
    """Refine a validated coarse grid to 0.002 within 0.05 of each jump
    and add one-sided offsets hugging the jumps (never the jumps).

    Points are deduplicated by their printed form, so refinement points a
    few ulp off a coarse point collapse into one row."""
    pts: dict[str, float] = {}

    def add(p: float):
        if lo <= p <= hi and p not in magneton.JUMP_POINTS:
            pts.setdefault(_fmt(p), p)

    for p in coarse:
        add(p)
    for j in magneton.JUMP_POINTS:
        for k in range(-25, 26):
            if k != 0:
                add(j + 0.002 * k)
        add(j - _JUMP_OFFSET)
        add(j + _JUMP_OFFSET)
    return sorted(pts.values())


def cmd_figure(args) -> int:
    mode = _mode_from_flag(args.rh_mode)
    name = args.name
    lo_d, hi_d, step_d = _FIGURE_DEFAULTS[name]
    lo = lo_d if args.lo is None else args.lo
    hi = hi_d if args.hi is None else args.hi
    step = step_d if args.step is None else args.step
    if not (step > 0.0) or hi <= lo:
        raise DomainError(f"bad grid: lo={lo!r} hi={hi!r} step={step!r}")

    lines = _manifest(
        "figure",
        {"name": name, "lo": _fmt(lo), "hi": _fmt(hi), "step": _fmt(step)},
        mode,
    )

    if name == "phi":
        lines.append("# potential phi(rho), closed form")
        lines.append("rho,phi_closed")
        for r in _coarse_grid(lo, hi, step):
            lines.append(f"{_fmt(r)},{_fmt(magneton.phi_closed(r, mode))}")
    elif name == "field":
        for edge in (lo, hi):
            if edge in magneton.JUMP_POINTS:
                raise JumpPointError(
                    f"grid endpoint rho = {edge:g} sits on a jump of E; the "
                    f"derivative is one-sided there, so end the grid at an "
                    f"offset such as {edge:g}-1e-6 or {edge:g}+1e-6 instead"
                )
        # interior grid points landing on a jump are plot filler, not an
        # explicit request: drop them, the one-sided offsets stand in
        coarse = [r for r in _coarse_grid(lo, hi, step) if r not in magneton.JUMP_POINTS]
        grid = _field_grid(coarse, lo, hi)
        lines.append(
            "# field E = phi' (jumps excluded; refined grid and one-sided "
            f"offsets at {_JUMP_OFFSET:g} flank each jump)"
        )
        lines.append("rho,field_E")
        for r in grid:
            lines.append(f"{_fmt(r)},{_fmt(magneton.field_E(r, mode))}")
    elif name == "well":
        if abs((lo + hi) - 2.0) > 1e-12:
            raise DomainError(
                "well grid must be symmetric about x = 1 (lo + hi = 2) so "
                "that S(x) = S(2 - x) holds row for row"
            )
        # build the left half and mirror it; S(x) and S(2-x) average the
        # same two potential values, so the mirrored rows are exact
        left = [x for x in _coarse_grid(lo, 1.0, step) if x <= 1.0]
        values = [(x, magneton.well_S(x, mode)) for x in left]
        lines.append("# symmetric well S(x) = (phi(x-1/2) + phi(3/2-x))/2")
        lines.append("x,well_S")
        for x, s in values:
            lines.append(f"{_fmt(x)},{_fmt(s)}")
        for x, s in reversed(values):
            mx = 2.0 - x
            if mx > 1.0:
                lines.append(f"{_fmt(mx)},{_fmt(s)}")
    else:  # xi
        if abs((lo + hi) - 2.0) > 1e-12:
            raise DomainError(
                "xi grid must be symmetric about x = 1 (lo + hi = 2) so the "
                "emitted curve mirrors row for row"
            )
        # ln|xi(1+|x-1|)|: the line average of ln|xi| in the shifted
        # coordinate x = rho + 1/2, continued across x = 1 by its exact
        # mirror symmetry; under the half-line hypothesis it agrees with
        # the potential route on (1/2, 3/2)
        right = [x for x in _coarse_grid(1.0, hi, step)]
        values = [(x, math.log(abs(specfun.xi(x)))) for x in right]
        lines.append(
            "# symmetrized log xi: ln|xi(1+|x-1|)|, the averaged log of the "
            "completed zeta in the x = rho + 1/2 coordinate"
        )
        lines.append("x,sym_log_xi")
        for x, v in reversed(values):
            mx = 2.0 - x
            if mx < 1.0:
                lines.append(f"{_fmt(mx)},{_fmt(v)}")
        for x, v in values:
            lines.append(f"{_fmt(x)},{_fmt(v)}")
    _emit(args.out, lines)
    return 0


def cmd_constants(args) -> int:
    mode = _mode_from_flag(args.rh_mode)
    if mode is not magneton.RhMode.CONDITIONAL_RH:
        raise RhModeError(
            "the jump constants are one-sided strip limits; rerun with "
            "--rh-mode conditional"
        )

    x1, x2 = diagnostics.well_zeros()

    def slope_fd(h: float) -> float:
        return (magneton.phi_closed(0.5 + h) - magneton.phi_closed(0.5 - h)) / (2.0 * h)

    def volchkov_fd(h: float) -> float:
        return (
            magneton.field_E(1.0 - h)
            - magneton.field_E(0.5 + h)
            - magneton.field_E(1.0 + h)
        )

    # name, analytic (or published reference for the roots), numeric
    # cross-check, tolerance, strip tag
    entries = [
        ("jump_at_one", 4.0 * math.pi, magneton.numeric_jump_at_one(), 1e-4, "strip"),
        (
            "jump_at_zero",
            math.pi * (-4.0 + _GAMMA + 3.0 * math.log(2.0) + 0.5 * math.pi),
            magneton.numeric_jump_at_zero(),
            1e-4,
            "strip",
        ),
        (
            "lambda_one",
            magneton.lambda_one(),
            (magneton.field_E_onesided(0.5, "+") - magneton.slope_at_half()) / math.pi,
            1e-10,
            "strip",
        ),
        (
            "volchkov_delta",
            math.pi * (3.0 - _GAMMA),
            magneton.richardson(volchkov_fd),
            1e-6,
            "strip",
        ),
        ("slope_at_half", magneton.slope_at_half(), magneton.richardson(slope_fd), 1e-6, "strip"),
        (
            "field_half_plus",
            math.pi * (1.0 + _GAMMA),
            magneton.richardson(lambda h: magneton.field_E(0.5 + h)),
            1e-6,
            "strip",
        ),
        ("x1", 1.610217484, x1, 1e-7, ""),
        ("x2", 0.389782516, x2, 1e-7, ""),
        ("xi_at_x1", 1.022934630, abs(specfun.xi(x1)), 1e-6, ""),
    ]

    lines = _manifest("constants", {}, mode)
    lines.append("name,analytic,numeric,discrepancy,tag")
    failures = []
    for name, analytic, numeric, tol, tag in entries:
        disc = numeric - analytic
        tagtxt = "rh-conditional" if tag else "unconditional"
        lines.append(
            f"{name},{_fmt(analytic)},{_fmt(numeric)},{_fmt(disc)},{tagtxt}"
        )
        if abs(disc) > tol:
            failures.append((abs(disc) / tol, name, disc, tol))
    magneton.jump_at_one()  # runs its own extrapolated cross-check
    _emit(args.out, lines)
    if failures:
        _, name, disc, tol = max(failures)  # the worst by |disc| / tol
        raise CrossCheckError(
            f"{name}: discrepancy {disc:.3g} exceeds tolerance {tol:.3g}"
        )
    return 0


def cmd_taylor(args) -> int:
    mode = _mode_from_flag(args.rh_mode)
    if args.order < 0 or args.order > 20:
        raise DomainError(f"order must be in [0, 20], got {args.order}")
    table = specfun.sieve_primes(args.prime_limit)
    coeffs = taylor.compute_coefficients(
        args.order, table, k_max=args.k_max, tail_budget=args.tail_budget
    )
    reference = taylor.rearranged_at_one_exact(args.order)

    lines = _manifest(
        "taylor",
        {
            "order": args.order,
            "prime_limit": args.prime_limit,
            "k_max": args.k_max,
            "tail_budget": args.tail_budget,
        },
        mode,
    )
    lines.append("n,c_n,tail_bound_n")
    for n, (cn, bn) in enumerate(zip(coeffs.c, coeffs.c_bounds)):
        lines.append(f"{n},{_fmt(cn)},{_fmt(bn)}")
    lines.append("quantity,prime_route,reference,note")
    pr = taylor.rearranged_at_one(coeffs, coeffs.order)
    lam = magneton.lambda_one()
    lines.append(
        f"value_at_one,{_fmt(pr.value)},{_fmt(reference.value)},"
        "near-total cancellation; trust the reference column"
    )
    lines.append(f"slope_at_one,{_fmt(pr.slope)},{_fmt(reference.slope)},first Li estimate")
    lines.append(f"curvature_at_one,{_fmt(pr.curvature)},{_fmt(reference.curvature)},")
    lines.append(
        f"lambda_one_gap,{_fmt(pr.slope - lam)},{_fmt(reference.slope - lam)},"
        "vs closed lambda_1"
    )
    lines.append(f"tail_bound,{_fmt(coeffs.tail_bound)},0,prime route only")
    c0_direct = math.log(abs(specfun.xi(1.5)))
    lines.append(
        f"c0_check,{_fmt(coeffs.c[0])},{_fmt(c0_direct)},"
        f"direct ln|xi(3/2)| gap {_fmt(coeffs.c[0] - c0_direct)}"
    )
    _emit(args.out, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magneton",
        description=(
            "Numerical laboratory for the Lorentz-averaged log-zeta "
            "potential: tables, figure data, jump constants, prime-sum "
            "Taylor coefficients."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--rh-mode",
        choices=("conditional", "outside-only"),
        default="conditional",
        help="strip values assume the half-line hypothesis (conditional) "
        "or are refused (outside-only)",
    )
    common.add_argument("--out", default=None, help="output file (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table", parents=[common], help="potential table at given rho points"
    )
    p_table.add_argument(
        "--rho",
        nargs="+",
        required=True,
        help="rho values and/or lo:hi:step ranges",
    )
    p_table.add_argument("--t-max", type=float, default=50.0)
    p_table.add_argument("--tol", type=float, default=1e-8)
    p_table.add_argument("--max-depth", type=int, default=40)
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", parents=[common], help="plot-ready figure data")
    p_fig.add_argument("name", choices=tuple(_FIGURE_DEFAULTS))
    p_fig.add_argument("--lo", type=float, default=None)
    p_fig.add_argument("--hi", type=float, default=None)
    p_fig.add_argument("--step", type=float, default=None)
    p_fig.set_defaults(func=cmd_figure)

    p_const = sub.add_parser(
        "constants", parents=[common], help="headline constants with cross-checks"
    )
    p_const.set_defaults(func=cmd_constants)

    p_taylor = sub.add_parser(
        "taylor", parents=[common], help="prime-sum Taylor coefficient report"
    )
    p_taylor.add_argument("--order", type=int, default=taylor.DEFAULT_ORDER)
    p_taylor.add_argument("--prime-limit", type=int, default=taylor.DEFAULT_PRIME_LIMIT)
    p_taylor.add_argument("--k-max", type=int, default=taylor.DEFAULT_K_MAX)
    p_taylor.add_argument("--tail-budget", type=float, default=None)
    p_taylor.set_defaults(func=cmd_taylor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, TruncationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except MagnetonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow ({exc})", file=sys.stderr)
        return 2
