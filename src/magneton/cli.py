"""Command-line front end: tables of the potential, plot-ready figure
data, the headline jump constants with numeric cross-checks, and the
prime-sum Taylor report.

Output is UTF-8 comma-separated text with a '#'-prefixed manifest header
(command, parameters, rh mode, version, timestamp).  Identical flags
reproduce byte-identical payloads; only the timestamp line varies.  Exit
codes follow the classes of `errors`: 0 success; 2 DomainError (bad
input, a pole, the zeta window, a jump point, an RH-mode refusal, a size
budget, an unwritable --out), any other MagnetonError, a bad flag value
(ValueError) or a value beyond the double range (OverflowError); 3
ConvergenceError (numeric non-convergence or truncation budget); 4
CrossCheckError.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

from . import __version__, diagnostics, magneton, specfun
from .errors import ConvergenceError, CrossCheckError, DomainError, MagnetonError

_JUMP_OFFSET = 1e-6
# Most rows one rho list or figure grid may hold; counted before anything
# is allocated, so a tiny step is refused instead of exhausting memory.
_MAX_ROWS = 1_000_000
# The defaults of quad.QuadratureConfig and taylor.compute_coefficients and
# taylor's highest exact order, restated so that the parser and a refused
# order import neither module (a test keeps them in step).
_TABLE_DEFAULTS = {"t_max": 50.0, "abs_tol": 1e-8, "max_depth": 40}
_TAYLOR_DEFAULTS = {"order": 13, "prime_limit": 10**6, "k_max": 60}
_MAX_ORDER = 20
_RH_MODES = {
    "conditional": magneton.RhMode.CONDITIONAL_RH,
    "outside-only": magneton.RhMode.OUTSIDE_STRIP_ONLY,
}
_FIGURES = {
    # name: default (lo, hi, step), comment line, column header
    "phi": ((-2.0, 3.0, 0.01), "# potential phi(rho), closed form", "rho,phi_closed"),
    "field": (
        (-2.0, 3.0, 0.01),
        "# field E = phi' (jumps excluded; refined grid and one-sided "
        f"offsets at {_JUMP_OFFSET:g} flank each jump)",
        "rho,field_E",
    ),
    "well": (
        (0.0, 2.0, 0.01),
        "# symmetric well S(x) = (phi(x-1/2) + phi(3/2-x))/2",
        "x,well_S",
    ),
    "xi": (
        (0.0, 2.0, 0.01),
        "# symmetrized log xi: ln|xi(1+|x-1|)|, the averaged log of the "
        "completed zeta in the x = rho + 1/2 coordinate",
        "x,sym_log_xi",
    ),
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(args, params: dict, body: list[str]):
    """Write the five-line manifest and then `body` to --out or stdout; an
    --out that cannot be written is a usage error."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    rendered = ", ".join(f"{k}={params[k]}" for k in sorted(params)) or "defaults"
    manifest = [
        f"# command: {args.command}",
        f"# parameters: {rendered}",
        f"# rh_mode: {args.mode.value}",
        f"# tool_version: {__version__}",
        f"# timestamp: {stamp}",
    ]
    payload = "\n".join(manifest + body) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc


def _grid_count(lo: float, hi: float, step: float) -> int:
    """Number of points of the inclusive grid lo, lo + step, ... <= hi."""
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_ROWS:  # also refuses inf and nan
        raise DomainError(
            f"grid {lo:g}..{hi:g} step {step:g} exceeds {_MAX_ROWS} rows "
            "or is not finite"
        )
    return int(math.floor(span)) + 1


def _coarse_grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(_grid_count(lo, hi, step))]


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
            grid = _coarse_grid(lo, hi, step)
            if len(out) + len(grid) > _MAX_ROWS:
                raise DomainError(f"rho list exceeds {_MAX_ROWS} rows")
            out.extend(grid)
        else:
            out.append(float(tok))
    if not out:
        raise DomainError("empty rho list")
    return out


def cmd_table(args) -> int:
    rhos = _parse_rho_spec(args.rho)
    # numpy starts loading here and in cmd_taylor, nowhere else in cli:
    # quad and taylor import it at the top
    from . import quad

    cfg = quad.QuadratureConfig(
        t_max=args.t_max, abs_tol=args.tol, max_depth=args.max_depth
    )
    # the closed forms run row by row and the quadrature on every line at
    # once, yet a failure is raised as a row-by-row loop would meet it: the
    # first failing row, and within it phi_closed, the quadrature, then
    # symmetry_defect.  All rows are computed before a single byte is
    # written, so a failure never leaves a truncated table behind.
    closed, symmetry, late = [], [], None
    try:
        for rho in rhos:
            closed.append(magneton.phi_closed(rho, args.mode))
            symmetry.append(magneton.symmetry_defect(rho))
    except (MagnetonError, ArithmeticError, ValueError) as exc:
        late = exc
    numeric = [res.value for res in quad.phi_numeric_lines(rhos[: len(closed)], cfg)]
    if late is not None:
        raise late
    rows = [
        ",".join(_fmt(v) for v in (rho, num, c, abs(num - c), f))
        for rho, num, c, f in zip(rhos, numeric, closed, symmetry)
    ]
    params = {
        "rho": "[" + " ".join(_fmt(r) for r in rhos) + "]",
        "t_max": _fmt(args.t_max),
        "tol": _fmt(args.tol),
        "max_depth": args.max_depth,
    }
    _emit(args, params, ["rho,phi_numeric,phi_closed,abs_diff,symmetry_f", *rows])
    return 0


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
    name, mode = args.name, args.mode
    (lo_d, hi_d, step_d), *headers = _FIGURES[name]
    lo = lo_d if args.lo is None else args.lo
    hi = hi_d if args.hi is None else args.hi
    step = step_d if args.step is None else args.step
    if not (step > 0.0) or hi <= lo:
        raise DomainError(f"bad grid: lo={lo!r} hi={hi!r} step={step!r}")

    if name == "phi":
        rows = ((r, magneton.phi_closed(r, mode)) for r in _coarse_grid(lo, hi, step))
    elif name == "field":
        for edge in (lo, hi):
            if edge in magneton.JUMP_POINTS:
                raise DomainError(
                    f"grid endpoint rho = {edge:g} sits on a jump of E; the "
                    f"derivative is one-sided there, so end the grid at an "
                    f"offset such as {edge:g}-1e-6 or {edge:g}+1e-6 instead"
                )
        # interior grid points landing on a jump are plot filler, not an
        # explicit request: _field_grid drops them, the one-sided offsets
        # stand in
        grid = _field_grid(_coarse_grid(lo, hi, step), lo, hi)
        rows = ((r, magneton.field_E(r, mode)) for r in grid)
    else:
        if abs((lo + hi) - 2.0) > 1e-12:
            raise DomainError(
                f"{name} grid must be symmetric about x = 1 (lo + hi = 2) so "
                "that the emitted curve mirrors row for row"
            )
        if name == "well":
            # S(x) and S(2-x) average the same two potential values, so
            # the mirrored rows are exact
            half = [x for x in _coarse_grid(lo, 1.0, step) if x <= 1.0]
            rows = [(x, magneton.well_S(x, mode)) for x in half]
        else:
            # ln|xi(1+|x-1|)|: the line average of ln|xi| in the shifted
            # coordinate x = rho + 1/2, continued across x = 1 by its exact
            # mirror symmetry; under the half-line hypothesis it agrees
            # with the potential route on (1/2, 3/2)
            rows = [(x, math.log(specfun.xi(x))) for x in _coarse_grid(1.0, hi, step)]
        # one row per printed abscissa: x = 1 is its own mirror, and a grid
        # point an ulp below 1 prints as "1" just as its mirror does
        rows += [(2.0 - x, v) for x, v in rows if _fmt(2.0 - x) != _fmt(x)]
        rows.sort()

    params = {"name": name, "lo": _fmt(lo), "hi": _fmt(hi), "step": _fmt(step)}
    body = [*headers, *(f"{_fmt(x)},{_fmt(v)}" for x, v in rows)]
    _emit(args, params, body)
    return 0


def cmd_constants(args) -> int:
    if args.mode is not magneton.RhMode.CONDITIONAL_RH:
        raise DomainError(
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
        ("jump_at_one", magneton.JUMP_AT_ONE, magneton.numeric_jump_at_one(), 1e-4, "strip"),
        ("jump_at_zero", magneton.JUMP_AT_ZERO, magneton.numeric_jump_at_zero(), 1e-4, "strip"),
        (
            "lambda_one",
            magneton.LAMBDA_ONE,
            (magneton.field_E_onesided(0.5, "+") - magneton.SLOPE_AT_HALF) / math.pi,
            1e-10,
            "strip",
        ),
        ("volchkov_delta", magneton.VOLCHKOV_DELTA, magneton.richardson(volchkov_fd), 1e-6, "strip"),
        ("slope_at_half", magneton.SLOPE_AT_HALF, magneton.richardson(slope_fd), 1e-6, "strip"),
        (
            "field_half_plus",
            magneton.field_E_onesided(0.5, "+"),
            magneton.richardson(lambda h: magneton.field_E(0.5 + h)),
            1e-6,
            "strip",
        ),
        ("x1", 1.610217484, x1, 1e-7, ""),
        ("x2", 0.389782516, x2, 1e-7, ""),
        ("xi_at_x1", 1.022934630, abs(specfun.xi(x1)), 1e-6, ""),
    ]

    lines = ["name,analytic,numeric,discrepancy,tag"]
    failures = []
    for name, analytic, numeric, tol, tag in entries:
        disc = numeric - analytic
        tagtxt = "rh-conditional" if tag else "unconditional"
        lines.append(f"{name},{_fmt(analytic)},{_fmt(numeric)},{_fmt(disc)},{tagtxt}")
        if abs(disc) > tol:
            failures.append((abs(disc) / tol, name, disc, tol))
    _emit(args, {}, lines)
    if failures:
        _, name, disc, tol = max(failures)  # the worst by |disc| / tol
        raise CrossCheckError(
            f"{name}: discrepancy {disc:.3g} exceeds tolerance {tol:.3g}"
        )
    return 0


def cmd_taylor(args) -> int:
    if not 0 <= args.order <= _MAX_ORDER:
        raise DomainError(f"order must be in [0, {_MAX_ORDER}], got {args.order}")
    from . import taylor  # numpy starts loading here (see cmd_table)

    coeffs = taylor.compute_coefficients(
        args.order, args.prime_limit, args.k_max, args.tail_budget
    )
    reference = taylor.rearranged_at_one_exact(args.order)

    lines = ["n,c_n,tail_bound_n"]
    for n, (cn, bn) in enumerate(zip(coeffs.c, coeffs.c_bounds)):
        lines.append(f"{n},{_fmt(cn)},{_fmt(bn)}")
    lines.append("quantity,prime_route,reference,note")
    pr = taylor.rearranged_at_one(coeffs.c, args.order)
    lam = magneton.LAMBDA_ONE
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
    params = {k: getattr(args, k) for k in ("order", "prime_limit", "k_max", "tail_budget")}
    _emit(args, params, lines)
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
        choices=_RH_MODES,
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
        "--rho", nargs="+", required=True, help="rho values and/or lo:hi:step ranges"
    )
    p_table.add_argument("--t-max", type=float, default=_TABLE_DEFAULTS["t_max"])
    p_table.add_argument("--tol", type=float, default=_TABLE_DEFAULTS["abs_tol"])
    p_table.add_argument(
        "--max-depth",
        type=int,
        default=_TABLE_DEFAULTS["max_depth"],
        help="quadrature levels per panel, each halving the node step",
    )
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", parents=[common], help="plot-ready figure data")
    p_fig.add_argument("name", choices=tuple(_FIGURES))
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
    p_taylor.add_argument("--order", type=int, default=_TAYLOR_DEFAULTS["order"])
    p_taylor.add_argument("--prime-limit", type=int, default=_TAYLOR_DEFAULTS["prime_limit"])
    p_taylor.add_argument("--k-max", type=int, default=_TAYLOR_DEFAULTS["k_max"])
    p_taylor.add_argument("--tail-budget", type=float, default=None)
    p_taylor.set_defaults(func=cmd_taylor)
    return parser


def main(argv=None) -> int:
    # numpy starts an OpenBLAS thread pool on import, and nothing here calls
    # BLAS; a value the caller set stays
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    args.mode = _RH_MODES[args.rh_mode]
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except (MagnetonError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow ({exc})", file=sys.stderr)
        return 2
    finally:
        # finalisation's collection then skips numpy's module objects (34 ms
        # of teardown after `table`, 9 ms frozen); only as the process, whose
        # heap ends here, and only after numpy, whose objects make it long
        if argv is None and "numpy" in sys.modules:
            gc.freeze()
