"""Output checks: every payload is compared against references the
benchmark holds itself, so a faster but wrong program counts as failed.

* table rows: phi_numeric against the stored truncated integral
  (refs.json), phi_closed and symmetry_f against mpmath evaluations of the
  closed formulas.  phi_numeric is never compared with phi_closed: their
  gap for rho < 1/2 is the documented truncation effect.
* taylor: each c_n against the stored exact coefficients within the
  tail bound the program reports for it, and the exact-route columns
  against the rearranged series of the stored coefficients.
* figures: a seeded sample of rows (plus the jump flanks of the field)
  against mpmath evaluations of the same closed formulas, and the exact
  row-for-row mirror symmetry of `well` and `xi`.
* constants: both columns against mpmath values, within the tolerance the
  program itself applies to each constant.

Each compared value contributes |output - reference| / tolerance; a ratio
above 1 fails the payload, and the largest ratio is max_err_ratio.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass

import mpmath as mp

from workloads import JUMP_POINTS

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# Absolute tolerance on phi_numeric against the truncated integral.  The
# program's integrator aims at 1e-8 but documents that its estimate is
# optimistic on singular lines; the rho = 1 line (pole at t = 0) is off by
# 2.2e-6 at the parent commit.  1e-5 passes that documented behaviour and
# fails anything ten times worse; the gap itself shows in max_err_ratio.
TABLE_TOL = 1e-5
# Closed forms are double-precision evaluations printed with 12 digits:
# relative tolerance, absolute below magnitude 1.
CLOSED_TOL = 1e-9
# The tolerance `magneton constants` applies to each of its own rows.
CONSTANT_TOLS = {
    "jump_at_one": 1e-4,
    "jump_at_zero": 1e-4,
    "lambda_one": 1e-10,
    "volchkov_delta": 1e-6,
    "slope_at_half": 1e-6,
    "field_half_plus": 1e-6,
    "x1": 1e-7,
    "x2": 1e-7,
    "xi_at_x1": 1e-6,
}
FIGURE_SAMPLE = 100
JUMP_FLANK = 1e-6
MANIFEST_KEYS = ("command", "parameters", "rh_mode", "tool_version", "timestamp")
DPS = 30
TABLE_HEADER = "rho,phi_numeric,phi_closed,abs_diff,symmetry_f"
COEFF_HEADER = "n,c_n,tail_bound_n"
QUANTITY_HEADER = "quantity,prime_route,reference,note"
QUANTITIES = ("value_at_one", "slope_at_one", "curvature_at_one", "lambda_one_gap", "tail_bound", "c0_check")
CONSTANTS_HEADER = "name,analytic,numeric,discrepancy,tag"
FIGURE_HEADERS = {"phi": "rho,phi_closed", "field": "rho,field_E", "well": "x,well_S", "xi": "x,sym_log_xi"}
HEADERS = {TABLE_HEADER, COEFF_HEADER, QUANTITY_HEADER, CONSTANTS_HEADER, *FIGURE_HEADERS.values()}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    worst_ratio: float
    reason: str = ""


@functools.lru_cache(maxsize=1)
def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class _Audit:
    def __init__(self):
        self.worst = 0.0
        self.problems: list[str] = []

    def value(self, what: str, out: float, ref, tol: float):
        ratio = float(abs(mp.mpf(out) - ref)) / tol
        if not ratio <= 1.0:  # also catches nan
            self.problems.append(f"{what}: {out!r} vs reference {mp.nstr(ref, 15)} (tol {tol:g})")
            ratio = math.inf if math.isnan(ratio) else ratio
        self.worst = max(self.worst, ratio)

    def closed(self, what: str, out: float, ref):
        self.value(what, out, ref, CLOSED_TOL * max(1.0, float(abs(ref))))

    def require(self, cond: bool, what: str):
        if not cond:
            self.problems.append(what)


# ---- mpmath transcriptions of the closed formulas --------------------------

def _reg(s):
    """(s-1) zeta(s), equal to 1 at s = 1."""
    return mp.mpf(1) if s == 1 else (s - 1) * mp.zeta(s)


def _zeta_logderiv(s):
    return mp.zeta(s, derivative=1) / mp.zeta(s)


def _reg_logderiv(s):
    return 1 / (s - 1) + _zeta_logderiv(s)


def phi_closed(rho):
    half, pi, ln_pi = mp.mpf(1) / 2, mp.pi, mp.log(mp.pi)
    if rho >= 1:
        return pi * mp.log(mp.zeta(rho + half))
    if rho <= 0:
        return pi * ((rho - half) * ln_pi + mp.log(mp.zeta(3 * half - rho))
                     + mp.loggamma(mp.mpf(3) / 4 - rho / 2) - mp.loggamma(mp.mpf(1) / 4 - rho / 2))
    if rho == half:
        return mp.mpf(0)
    if rho > half:
        return pi * (mp.log(_reg(rho + half)) - mp.log(3 * half - rho))
    return pi * (mp.log(_reg(3 * half - rho)) - mp.log(half + rho) + (rho - half) * ln_pi
                 + mp.loggamma(mp.mpf(3) / 4 - rho / 2) - mp.loggamma(mp.mpf(1) / 4 + rho / 2))


def symmetry_defect(rho):
    quarter = mp.mpf(1) / 4
    return mp.pi * (mp.log(mp.pi) * (rho - 2 * quarter)
                    + mp.loggamma(quarter + abs(rho - 1) / 2) - mp.loggamma(quarter + abs(rho) / 2))


def field_E(rho):
    half, pi, ln_pi = mp.mpf(1) / 2, mp.pi, mp.log(mp.pi)
    if rho > 1:
        return pi * _zeta_logderiv(rho + half)
    if rho < 0:
        return pi * (ln_pi - _zeta_logderiv(3 * half - rho)
                     - mp.digamma(mp.mpf(3) / 4 - rho / 2) / 2 + mp.digamma(mp.mpf(1) / 4 - rho / 2) / 2)
    if rho > half:
        return pi * (_reg_logderiv(rho + half) + 1 / (3 * half - rho))
    return pi * (-_reg_logderiv(3 * half - rho) - 1 / (half + rho) + ln_pi
                 - mp.digamma(mp.mpf(3) / 4 - rho / 2) / 2 - mp.digamma(mp.mpf(1) / 4 + rho / 2) / 2)


def well_S(x):
    half = mp.mpf(1) / 2
    return (phi_closed(x - half) + phi_closed(3 * half - x)) / 2


def log_xi(s):
    """ln xi(s) for real s > 0, xi(s) = s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)."""
    return mp.log(s) + mp.log(_reg(s)) - s / 2 * mp.log(mp.pi) + mp.loggamma(s / 2)


@functools.lru_cache(maxsize=1)
def constant_refs() -> dict:
    with mp.workdps(DPS):
        g, pi, ln2 = mp.euler, mp.pi, mp.log(2)
        x1 = mp.findroot(
            lambda x: 2 * mp.log(mp.zeta(x)) + mp.loggamma(x / 2) - mp.loggamma((x - 1) / 2)
            + (1 - x) * mp.log(pi),
            mp.mpf("1.61"),
        )
        return {
            "jump_at_one": 4 * pi,
            "jump_at_zero": pi * (-4 + g + 3 * ln2 + pi / 2),
            "lambda_one": 1 + g / 2 - mp.log(4 * pi) / 2,
            "volchkov_delta": pi * (3 - g),
            "slope_at_half": pi * (mp.log(pi) + g + 2 * ln2) / 2,
            "field_half_plus": pi * (1 + g),
            "x1": x1,
            "x2": 2 - x1,
            "xi_at_x1": mp.exp(log_xi(x1)),
        }


# ---- payload parsing ---------------------------------------------------------

def _sections(payload: str, audit: _Audit) -> dict[str, list[list[str]]]:
    """Split a payload into its csv sections, keyed by header, after
    checking the five-line manifest; '#' comment lines are skipped."""
    audit.require(payload.endswith("\n"), "payload does not end with a newline")
    lines = payload.split("\n")[:-1]
    audit.require(len(lines) >= 5, "manifest shorter than five lines")
    for key, line in zip(MANIFEST_KEYS, lines[:5]):
        audit.require(line.startswith(f"# {key}: "), f"manifest line {line!r} is not '# {key}'")
    sections: dict[str, list[list[str]]] = {}
    rows = None
    for line in lines[5:]:
        if line.startswith("#"):
            continue
        if line in HEADERS:
            rows = sections.setdefault(line, [])
        elif rows is None:
            audit.require(False, f"data line {line!r} before any header")
        else:
            rows.append(line.split(","))
    return sections


def _section(sections, header: str, audit: _Audit) -> list[list[str]]:
    audit.require(header in sections, f"no section with header {header!r}")
    return sections.get(header, [])


def _flag(argv: list[str], name: str) -> str:
    for i, tok in enumerate(argv):
        if tok == name:
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    raise KeyError(name)


# ---- per-command checks ------------------------------------------------------

def _check_table(argv, sections, audit: _Audit, rng):
    start = argv.index("--rho") + 1
    stop = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    wanted = [float(tok) for tok in argv[start:stop]]
    reference = load_refs()["table"]["phi_truncated"]
    rows = _section(sections, TABLE_HEADER, audit)
    audit.require(len(rows) == len(wanted), f"{len(rows)} table rows for {len(wanted)} rho values")
    for cells, rho in zip(rows, wanted):
        r, numeric, closed, diff, f_val = (float(c) for c in cells)
        audit.require(r == rho, f"row for rho {r!r} where {rho!r} was asked")
        x = mp.mpf(repr(rho))
        audit.value(f"phi_numeric({rho!r})", numeric, mp.mpf(reference[repr(rho)]), TABLE_TOL)
        audit.closed(f"phi_closed({rho!r})", closed, phi_closed(x))
        audit.closed(f"symmetry_f({rho!r})", f_val, symmetry_defect(x))
        audit.closed(f"abs_diff({rho!r})", diff, abs(mp.mpf(numeric) - mp.mpf(closed)))


def _check_taylor(argv, sections, audit: _Audit, rng):
    order = int(_flag(argv, "--order"))
    exact = [mp.mpf(c) for c in load_refs()["taylor"]["c_exact"]]
    rows = _section(sections, COEFF_HEADER, audit)
    audit.require(len(rows) == order + 1, f"{len(rows)} coefficient rows for order {order}")
    for cells in rows:
        n, c_n, bound = int(cells[0]), float(cells[1]), float(cells[2])
        audit.require(bound > 0.0, f"tail bound of c_{n} is {bound!r}")
        audit.value(f"c_{n}", c_n, exact[n], bound)
    quantities = {cells[0]: cells for cells in _section(sections, QUANTITY_HEADER, audit)}
    audit.require(set(quantities) == set(QUANTITIES), f"quantity rows {sorted(quantities)}")
    half = -mp.mpf(1) / 2
    sums = {
        "value_at_one": mp.fsum(exact[n] * half**n / mp.factorial(n) for n in range(order + 1)),
        "slope_at_one": mp.fsum(exact[n] * half ** (n - 1) / mp.factorial(n - 1) for n in range(1, order + 1)),
        "curvature_at_one": mp.fsum(exact[n] * half ** (n - 2) / (2 * mp.factorial(n - 2)) for n in range(2, order + 1)),
    }
    for name, ref in sums.items():
        if name in quantities:
            audit.closed(f"{name}.reference", float(quantities[name][2]), ref)


def _check_constants(argv, sections, audit: _Audit, rng):
    refs = constant_refs()
    rows = _section(sections, CONSTANTS_HEADER, audit)
    audit.require([cells[0] for cells in rows] == list(CONSTANT_TOLS), f"constant rows {[c[0] for c in rows]}")
    for cells in rows:
        name, analytic, numeric = cells[0], float(cells[1]), float(cells[2])
        if name in refs:
            audit.value(f"{name}.analytic", analytic, refs[name], CONSTANT_TOLS[name])
            audit.value(f"{name}.numeric", numeric, refs[name], CONSTANT_TOLS[name])


_FIGURE_FORMULAS = {
    "phi": phi_closed,
    "field": field_E,
    "well": well_S,
    "xi": lambda x: log_xi(1 + abs(x - 1)),
}


def _check_figure(argv, sections, audit: _Audit, rng):
    name = argv[1]
    lo, hi, step = (float(_flag(argv, f)) for f in ("--lo", "--hi", "--step"))
    formula = _FIGURE_FORMULAS[name]
    rows = _section(sections, FIGURE_HEADERS[name], audit)
    xs = [float(cells[0]) for cells in rows]
    coarse = round((hi - lo) / step) + 1
    audit.require(len(rows) >= coarse - 3, f"{len(rows)} rows where the grid has {coarse}")
    audit.require(all(a < b for a, b in zip(xs, xs[1:])), "abscissae not strictly increasing")
    audit.require(lo - 1e-9 <= xs[0] and xs[-1] <= hi + 1e-9, f"rows leave [{lo!r}, {hi!r}]")
    picks = set(rng.sample(range(len(rows)), min(FIGURE_SAMPLE, len(rows)))) | {0, len(rows) - 1}
    if name == "field":
        audit.require(not any(x in JUMP_POINTS for x in xs), "a field row sits on a jump")
        position = {cells[0]: i for i, cells in enumerate(rows)}
        for jump in JUMP_POINTS:
            for flank in (f"{jump - JUMP_FLANK:.12g}", f"{jump + JUMP_FLANK:.12g}"):
                if lo < jump < hi:
                    audit.require(flank in position, f"missing one-sided row at {flank}")
                    picks.add(position.get(flank, 0))
    else:
        audit.require(len(rows) <= coarse + 3, f"{len(rows)} rows where the grid has {coarse}")
    if name in ("well", "xi"):
        mirrored = all(
            a[1] == b[1] and abs(float(a[0]) + float(b[0]) - 2.0) < 1e-9
            for a, b in zip(rows, reversed(rows))
        )
        audit.require(mirrored, f"{name} rows are not mirror-exact about x = 1")
    for i in sorted(picks):
        audit.closed(f"{name}({rows[i][0]})", float(rows[i][1]), formula(mp.mpf(rows[i][0])))


def check(argv: list[str], payload: str) -> Verdict:
    """Check one command's payload against the benchmark's references."""
    audit = _Audit()
    rng = random.Random(" ".join(argv))
    check_one = {
        "table": _check_table,
        "taylor": _check_taylor,
        "constants": _check_constants,
        "figure": _check_figure,
    }[argv[0]]
    try:
        with mp.workdps(DPS):
            check_one(argv, _sections(payload, audit), audit, rng)
    except (ValueError, IndexError, KeyError) as exc:
        audit.require(False, f"malformed payload: {exc!r}")
    if audit.problems:
        return Verdict(False, audit.worst, "; ".join(audit.problems[:3]))
    return Verdict(True, audit.worst)
