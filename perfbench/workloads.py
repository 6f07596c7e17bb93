"""Seeded workload generation: each workload turns a seed into the list of
`magneton` command lines it runs.  The program sees only these arguments.

Why each workload exists, and what it should and should not move:

* table-sweep: one `table` call over about 40 rho lines.  Almost all the
  time is adaptive quadrature (quad) over specfun.log_abs_zeta; the lines
  through the zeta zeros (rho = 1/2) and the pole (rho = 1) cost the most,
  so both are always present.  The rho list is one draw per stratum of a
  fixed candidate grid, so every seed costs about the same.
* taylor-deep: the ROADMAP gate command `taylor --order 20 --prime-limit N`
  with N within 100 of 1e7.  Time goes to the sieve, the prime-sum kernel
  and the mpmath exact route; no quadrature runs.  The jitter is narrow on
  purpose: the prime route's error against the exact coefficients follows
  the local prime-count fluctuation, and over N = 1e7 +- 5% its ratio to
  the stated bound swings between 0.04 and 0.2 while within +-100 it stays
  near 0.04, so max_err_ratio reads the same program state on every seed.
* closed-figures: four fine `figure` grids (about 10k rows each) and
  `constants`.  Tens of thousands of scalar real-axis calls into the same
  zeta kernel through the closed forms, log-gamma, digamma and xi; no
  quadrature and no primes, and import is about half of each command.

Grid endpoints and steps sit on a 1e-6 lattice, so the 12-digit abscissae
the CLI prints are the exact decimals the values were computed at, and
the checks can evaluate their references at the printed abscissa.
"""

from __future__ import annotations

import random

WORKLOADS = ("table-sweep", "taylor-deep", "closed-figures")
# The host-speed probe each workload's times are normalised by
# (hostspeed.py): the one whose bottleneck matches the workload's.
PROBE = {"table-sweep": "interp", "taylor-deep": "stream", "closed-figures": "interp"}

# Truncation height of every table; refs.json is computed for it.
T_MAX = "50"
# Candidate rho lines on [-1, 3]; refs.json holds the truncated integral for each.
TABLE_GRID = tuple(round(-1.0 + 0.05 * i, 2) for i in range(81))
TABLE_ALWAYS = (0.5, 1.0)
TABLE_STRATA = 38
TAYLOR_ORDER = 20
TAYLOR_LIMIT = 10_000_000
TAYLOR_JITTER = 100
FIGURE_ROWS = 10_000
JUMP_POINTS = (0.0, 0.5, 1.0)
_LATTICE = 1e-6


def _lattice(units: int) -> float:
    return round(units * _LATTICE, 6)


def _table(rng: random.Random, smoke: bool) -> list[list[str]]:
    others = [r for r in TABLE_GRID if r not in TABLE_ALWAYS]
    n_strata = 1 if smoke else TABLE_STRATA
    size, extra = divmod(len(others), n_strata)
    picks, start = [], 0
    for i in range(n_strata):
        width = size + (1 if i < extra else 0)
        picks.append(rng.choice(others[start : start + width]))
        start += width
    rhos = sorted(picks + list(TABLE_ALWAYS))
    # an explicit list: a range token starting with '-' is taken for a flag
    return [["table", "--t-max", T_MAX, "--rho", *(repr(r) for r in rhos)]]


def _taylor(rng: random.Random, smoke: bool) -> list[list[str]]:
    limit = 1_000_000 if smoke else TAYLOR_LIMIT
    limit += rng.randint(-TAYLOR_JITTER, TAYLOR_JITTER)
    return [["taylor", "--order", str(TAYLOR_ORDER), "--prime-limit", str(limit)]]


def _figures(rng: random.Random, smoke: bool) -> list[list[str]]:
    rows = 100 if smoke else FIGURE_ROWS
    out = []
    for name, lo0, span in (("phi", -2.0, 5.0), ("field", -2.0, 5.0)):
        while True:
            units = round(span / rows / _LATTICE) + rng.randint(-10, 10)
            lo = _lattice(round(lo0 / _LATTICE) + rng.randint(-500, 500))
            hi = round(lo + rows * _lattice(units), 6)
            # the field refuses an endpoint on a jump of E
            if name == "phi" or (lo not in JUMP_POINTS and hi not in JUMP_POINTS):
                break
        out.append(_figure(name, lo, hi, _lattice(units)))
    for name in ("well", "xi"):
        # symmetric about x = 1, as both figures require
        units = round(2.0 / rows / _LATTICE) + rng.randint(-4, 4)
        half = round(rows // 2 * _lattice(units), 6)
        out.append(_figure(name, round(1.0 - half, 6), round(1.0 + half, 6), _lattice(units)))
    out.append(["constants"])
    return out


def _figure(name: str, lo: float, hi: float, step: float) -> list[str]:
    return ["figure", name, f"--lo={lo!r}", f"--hi={hi!r}", f"--step={step!r}"]


_GENERATORS = {"table-sweep": _table, "taylor-deep": _taylor, "closed-figures": _figures}


def commands(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The CLI argument lists one cycle of `workload` runs, drawn from `seed`."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
