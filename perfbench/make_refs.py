"""Regenerate perfbench/refs.json, the references the output checks use.

    python3 perfbench/make_refs.py

Only mpmath is used, never the package under test, so a change to the
program cannot move its own references.  Takes a few minutes on one core.

* table: the truncated integral int_0^T ln|zeta(rho+it)| dt/(1/4+t^2) at
  T = 50 for every candidate rho of the table-sweep grid, by mpmath.quad
  with the zeta-zero ordinates below T and t = 0 as breakpoints (the
  log singularities of the rho = 1/2 and rho = 1 lines sit there).
* taylor: C_n = d^n/dx^n ln xi(x) at x = 3/2 for n = 0..20, by mpmath's
  Taylor expansion of ln(x (x-1) pi^(-x/2) Gamma(x/2) zeta(x)).
"""

from __future__ import annotations

import json
import os
import sys
import time

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def truncated_integrals(t_max: float) -> dict[str, str]:
    with mp.workdps(25):
        top = mp.mpf(t_max)
        zeros = []
        while True:
            g = mp.zetazero(len(zeros) + 1).imag
            if g >= top:
                break
            zeros.append(g)
        out = {}
        for rho in workloads.TABLE_GRID:
            start = time.perf_counter()
            r = mp.mpf(repr(rho))
            value = mp.quad(
                lambda t: mp.log(abs(mp.zeta(mp.mpc(r, t)))) / (mp.mpf(1) / 4 + t * t),
                [mp.mpf(0), *zeros, top],
            )
            out[repr(rho)] = mp.nstr(value, 20)
            print(f"rho={rho!r} {out[repr(rho)]} {time.perf_counter() - start:.2f}s", flush=True)
    return out


def log_xi_coefficients(order: int) -> list[str]:
    with mp.workdps(60):
        series = mp.taylor(
            lambda x: mp.log(x * (x - 1) * mp.pi ** (-x / 2) * mp.gamma(x / 2) * mp.zeta(x)),
            mp.mpf(3) / 2,
            order,
        )
        return [mp.nstr(a * mp.factorial(n), 25) for n, a in enumerate(series)]


def main() -> int:
    refs = {
        "table": {"t_max": float(workloads.T_MAX), "phi_truncated": truncated_integrals(float(workloads.T_MAX))},
        "taylor": {"order": workloads.TAYLOR_ORDER, "c_exact": log_xi_coefficients(workloads.TAYLOR_ORDER)},
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
