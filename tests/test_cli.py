import collections
import contextlib
import functools
import gc
import io
import math
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from magneton import cli, magneton, quad, specfun, taylor
from magneton.errors import ConvergenceError, CrossCheckError, DomainError, MagnetonError

GAMMA = 0.5772156649015328606065


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def data_rows(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def parse_csv(out: str) -> tuple[list[str], list[list[str]]]:
    rows = data_rows(out)
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def drop_timestamp(out: str) -> str:
    return "\n".join(ln for ln in out.splitlines() if not ln.startswith("# timestamp:"))


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "magneton", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_version_subprocess():
    proc = run_module("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


@pytest.mark.skipif(
    shutil.which("magneton") is None,
    reason="no magneton console script on PATH (pip install -e . provides it)",
)
def test_version_console_script():
    proc = subprocess.run(
        ["magneton", "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_module_entry_passes_exit_code():
    proc = run_module("constants", "--rh-mode", "outside-only")
    assert proc.returncode == 2
    assert "conditional" in proc.stderr


def test_table_values(capsys):
    code, out, _ = run(["table", "--rho", "2", "0.5", "0.55", "0.45"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["rho", "phi_numeric", "phi_closed", "abs_diff", "symmetry_f"]
    by_rho = {r[0]: r for r in body}
    assert abs(float(by_rho["2"][2]) - 0.922933) < 1e-6
    assert by_rho["0.5"][2] == "0"  # exactly zero at the anchor
    assert abs(float(by_rho["0.5"][1]) - 0.00026) < 1e-3
    diff = float(by_rho["0.55"][1]) - float(by_rho["0.45"][1])
    assert abs(diff - 0.49233) < 5e-3
    for r in body:
        assert abs(float(r[3]) - abs(float(r[1]) - float(r[2]))) < 1e-12
    assert "# command: table" in out
    assert "conditional" in out


def test_table_range_spec(capsys):
    code, out, _ = run(["table", "--rho", "0.6:0.8:0.1", "--tol", "1e-6"], capsys)
    assert code == 0
    _, body = parse_csv(out)
    assert [r[0] for r in body] == ["0.6", "0.7", "0.8"]


def test_table_bad_rho(capsys):
    code, _, err = run(["table", "--rho", "abc"], capsys)
    assert code == 2
    assert "error" in err


def test_table_depth_budget(capsys):
    code, _, err = run(["table", "--rho", "0.5", "--max-depth", "4"], capsys)
    assert code == 3
    assert "not converged" in err


def test_table_panel_cap(monkeypatch, capsys):
    monkeypatch.setattr(quad, "_MAX_NODES", 64)
    code, out, err = run(["table", "--rho", "2", "--tol", "1e-10"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "above the cap 64" in err and "depth" in err and "1e-10" in err


@pytest.mark.parametrize(
    "rhos,first,code", [(["2", "0.5"], "2", 3), (["0.5", "2"], "0.5", 2)]
)
def test_table_raises_the_first_failing_row(capsys, rhos, first, code):
    # the quadrature runs on every line at once, yet the error is the one
    # the first failing row meets alone: 2 fails its quadrature at depth 4,
    # 0.5 is refused by phi_closed outside the strip mode
    flags = ["--max-depth", "4", "--rh-mode", "outside-only"]
    want = run(["table", "--rho", first, *flags], capsys)
    assert want[0] == code
    assert run(["table", "--rho", *rhos, *flags], capsys) == want


def test_table_node_cap_inside_a_batch(monkeypatch, capsys):
    monkeypatch.setattr(quad, "_MAX_NODES", 300)
    want = run(["table", "--rho", "1"], capsys)
    assert want[0] == 3 and "450 nodes" in want[2]
    assert run(["table", "--rho", "2", "0.5", "1", "0.2"], capsys) == want


@pytest.mark.parametrize(
    "rhos,message",
    [
        (["-5"], "Re s = -5 lies left of the supported window Re s >= -3"),
        (["nan", "2"], "rho must be finite, got nan"),  # phi_closed refuses the first row
    ],
    ids=["left-of-window", "nan-first-row"],
)
def test_table_with_no_line_left_skips_the_zero_search(monkeypatch, capsys, rhos, message):
    calls = []
    hardy_z = quad._hardy_z
    monkeypatch.setattr(quad, "_hardy_z", lambda t_max: calls.append(t_max) or hardy_z(t_max))
    quad._zero_ordinates.cache_clear()
    assert run(["table", "--rho", *rhos], capsys) == (2, "", f"error: {message}\n")
    assert calls == []


@pytest.mark.parametrize(
    "exc,code,line",
    [
        (DomainError("stub"), 2, "error: stub"),
        (ConvergenceError("stub"), 3, "error: stub"),
        (CrossCheckError("stub"), 4, "cross-check failure: stub"),
        (MagnetonError("stub"), 2, "error: stub"),
        (OverflowError("stub"), 2, "error: numeric overflow (stub)"),
        (ValueError("stub"), 2, "error: stub"),
    ],
    ids=["domain", "convergence", "cross-check", "magneton", "overflow", "value"],
)
def test_exit_code_per_error_class(monkeypatch, capsys, exc, code, line):
    # one exception class per exit code: main tells failures apart by
    # these classes alone, and the message carries the cause
    assert MagnetonError.__subclasses__() == [DomainError, ConvergenceError, CrossCheckError]

    def fail(*args):
        raise exc

    monkeypatch.setattr(magneton, "phi_closed", fail)
    assert run(["table", "--rho", "2"], capsys) == (code, "", line + "\n")


def test_table_unreachable_tolerance_stops():
    # without the panel cap every panel stays open down to the minimum
    # width, millions of them, until memory runs out
    proc = run_module("table", "--rho", "2", "--tol", "1e-17")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "tolerance 1e-17" in proc.stderr


def test_table_infinite_tolerance_refused(capsys):
    # no error estimate exceeds an infinite tolerance, so every panel would
    # close on its first level and print phi_numeric 1.99588363002 at rho = 2
    code, out, err = run(["table", "--rho", "2", "--tol", "inf"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: abs_tol must be finite\n"


def test_table_pole_line_on_a_tiny_panel(capsys):
    # nodes within 1e-308 of the pole overflow |zeta|; the refusal is the
    # only line on stderr, with no numpy warning before it
    code, out, err = run(["table", "--rho", "1", "--t-max", "1e-300"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: non-finite integrand on panel [0, 1e-300]\n"


@pytest.mark.parametrize("rho", ["-5", "-200"])
def test_table_left_of_window(capsys, rho):
    code, out, err = run(["table", "--rho", rho], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "left of the supported window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--rho", "1e24"],
        ["figure", "phi", "--lo=1e300", "--hi=1e301", "--step=1e300"],
        ["figure", "field", "--lo=1e300", "--hi=1e301", "--step=1e300"],
    ],
)
def test_right_of_window(capsys, argv):
    # far right the zeta sums overflow to nan; refused instead of printing
    # nan rows or refining an all-nan line panel by panel
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "right of the supported window" in err


@pytest.mark.parametrize("hi", ["434", "602"])
def test_figure_overflow_exit_code(capsys, hi):
    # |xi(x)| leaves the double range at x = 433; from x = 436 on the
    # exponential factor alone overflows
    lo = str(2 - int(hi))
    code, out, err = run(["figure", "xi", "--lo", lo, "--hi", hi, "--step", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: numeric overflow")


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(
        ["table", "--rho", "2", "--tol", "1e-6", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "rho,phi_numeric" in text


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-parent", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, target):
    argv = ["figure", "phi", "--lo", "0", "--hi", "1", "--step", "0.1"]
    proc = run_module(*argv, "--out", str(tmp_path / target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write --out")
    assert proc.stderr.count("\n") == 1


def test_table_payload_deterministic(capsys):
    # one thread, fixed panel order: a rerun differs only in the timestamp
    argv = ["table", "--rho", "0.8", "2", "0.5", "--tol", "1e-6"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert drop_timestamp(first) == drop_timestamp(second)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--rho", "0:1:0.01"],
        ["table", "--rho", "0:0.3:0.01", "0.5:0.8:0.01"],
        ["figure", "phi", "--step", "0.01"],
        ["figure", "well", "--step", "0.001"],
        ["figure", "phi", "--hi", "inf"],
    ],
)
def test_grid_row_cap(monkeypatch, capsys, argv):
    # the cap is lowered so that no large grid is ever built here
    monkeypatch.setattr(cli, "_MAX_ROWS", 50)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "exceeds 50 rows" in err


@pytest.mark.parametrize("cap,code", [(11, 0), (10, 2)])
def test_grid_row_cap_boundary(monkeypatch, capsys, cap, code):
    # lo = 0, hi = 1, step = 0.1 is 11 rows: admitted at a cap of 11, not 10
    monkeypatch.setattr(cli, "_MAX_ROWS", cap)
    argv = ["figure", "phi", "--lo", "0", "--hi", "1", "--step", "0.1"]
    got, out, _ = run(argv, capsys)
    assert got == code
    assert len(data_rows(out)) == (12 if code == 0 else 0)


def test_figure_phi(capsys):
    code, out, _ = run(["figure", "phi"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["rho", "phi_closed"]
    assert len(body) == 501  # -2..3 by 0.01 inclusive
    vals = {r[0]: float(r[1]) for r in body}
    assert vals["0.5"] == 0.0
    assert vals["0.4"] < 0.0 < vals["0.6"]
    signs = [v > 0 for r, v in sorted(vals.items(), key=lambda kv: float(kv[0])) if v != 0.0]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1


def test_figure_field(capsys):
    code, out, _ = run(["figure", "field"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["rho", "field_E"]
    assert "jumps excluded" in out
    keys = [r[0] for r in body]
    for jump in ("0", "0.5", "1"):
        assert jump not in keys
    rhos = [float(k) for k in keys]
    assert rhos == sorted(rhos)
    assert len(set(keys)) == len(keys)
    vals = dict(zip(keys, (float(r[1]) for r in body)))
    # one-sided flank pairs carry the jump sizes
    assert abs((vals["1.000001"] - vals["0.999999"]) + 4.0 * math.pi) < 1e-3
    jump0 = math.pi * (-4.0 + GAMMA + 3.0 * math.log(2.0) + 0.5 * math.pi)
    assert abs((vals["1e-06"] - vals["-1e-06"]) - jump0) < 1e-3
    lam_jump = 2.0 * math.pi * (1.0 + 0.5 * GAMMA - 0.5 * math.log(4.0 * math.pi))
    assert abs((vals["0.500001"] - vals["0.499999"]) - lam_jump) < 1e-3


def test_figure_field_endpoint_on_jump(capsys):
    code, _, err = run(["figure", "field", "--lo", "0.5", "--hi", "2"], capsys)
    assert code == 2
    assert "sits on a jump" in err
    assert "offset" in err


def test_figure_well(capsys):
    code, out, _ = run(["figure", "well"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["x", "well_S"]
    assert len(body) == 201
    by_x = {r[0]: r[1] for r in body}
    assert by_x["1"] == "0"
    for xs, vs in by_x.items():
        mirror = f"{2.0 - float(xs):.12g}"
        assert by_x[mirror] == vs  # identical strings, not just close


def test_figure_well_asymmetric_grid(capsys):
    code, _, err = run(["figure", "well", "--lo", "0.2", "--hi", "1.9"], capsys)
    assert code == 2
    assert "symmetric" in err


def test_figure_xi(capsys):
    code, out, _ = run(["figure", "xi"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["x", "sym_log_xi"]
    assert len(body) == 201
    by_x = {r[0]: r[1] for r in body}
    assert abs(float(by_x["1"])) < 1e-12
    assert by_x["0"] == by_x["2"]
    assert abs(float(by_x["2"]) - 0.0461175971813) < 1e-9
    for xs, vs in by_x.items():
        mirror = f"{2.0 - float(xs):.12g}"
        assert by_x[mirror] == vs


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(["well", "xi"]), rows=st.integers(2, 200), jitter=st.integers(-4, 4))
# the grid point nominally at x = 1 is computed an ulp below it, so it and
# its mirror both print as "1": one row must stand for both
@example(name="well", rows=74, jitter=3)
def test_figure_mirror_rows_pair_up(name, rows, jitter):
    # a symmetric grid on the 1e-6 lattice, drawn like the closed-figures
    # benchmark's but with at most about 200 rows
    units = round(2.0 / rows / 1e-6) + jitter
    step = round(units * 1e-6, 6)
    half = round(rows // 2 * step, 6)
    lo, hi = round(1.0 - half, 6), round(1.0 + half, 6)
    argv = ["figure", name, f"--lo={lo!r}", f"--hi={hi!r}", f"--step={step!r}"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        outs.append(buf.getvalue())
    assert drop_timestamp(outs[0]) == drop_timestamp(outs[1])
    _, body = parse_csv(outs[0])
    keys = [r[0] for r in body]
    xs = [float(k) for k in keys]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert len(set(keys)) == len(keys)
    # row i and row n-1-i are mirror images: the same printed value at
    # abscissae summing to 2.  (Formatting 2 - x instead would print the
    # float noise of a near-zero difference, e.g. 2 - 1.999996.)
    for (xa, va), (xb, vb) in zip(body, reversed(body)):
        assert va == vb
        assert abs(float(xa) + float(xb) - 2.0) < 1e-12


def test_figure_unknown_name(capsys):
    with pytest.raises(SystemExit):
        cli.main(["figure", "nope"])
    capsys.readouterr()


def test_constants(capsys):
    code, out, _ = run(["constants"], capsys)
    assert code == 0
    header, body = parse_csv(out)
    assert header == ["name", "analytic", "numeric", "discrepancy", "tag"]
    names = [r[0] for r in body]
    for want in (
        "jump_at_one",
        "jump_at_zero",
        "lambda_one",
        "volchkov_delta",
        "slope_at_half",
        "field_half_plus",
        "x1",
        "x2",
        "xi_at_x1",
    ):
        assert want in names
    tags = {r[0]: r[4] for r in body}
    assert tags["lambda_one"] == "rh-conditional"
    assert tags["x1"] == "unconditional"


# the real-kernel calls each closed command makes on its default grid
_KERNEL_CALLS = {"figure phi": 500, "figure field": 624, "figure well": 100, "figure xi": 101, "constants": 30}


@pytest.mark.parametrize("command", sorted(_KERNEL_CALLS))
def test_closed_commands_use_only_the_real_kernel(monkeypatch, capsys, command):
    # one real-kernel call per evaluated row or constant: well_S evaluates
    # both potential halves of its row (and of each step of the well's root
    # search) from one call; phi_closed(0.5), well_S(1.0) and the closed
    # limits field_E_onesided(0.5, .) make none; none of the numpy kernel
    calls = collections.Counter()

    def count(module, name, key=None):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key(*args) if key else name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(specfun, "_reg_real")
    count(specfun, "_reg_lines")
    count(magneton, "phi_closed", key=lambda rho, *_: "phi_half" if rho == 0.5 else "phi_closed")
    count(magneton, "well_S", key=lambda x, *_: "well_one" if x == 1.0 else "well_S")
    count(magneton, "field_E_onesided",
          key=lambda point, *_: "onesided_half" if point == 0.5 else "field_E_onesided")
    count(magneton, "field_E")
    count(specfun, "xi")
    code, _, _ = run(command.split(), capsys)
    assert code == 0
    assert calls["_reg_lines"] == 0
    evaluations = sum(calls[k] for k in ("phi_closed", "well_S", "field_E", "field_E_onesided",
                                         "xi"))
    assert calls["_reg_real"] == evaluations == _KERNEL_CALLS[command], dict(calls)


def test_constants_refuses_outside_mode(capsys):
    code, _, err = run(["constants", "--rh-mode", "outside-only"], capsys)
    assert code == 2
    assert "conditional" in err


def test_taylor_cmd(capsys):
    code, out, _ = run(["taylor", "--order", "3", "--prime-limit", "100000"], capsys)
    assert code == 0
    assert "n,c_n,tail_bound_n" in out
    assert "lambda_one_gap" in out
    assert "c0_check" in out


def test_taylor_order_cap(capsys):
    code, _, err = run(["taylor", "--order", "21"], capsys)
    assert code == 2
    assert err == "error: order must be in [0, 20], got 21\n"
    # refused before numpy loads
    probe = "import sys; from magneton.cli import main; print(main(), 'numpy' in sys.modules)"
    proc = run_entry("taylor", "--order", "21", code=probe)
    assert proc.stdout.split() == ["2", "False"], proc.stderr


def test_taylor_k_max_ceiling(capsys):
    # refused before the sieve: the prime-power blocks would need 156 GiB
    code, out, err = run(["taylor", "--k-max", "1000000000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: k_max must be <= 716") and err.count("\n") == 1


def test_taylor_sieve_budget_refusal(capsys):
    # the budget counts the (limit + 1) // 2 bytes of the odd-only flags
    code, out, err = run(["taylor", "--prime-limit", "2000000000"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: sieve to 2000000000 needs ~1000000000 bytes, budget is 536870912\n"


def test_parser_defaults_are_the_modules_defaults():
    # build_parser restates them so that it need not import quad or taylor
    cfg = quad.QuadratureConfig()
    table = cli.build_parser().parse_args(["table", "--rho", "2"])
    assert (table.t_max, table.tol, table.max_depth) == (cfg.t_max, cfg.abs_tol, cfg.max_depth)
    report = cli.build_parser().parse_args(["taylor"])
    assert (report.prime_limit, report.k_max) == (taylor.DEFAULT_PRIME_LIMIT, taylor.DEFAULT_K_MAX)
    # and the exact route's reach, which cmd_taylor checks before importing taylor
    assert cli._MAX_ORDER == taylor._MAX_ORDER


def test_taylor_nan_budget(capsys):
    # a nan budget would compare False against every bound, never applied
    code, out, err = run(["taylor", "--tail-budget", "nan"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tail budget") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_taylor_non_positive_budget(capsys, budget):
    # refused before the sieve: no table limit or order brings a bound to 0
    code, out, err = run(["taylor", "--tail-budget", budget], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: tail budget must be > 0, got {float(budget)!r}\n"


def test_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["nope"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "over_one,over_zero,named", [(5.0, 2.0, "jump_at_one"), (2.0, 5.0, "jump_at_zero")]
)
def test_constants_reports_worst_failure(monkeypatch, capsys, over_one, over_zero, named):
    # both jump cross-checks fail (tolerance 1e-4); the message names the
    # one with the larger discrepancy/tolerance ratio, wherever it is listed
    one = 4.0 * math.pi
    zero = math.pi * (-4.0 + GAMMA + 3.0 * math.log(2.0) + 0.5 * math.pi)
    monkeypatch.setattr(magneton, "numeric_jump_at_one", lambda: one + 1e-4 * over_one)
    monkeypatch.setattr(magneton, "numeric_jump_at_zero", lambda: zero + 1e-4 * over_zero)
    code, out, err = run(["constants"], capsys)
    assert code == 4
    assert err.startswith(f"cross-check failure: {named}:")
    assert "name,analytic,numeric" in out


def test_constants_prints_the_table_before_failing(monkeypatch, capsys):
    # a field off by 1e-3 just left of 1 breaks the jump at 1 and the
    # Volchkov combination; every row is still printed, then the worst named
    field_E = magneton.field_E
    monkeypatch.setattr(
        magneton, "field_E", lambda rho, *a: field_E(rho, *a) + (1e-3 if 0.99 < rho < 1.0 else 0.0)
    )
    code, out, err = run(["constants"], capsys)
    assert code == 4
    assert len(out.splitlines()) == 15
    _, body = parse_csv(out)
    assert body[-1][0] == "xi_at_x1"
    assert err == "cross-check failure: volchkov_delta: discrepancy 0.001 exceeds tolerance 1e-06\n"


def test_constants_prints_the_table_when_the_root_finder_misses(monkeypatch, capsys):
    # a well that changes sign on (1.5, 1.7) without a root there: the
    # bracket closes on the step at 1.6, which the x1 row reports against
    # the published root after the whole table is printed
    monkeypatch.setattr(magneton, "well_S", lambda x, *a: 1.0 if x > 1.6 else -1.0)
    code, out, err = run(["constants"], capsys)
    assert code == 4
    assert len(out.splitlines()) == 15
    _, body = parse_csv(out)
    assert body[-1][0] == "xi_at_x1"
    assert err == "cross-check failure: x1: discrepancy -0.0102 exceeds tolerance 1e-07\n"


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import magneton.cli"),
        ("-m", "magneton", "figure", "phi"),
        ("-m", "magneton", "figure", "field"),
        ("-m", "magneton", "figure", "well"),
        ("-m", "magneton", "figure", "xi"),
        ("-m", "magneton", "constants"),
    ],
    ids=["import", "figure", "figure-field", "figure-well", "figure-xi", "constants"],
)
def test_scalar_commands_leave_numpy_unloaded(args):
    # -X importtime logs every module the interpreter loads, startup included
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    loaded = {
        ln.rsplit("|", 1)[1].strip()
        for ln in proc.stderr.splitlines()
        if ln.startswith("import time:")
    }
    assert "magneton.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]
    assert not loaded & {"magneton.quad", "magneton.taylor"}


_RUN_TABLE = """
import os, sys
from magneton import cli
code = cli.main(["table", "--rho", "2", "--out", os.devnull])
print(code, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_table_starts_no_blas_threads(preset):
    # numpy's OpenBLAS pool would add a thread that nothing uses; a value
    # the caller set is left as it is
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_TABLE], env=env, capture_output=True, text=True, timeout=60
    )
    code, threads, setting = proc.stdout.split()
    assert (code, setting) == ("0", preset or "1")
    if not preset:
        assert threads == "1"


_RUN_ARRAY_COMMANDS = """
import os, sys
from magneton import cli
for argv in (["table", "--rho", "0.5", "1", "2"], ["taylor", "--order", "3"]):
    assert cli.main([*argv, "--out", os.devnull]) == 0
print("numpy" in sys.modules, "numpy.ma" in sys.modules)
"""


def test_array_commands_leave_numpy_ma_unloaded():
    # importing numpy.ma (np.unique does) costs about 1.3 MB of peak RSS
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ARRAY_COMMANDS], capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.split() == ["True", "False"], proc.stderr


# the body of the console script, the form the benchmark runs
_ENTRY = "import sys; from magneton.cli import main; sys.exit(main())"


def run_entry(*args, code=_ENTRY):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [["table", "--rho", "0.5", "1", "2"], ["taylor", "--order", "3", "--prime-limit", "100000"]],
    ids=["table", "taylor"],
)
def test_entry_after_numpy_exits_cleanly(argv, capsys):
    # main as the process freezes the collector before it returns: the
    # payload, the empty stderr and the exit code are those of a call
    proc = run_entry(*argv)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert drop_timestamp(proc.stdout) == drop_timestamp(out)


def test_entry_refusal_after_numpy():
    proc = run_entry("table", "--rho", "2", "--t-max", "300")
    assert proc.returncode == 2
    assert proc.stderr == "error: t_max 300 beyond the zeta window 200\n"


def test_main_called_leaves_the_collector(capsys):
    before = gc.get_freeze_count()
    assert run(["table", "--rho", "2"], capsys)[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv,frozen", [(["figure", "phi"], False), (["table", "--rho", "2"], True)])
def test_main_as_the_process_freezes_after_numpy(argv, frozen):
    # only a command that loaded numpy has a sweep worth skipping
    code = "import gc; from magneton.cli import main; main(); print(gc.get_freeze_count())"
    proc = run_entry(*argv, "--out", os.devnull, code=code)
    assert proc.returncode == 0, proc.stderr
    assert (int(proc.stdout) > 0) == frozen


def test_numpy_integers_still_accepted():
    import numpy as np

    assert taylor.sieve_primes(np.int64(100)).tolist() == taylor.sieve_primes(100).tolist()
    assert specfun.polygamma(np.int64(2), 1.5) == specfun.polygamma(2, 1.5)


# hostile values for the float flags: non-finite, extreme, next to the
# jumps and poles at 0, 1/2 and 1, and on or just past the window edges
_HOSTILE = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 0.5, 1.0, 2.0]
    + [math.nextafter(x, d) for x in (0.0, 0.5, 1.0) for d in (-math.inf, math.inf)]
    + [-3.0, math.nextafter(-3.0, -math.inf), 200.0, math.nextafter(200.0, math.inf), 1e20, 1e21]
)


def _opt(flag: str, values) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _req(flag: str, values) -> st.SearchStrategy:
    return values.map(lambda v: [f"{flag}={v}"])


# every flag is drawn by type, so argparse never refuses a value (its
# usage message is two lines); table depth and the taylor prime limit stay
# small so that no example runs long, and the sieve budget stays out
_FUZZ_ARGV = st.one_of(
    st.tuples(
        st.sampled_from(sorted(cli._FIGURES)).map(lambda n: ["figure", n]),
        _opt("--lo", _HOSTILE),
        _opt("--hi", _HOSTILE),
        _req("--step", _HOSTILE),
    ),
    st.tuples(st.just(["constants"])),
    st.tuples(
        st.just(["table"]),
        _req("--rho", _HOSTILE),
        _opt("--t-max", _HOSTILE),
        _opt("--tol", _HOSTILE),
        _req("--max-depth", st.sampled_from([0, 1, 4, 8])),
    ),
    st.tuples(
        st.just(["taylor"]),
        _opt("--order", st.sampled_from([-1, 0, 1, 20, 21])),
        _req("--prime-limit", st.sampled_from([-1, 0, 1, 2, 1000, 100_000])),
        _opt("--k-max", st.sampled_from([0, 1, 716, 717])),
        _opt("--tail-budget", _HOSTILE),
    ),
)


@settings(max_examples=100, deadline=None)
@given(parts=_FUZZ_ARGV, mode=_opt("--rh-mode", st.sampled_from(["conditional", "outside-only"])))
def test_cli_fuzz_error_contract(parts, mode):
    argv = [*parts[0], *mode, *(a for p in parts[1:] for a in p)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= (0 if code == 0 else 1), (argv, lines)
