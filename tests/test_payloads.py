"""Golden CLI payloads: every line but the timestamp, byte for byte.

The expected files under tests/payloads/ hold the output of `cli.main`
with `--out`, the `# timestamp:` line removed.  The bytes come from this
platform's numpy and libm; another BLAS, numpy build or libm may move a
last digit, and then the files are regenerated there, not loosened.

Regenerate with `PYTHONPATH=src python tests/test_payloads.py [NAME ...]`.
With names (keys of COMMANDS or REFUSALS, e.g. `taylor_20`) only those
files are rewritten; with none, every golden is.  Name the goldens a change
adds, so the others stay pinned to the code they were made from.
"""

import hashlib
import pathlib

import pytest

from magneton import cli

PAYLOADS = pathlib.Path(__file__).with_name("payloads")

COMMANDS = {
    "constants": ["constants"],
    "figure_phi": ["figure", "phi"],
    "figure_field": ["figure", "field"],
    "figure_well": ["figure", "well"],
    "figure_xi": ["figure", "xi"],
    # off-default grids, whose points sit a few ulp off their printed
    # decimals; the field grid's coarse points land on the jumps at 1/2 and 1
    "figure_well_step07": ["figure", "well", "--lo", "0.3", "--hi", "1.7", "--step", "0.07"],
    "figure_xi_step07": ["figure", "xi", "--lo", "0.3", "--hi", "1.7", "--step", "0.07"],
    "figure_field_narrow": ["figure", "field", "--lo", "-0.3", "--hi", "1.2", "--step", "0.05"],
    "table": ["table", "--rho", "0.2", "0.5", "0.8", "2", "1"],
    # pin the `# rh_mode:` manifest line of the outside-only mode
    "table_outside": ["table", "--rho", "2", "-0.5", "--rh-mode", "outside-only"],
    "taylor_3_outside": [
        "taylor", "--order", "3", "--prime-limit", "100000", "--rh-mode", "outside-only",
    ],
    "taylor_13": ["taylor", "--order", "13", "--prime-limit", "1000000"],
    "taylor_20": ["taylor", "--order", "20", "--prime-limit", "1000000"],
    # the taylor-deep benchmark point
    "taylor_20_1e7": ["taylor", "--order", "20", "--prime-limit", "10000000"],
    "taylor_5_kmax7": [
        "taylor", "--order", "5", "--prime-limit", "2000000", "--k-max", "7",
    ],
}

# name -> argv and exit code; the expected stderr is in <name>.stderr
REFUSALS = {
    "table_depth4": (["table", "--rho", "0.5", "--max-depth", "4"], 3),
    "constants_outside": (["constants", "--rh-mode", "outside-only"], 2),
}


def _payload(argv, out_path) -> str:
    assert cli.main([*argv, "--out", str(out_path)]) == 0
    text = pathlib.Path(out_path).read_text(encoding="utf-8")
    return "".join(
        ln for ln in text.splitlines(keepends=True) if not ln.startswith("# timestamp:")
    )


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_payload_matches_golden(name, tmp_path, capsys):
    got = _payload(COMMANDS[name], tmp_path / "out.csv")
    assert capsys.readouterr().err == ""
    want = (PAYLOADS / f"{name}.csv").read_text(encoding="utf-8")
    assert got == want


# The closed-figures commands of the benchmark at seed 1, at their real size
# of about 10,000 rows: sha256 of each payload without its timestamp line.
FIGURE_DIGESTS = {
    ("figure", "phi", "--lo=-2.000137", "--hi=3.059863", "--step=0.000506"):
        "8ce4e09398dde820d5387dafb8d968db7f428b0a535520c4929663c5062b97b7",
    ("figure", "field", "--lo=-2.000379", "--hi=3.099621", "--step=0.00051"):
        "88ab1f7e8f1b2946e6486261c13dcc18966dd7b5df2013357afc2d885669c91f",
    ("figure", "well", "--lo=0.02", "--hi=1.98", "--step=0.000196"):
        "d7f563bb0ff2b2f48791e2bec151af77a5c23dc28f739cd9784babfe8e342c86",
    ("figure", "xi", "--lo=-0.015", "--hi=2.015", "--step=0.000203"):
        "627c0387400b2277dd97b04737ab38faa7f5b77c8d6a8fa288d2d114080d4c59",
    ("constants",): "ce9e0928ae997a7a78de4080ba19c576e76f28a93fa54ea003534258001960f6",
}


@pytest.mark.parametrize("argv", sorted(FIGURE_DIGESTS), ids=" ".join)
def test_full_size_payload_digest(argv, tmp_path, capsys):
    got = _payload(list(argv), tmp_path / "out.csv")
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(got.encode("utf-8")).hexdigest() == FIGURE_DIGESTS[argv]


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_matches_golden(name, capsys):
    argv, code = REFUSALS[name]
    assert cli.main(argv) == code
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == (PAYLOADS / f"{name}.stderr").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import sys
    import tempfile

    names = sys.argv[1:] or [*COMMANDS, *REFUSALS]
    unknown = [n for n in names if n not in COMMANDS and n not in REFUSALS]
    if unknown:
        sys.exit(f"unknown golden name(s): {', '.join(unknown)}")
    PAYLOADS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            if name in COMMANDS:
                text = _payload(COMMANDS[name], pathlib.Path(tmp) / "out.csv")
                (PAYLOADS / f"{name}.csv").write_text(text, encoding="utf-8")
                continue
            argv, code = REFUSALS[name]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert cli.main(argv) == code
            (PAYLOADS / f"{name}.stderr").write_text(err.getvalue(), encoding="utf-8")
