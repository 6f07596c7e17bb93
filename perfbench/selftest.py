"""Self-test of the benchmark's own accounting and output.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that
* a corrupted payload, a non-zero exit and stray stderr output each count
  as one failed invocation;
* a smoke run of every workload, traced and untraced, prints every metric
  BENCHMARK.json names, with its unit;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS: list[str] = []


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        PROBLEMS.append(what)


def _corrupt(inv: run.Invocation) -> run.Invocation:
    """Change the leading digit of the first value on the first data row."""
    lines = inv.stdout.split("\n")
    i = next(k for k, line in enumerate(lines) if k > 5 and not line.startswith("#") and line[:1] in "-0123456789")
    cells = lines[i].split(",")
    j = next(k for k, c in enumerate(cells[1:], 1) if re.search(r"[1-9]", c))
    digit = re.search(r"[1-9]", cells[j])
    cells[j] = cells[j][: digit.start()] + str(int(digit.group()) % 9 + 1) + cells[j][digit.end():]
    lines[i] = ",".join(cells)
    return run.Invocation(inv.argv, inv.returncode, "\n".join(lines), inv.stderr)


def check_fault_accounting(spawner: run.Spawner):
    argv = ["figure", "phi", "--lo=-2.0", "--hi=3.0", "--step=0.05"]
    good = spawner.invoke(argv)
    faults = {
        "corrupted payload": _corrupt(good),
        "non-zero exit": spawner.invoke(argv, code="import sys; from magneton.cli import main; main(); sys.exit(3)"),
        "stray stderr": spawner.invoke(
            argv, code="import sys; sys.stderr.write('note\\n'); from magneton.cli import main; sys.exit(main())"
        ),
    }
    clean = run.Ledger()
    clean.record(good)
    clean.record(spawner.invoke(argv))
    expect(clean.failed == 0, f"two clean runs of one command count no failure ({clean.failures})")
    for name, inv in faults.items():
        ledger = run.Ledger()
        ledger.record(inv)
        expect(ledger.failed == 1, f"a {name} counts as a failed invocation")
    # a comment line is invisible to the checks; only the repeat comparison sees it
    changed = good.stdout.replace("# potential phi(rho)", "# potential  phi(rho)")
    ledger = run.Ledger()
    ledger.record(good)
    ledger.record(run.Invocation(argv, 0, changed, ""))
    expect(changed != good.stdout and ledger.failed == 1, "a repeat whose payload changed counts as a failed invocation")


def _metric_lines(stdout: str) -> dict[tuple[str, str], str]:
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"^(\S+) (\S+) = \S+ (\S+)", line)
        if m:
            found[(m.group(1), m.group(2))] = m.group(3)
    return found


def check_smoke():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=600,
        )
        expect(proc.returncode == 0, f"smoke run --trace {trace} exits 0 ({proc.stderr.strip()[-200:]})")
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        expect(result["correct"] and result["failed"] == 0, f"smoke run --trace {trace} is correct")
        printed = _metric_lines(proc.stdout)
        wrong = [
            (workload["name"], metric["name"], printed.get((workload["name"], metric["name"])))
            for workload in spec["workloads"]
            for metric in spec[group]
            if printed.get((workload["name"], metric["name"])) != metric["unit"]
        ]
        expect(not wrong, f"smoke run --trace {trace} prints every {group} metric with its unit {wrong[:3]}")


def check_bare_directory():
    bare = os.path.join(run.RUN_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taylor-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    os.makedirs(run.RUN_DIR, exist_ok=True)
    with run.Spawner() as spawner:
        check_fault_accounting(spawner)
    check_smoke()
    check_bare_directory()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
