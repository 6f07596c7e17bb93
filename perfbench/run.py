"""Benchmark of the magneton command-line program.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
./src, never from an installed copy.  `--workload all` runs every workload
in turn, and `--smoke` shrinks every input for a quick look at the output.

--trace 0 measures end to end: each command runs as a fresh `magneton`
subprocess (import included), one client in a closed loop that starts the
next command when the last has finished, for --seconds.  Per-child CPU time
and peak RSS come from os.wait4.  MAGNETON_THREADS is removed from the
child's environment, so the table's thread pool runs at its default size.
Every time (setup_s, wall_s, wall_tail_s, cpu_s) is divided by the host's
slowness measured around it by a probe kernel (hostspeed.py), so it reads
in seconds at the reference host speed; the raw medians are printed on a
comment line.

--trace 1 runs the same commands in-process through `magneton.cli.main`,
alternating untraced and traced passes for --seconds, and reports the
per-layer metrics of spans.PER_LAYER.

Every payload is checked (checks.py).  An invocation fails if it exits
non-zero, writes to stderr, fails a check, or its payload differs from the
first run of the same command in anything but the timestamp line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
# the body of the installed `magneton` console script
ENTRY = "import sys; from magneton.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import magneton.cli; "
    "d = time.perf_counter() - t; import magneton; print(d); print(magneton.__file__)"
)
SETUP_REPEATS = 7
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("max_err_ratio", "ratio"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, or the wrong one)."""


@dataclass
class Invocation:
    argv: list[str]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    # the host's slowness around the invocation (hostspeed.Probe.factor)
    slowness: float = 1.0


class Ledger:
    """Checks every invocation and counts the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_ratio = 0.0
        self._first: dict[tuple, str] = {}
        self._verdicts: dict[tuple, checks.Verdict] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, inv: Invocation) -> bool:
        self.attempted += 1
        key = tuple(inv.argv)
        body = "\n".join(
            line for line in inv.stdout.split("\n") if not line.startswith("# timestamp:")
        )
        problems = []
        if inv.returncode != 0:
            problems.append(f"exit code {inv.returncode}")
        if inv.stderr:
            problems.append(f"stderr {inv.stderr[:200]!r}")
        if self._first.setdefault(key, body) != body:
            problems.append("payload differs from the first run of this command")
        verdict = self._verdicts.get((key, body))
        if verdict is None:
            verdict = self._verdicts[(key, body)] = checks.check(inv.argv, inv.stdout)
        self.worst_ratio = max(self.worst_ratio, verdict.worst_ratio)
        if not verdict.ok:
            problems.append(verdict.reason)
        if problems:
            self.failures.append(f"{' '.join(inv.argv)[:100]}: {'; '.join(problems)}")
        return not problems


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("MAGNETON_THREADS", None)
    return env


class Spawner:
    """Runs commands as fresh interpreters through spawn.py, so each
    child's CPU time and peak RSS are its own (see spawn.py)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def invoke(self, argv: list[str], code: str = ENTRY) -> Invocation:
        out_path, err_path = os.path.join(RUN_DIR, "stdout"), os.path.join(RUN_DIR, "stderr")
        request = {
            "cmd": [sys.executable, "-c", code, *argv],
            "env": child_env(),
            "cwd": ROOT,
            "stdout": out_path,
            "stderr": err_path,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise SetupError("the command runner exited")
        reply = json.loads(line)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Invocation(
            argv, reply["returncode"], stdout, stderr,
            wall_s=reply["wall_s"], cpu_s=reply["cpu_s"], rss_mb=reply["rss_kb"] / 1024.0,
        )


def _is_checkout_program(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def measure_setup(spawner: Spawner, probe: hostspeed.Probe) -> tuple[list[float], list[float]]:
    """Import time of magneton.cli in fresh interpreters, after one
    discarded import that compiles the bytecode cache.  Returns the raw
    times and the times divided by the host's slowness around each."""
    raw, normalised = [], []
    before = 1.0
    for i in range(SETUP_REPEATS + 1):
        inv = spawner.invoke([], code=IMPORT_PROBE)
        after = probe.factor()
        lines = inv.stdout.split()
        if inv.returncode != 0 or len(lines) != 2 or not _is_checkout_program(lines[1]):
            raise SetupError(f"cannot import magneton from {SRC}: {inv.stderr.strip()[-300:] or inv.stdout!r}")
        if i:
            raw.append(float(lines[0]))
            normalised.append(raw[-1] / ((before + after) / 2))
        before = after
    return raw, normalised


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least ten samples above it, but
    never below the median; returns (value, percentile, samples above)."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def run_end_to_end(workload: str, commands: list[list[str]], seconds: float, ledger: Ledger) -> tuple[dict, str]:
    setup_probe = hostspeed.Probe("interp")
    probe = hostspeed.Probe(workloads.PROBE[workload])
    with Spawner() as spawner:
        setup_raw, setup = measure_setup(spawner, setup_probe)
        for argv in commands:  # warm-up cycle: checked, not timed
            ledger.record(spawner.invoke(argv))
        timed: list[Invocation] = []
        before = probe.factor()
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < seconds:
            for argv in commands:
                inv = spawner.invoke(argv)
                after = probe.factor()
                inv.slowness = (before + after) / 2
                before = after
                ledger.record(inv)
                timed.append(inv)
    walls = [inv.wall_s / inv.slowness for inv in timed]
    tail_value, pct, above = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "cpu_s": statistics.median(inv.cpu_s / inv.slowness for inv in timed),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
        "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        "max_err_ratio": ledger.worst_ratio,
    }
    note = (
        f"wall_tail_s is p{pct:.0f} of {len(walls)} timed invocations, {above} above it\n"
        f"# raw medians, not normalised: setup_s {statistics.median(setup_raw):.4g} s, "
        f"wall_s {statistics.median(inv.wall_s for inv in timed):.4g} s, "
        f"cpu_s {statistics.median(inv.cpu_s for inv in timed):.4g} s; probe medians: "
        f"interp {statistics.median(setup_probe.times):.4g} s (reference {setup_probe.reference_s} s), "
        f"{probe.kind} {statistics.median(probe.times):.4g} s (reference {probe.reference_s} s)"
    )
    return metrics, note


def _load_program():
    sys.path.insert(0, SRC)
    package = {name: importlib.import_module(f"magneton.{name}") for name in spans.MODULES}
    if not _is_checkout_program(package["cli"].__file__):
        raise SetupError(f"magneton imported from {package['cli'].__file__}, not from {SRC}")
    return package


def call_main(cli, argv: list[str]) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            traceback.print_exc()
            code = 1
    return Invocation(argv, code, out.getvalue(), err.getvalue())


def run_traced(commands: list[list[str]], seconds: float, ledger: Ledger, spans_path: str) -> tuple[dict, str]:
    os.environ.pop("MAGNETON_THREADS", None)
    package = _load_program()
    cli = package["cli"]
    c_exact = [float(c) for c in checks.load_refs()["taylor"]["c_exact"]]

    def one_pass(tracer: spans.Tracer | None) -> tuple[float, int]:
        payload_bytes = 0
        start = time.perf_counter()
        for argv in commands:
            if tracer is not None:
                tracer.request += 1
            inv = call_main(cli, argv)
            payload_bytes += len(inv.stdout.encode("utf-8"))
            ledger.record(inv)
        return time.perf_counter() - start, payload_bytes

    one_pass(None)  # warm-up: lazy imports and caches
    plain_walls, traced_walls, per_pass = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain_walls.append(one_pass(None)[0])
        tracer = spans.Tracer()
        tracer.install(package)
        try:
            wall, payload_bytes = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        metrics = spans.layer_metrics(tracer, c_exact)
        metrics["cli.payload_bytes"] = payload_bytes
        per_pass.append(metrics)
        if len(per_pass) == 1:
            tracer.write(spans_path)
    first = per_pass[0]
    out = {}
    for name, *_ in spans.PER_LAYER:
        if name in spans.TIMES and name != "trace.overhead_s":
            out[name] = statistics.median(m[name] for m in per_pass)
        elif name in first:
            out[name] = first[name]
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    unsteady = sorted(
        name for name, *_ in spans.PER_LAYER
        if name not in spans.TIMES and any(m[name] != first[name] for m in per_pass)
    )
    note = f"{len(per_pass)} traced passes; spans of the first in {os.path.relpath(spans_path, ROOT)}"
    if unsteady:
        note += f"; counts that changed between passes: {', '.join(unsteady)}"
    return out, note


# ---- run manifest ----------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_bytes(level: int) -> int:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indices = sorted(os.listdir(base))
    except OSError:
        return 0
    for index in indices:
        entry = os.path.join(base, index)
        if _read(os.path.join(entry, "level")) == str(level) and _read(os.path.join(entry, "type")) != "Instruction":
            size = _read(os.path.join(entry, "size"))
            scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return 0


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:])) or "unknown"
    return head or "unknown (not a git checkout)"


def _prime_count(limit: int) -> int:
    import numpy as np

    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return int(flags.sum())


def manifest(workload: str, seed: int, commands: list[list[str]]) -> dict:
    import numpy
    import mpmath

    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    facts = {
        "workload": workload,
        "seed": seed,
        "commands": [["magneton", *argv] for argv in commands],
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_bytes_per_core": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
    }
    for argv in commands:
        if argv[0] == "taylor":
            limit = int(argv[argv.index("--prime-limit") + 1])
            n_primes = _prime_count(limit)
            # computed from array sizes, not measured: compute_coefficients
            # keeps the primes (int64) and four float64 arrays of that length
            facts["taylor_working_set_computed"] = {
                "primes": n_primes,
                "bytes_per_prime_array": 8 * n_primes,
                "bytes_five_arrays": 5 * 8 * n_primes,
                "bytes_sieve_flags": limit + 1,
            }
    return facts


# ---- entry point -----------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[Ledger, dict]:
    commands = workloads.commands(workload, seed, smoke)
    facts = manifest(workload, seed, commands)
    tag = f"{workload}-{seed}{'-smoke' if smoke else ''}"
    with open(os.path.join(RUN_DIR, f"manifest-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(facts, fh, indent=1)
    print(f"# manifest {json.dumps(facts)}")
    ledger = Ledger()
    if trace:
        metrics, note = run_traced(commands, seconds, ledger, os.path.join(RUN_DIR, f"spans-{tag}.jsonl.gz"))
        units = {name: unit for name, unit, *_ in spans.PER_LAYER}
        moves = {name: target for name, _, _, target in spans.PER_LAYER}
    else:
        metrics, note = run_end_to_end(workload, commands, seconds, ledger)
        units = dict(END_TO_END)
        moves = {}
    print(f"# {workload}: {ledger.attempted} invocations, {ledger.failed} failed; {note}")
    for failure in sorted(set(ledger.failures))[:5]:
        print(f"#   FAILED {failure}")
    for name, value in metrics.items():
        target = f"  (moves {moves[name]})" if name in moves else ""
        print(f"{workload} {name} = {value:.6g} {units[name]}{target}")
    return ledger, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick look")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magneton", "cli.py")):
        print(f"error: no magneton program under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in names:
            ledger, found = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            attempted += ledger.attempted
            failed += ledger.failed
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + name: entry for name, entry in found.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
