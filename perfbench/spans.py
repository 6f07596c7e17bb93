"""In-process span tracing of the six magneton modules, and the per-layer
metrics derived from the spans.

`Tracer.install` replaces every public function of cli, quad, magneton,
specfun, taylor and diagnostics by a wrapper that records a span (name,
start, end, parent span, request id, thread).  Calls between modules and
inside a module go through the module namespace, so the wrappers see them
all; nothing in the program changes.  Spans stay in memory until the run
writes them out.

Spans started on a worker thread with an empty stack (cmd_table's thread
pool) take the innermost open span of the installing thread as their
parent, which during `pool.map` is the command's own span.  Span times are
wall clock, so on those threads they include waits for the interpreter
lock; each span also records its thread's CPU time, and
quad.lock_wait_s is the wall minus CPU time of the quadrature rows.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

MODULES = ("cli", "quad", "magneton", "specfun", "taylor", "diagnostics")

# Results the metrics need besides timing: the prime tables the sieve
# returns and the coefficient sets of the prime route.
CAPTURED = ("specfun.sieve_primes", "taylor.compute_coefficients")

# group -> the functions whose spans count in <group>.calls and <group>.self_s
# (quad.phi_numeric and cli are whole-module self times, set apart below)
GROUPS = {
    "specfun.log_abs_zeta": ("specfun.log_abs_zeta",),
    "specfun.zeta_family": ("specfun.zeta", "specfun.zeta_reg", "specfun.zeta_logderiv", "specfun.reg_logderiv"),
    "specfun.gamma_family": ("specfun.log_gamma", "specfun.digamma", "specfun.polygamma", "specfun.hurwitz_zeta"),
    "specfun.xi": ("specfun.xi",),
    "specfun.sieve_primes": ("specfun.sieve_primes",),
    "specfun.prime_tail": ("specfun.prime_tail_estimate", "specfun.exp_integral_e1", "specfun.upper_gamma_int"),
    "magneton.phi_closed": ("magneton.phi_closed",),
    "magneton.field_E": ("magneton.field_E", "magneton.field_E_onesided"),
    "magneton.well_S": ("magneton.well_S",),
    "magneton.jump_checks": (
        "magneton.jump_at_one", "magneton.jump_at_zero",
        "magneton.numeric_jump_at_one", "magneton.numeric_jump_at_zero",
    ),
    "taylor.compute_coefficients": ("taylor.compute_coefficients",),
    "taylor.exact": ("taylor.compute_coefficients_exact", "taylor.rearranged_at_one_exact"),
    "diagnostics.well_zeros": ("diagnostics.well_zeros", "diagnostics.find_root"),
}

# name, unit, better, and the end-to-end metric and workload it should move
PER_LAYER = (
    ("quad.phi_numeric.calls", "count", "lower", "wall_s on table-sweep"),
    ("quad.phi_numeric.self_s", "s", "lower", "wall_s on table-sweep"),
    ("quad.integrand_evals", "count", "lower", "wall_s, wall_tail_s, cpu_s on table-sweep; 0 elsewhere"),
    ("quad.integrand_evals.max_row", "count", "lower", "wall_s, wall_tail_s, cpu_s on table-sweep; 0 elsewhere"),
    ("specfun.log_abs_zeta.calls", "count", "lower", "wall_s on table-sweep"),
    ("specfun.log_abs_zeta.self_s", "s", "lower", "wall_s on table-sweep"),
    ("specfun.log_abs_zeta.us_per_call", "us", "lower", "wall_s on table-sweep"),
    ("specfun.zeta_family.calls", "count", "lower", "wall_s on closed-figures"),
    ("specfun.zeta_family.self_s", "s", "lower", "wall_s on closed-figures"),
    ("specfun.gamma_family.calls", "count", "lower", "wall_s on closed-figures"),
    ("specfun.gamma_family.self_s", "s", "lower", "wall_s on closed-figures"),
    ("specfun.xi.calls", "count", "lower", "wall_s on closed-figures"),
    ("specfun.xi.self_s", "s", "lower", "wall_s on closed-figures"),
    ("specfun.sieve_primes.self_s", "s", "lower", "wall_s, peak_rss_mb on taylor-deep"),
    ("specfun.sieve_primes.primes", "count", "lower", "wall_s, peak_rss_mb on taylor-deep"),
    ("specfun.prime_tail.calls", "count", "lower", "wall_s on taylor-deep"),
    ("specfun.prime_tail.self_s", "s", "lower", "wall_s on taylor-deep"),
    ("magneton.phi_closed.calls", "count", "lower", "wall_s on closed-figures"),
    ("magneton.phi_closed.self_s", "s", "lower", "wall_s on closed-figures"),
    ("magneton.field_E.calls", "count", "lower", "wall_s on closed-figures"),
    ("magneton.field_E.self_s", "s", "lower", "wall_s on closed-figures"),
    ("magneton.well_S.calls", "count", "lower", "wall_s on closed-figures"),
    ("magneton.well_S.self_s", "s", "lower", "wall_s on closed-figures"),
    ("magneton.jump_checks.calls", "count", "lower", "wall_s on closed-figures"),
    ("magneton.jump_checks.self_s", "s", "lower", "wall_s on closed-figures"),
    ("taylor.compute_coefficients.self_s", "s", "lower", "wall_s, peak_rss_mb on taylor-deep"),
    ("taylor.exact.self_s", "s", "lower", "wall_s on taylor-deep"),
    ("taylor.bound_slack", "ratio", "lower", "max_err_ratio on taylor-deep"),
    ("diagnostics.well_zeros.calls", "count", "lower", "wall_s on closed-figures"),
    ("diagnostics.well_zeros.self_s", "s", "lower", "wall_s on closed-figures"),
    ("cli.self_s", "s", "lower", "wall_s on closed-figures"),
    ("cli.payload_bytes", "count", "lower", "wall_s on closed-figures"),
    ("cli.worker_threads", "count", "lower", "cpu_s on table-sweep"),
    ("quad.lock_wait_s", "s", "lower", "wall_s, cpu_s on table-sweep"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall of the same commands"),
)
TIMES = tuple(name for name, unit, _, _ in PER_LAYER if unit in ("s", "us"))


class Tracer:
    """Records spans at the public functions of the magneton modules."""

    def __init__(self):
        # (id, name, start, end, parent, request, thread, thread cpu seconds)
        self.spans: list[tuple] = []
        self.captured: dict[str, list] = defaultdict(list)
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[int] = []
        self._originals: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        capture = self.captured[name] if name in CAPTURED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root[-1] if self._root else 0)
            sid = next(self._ids)
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.request, threading.get_ident(), cpu))
            if capture is not None:
                capture.append(result)
            return result

        return traced

    def install(self, package: dict):
        """Wrap the public functions of each module in `package`, a mapping
        from short module name to module object."""
        self._root = self._stack()
        for short in MODULES:
            module = package[short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                self._originals.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def write(self, path: str):
        keys = ("id", "name", "start", "end", "parent", "request", "thread", "thread_cpu")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for _, _, start, end, parent, *_ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, c_exact: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s and
    cli.payload_bytes are filled in by the caller)."""
    spans = tracer.spans
    self_s = _self_times(spans)
    calls: Counter = Counter()
    by_name: dict[str, float] = defaultdict(float)
    for sid, name, *_ in spans:
        calls[name] += 1
        by_name[name] += self_s[sid]
    metrics: dict[str, float] = {}
    for group, members in GROUPS.items():
        metrics[f"{group}.calls"] = sum(calls[m] for m in members)
        metrics[f"{group}.self_s"] = sum(by_name[m] for m in members)
    metrics["quad.phi_numeric.calls"] = calls["quad.phi_numeric"]
    metrics["quad.phi_numeric.self_s"] = sum(v for k, v in by_name.items() if k.startswith("quad."))
    metrics["cli.self_s"] = sum(v for k, v in by_name.items() if k.startswith("cli."))
    n_zeta = metrics["specfun.log_abs_zeta.calls"]
    metrics["specfun.log_abs_zeta.us_per_call"] = 1e6 * metrics["specfun.log_abs_zeta.self_s"] / n_zeta if n_zeta else 0.0

    # integrand evaluations: log_abs_zeta spans below a phi_numeric span
    info = {sid: (name, parent) for sid, name, _, _, parent, *_ in spans}
    per_row: Counter = Counter()
    for sid, name, *_ in spans:
        if name != "specfun.log_abs_zeta":
            continue
        up = info[sid][1]
        while up in info and info[up][0] != "quad.phi_numeric":
            up = info[up][1]
        if up in info:
            per_row[up] += 1
    metrics["quad.integrand_evals"] = sum(per_row.values())
    metrics["quad.integrand_evals.max_row"] = max(per_row.values(), default=0)
    rows = [s for s in spans if s[1] == "quad.phi_numeric"]
    metrics["cli.worker_threads"] = len({s[6] for s in rows})
    metrics["quad.lock_wait_s"] = sum(end - start - cpu for _, _, start, end, _, _, _, cpu in rows)
    metrics["specfun.sieve_primes.primes"] = sum(len(t) for t in tracer.captured["specfun.sieve_primes"])
    slack = 0.0
    for coeffs in tracer.captured["taylor.compute_coefficients"]:
        for c, bound, exact in zip(coeffs.c, coeffs.c_bounds, c_exact):
            slack = max(slack, abs(c - exact) / bound)
    metrics["taylor.bound_slack"] = slack
    return {name: metrics[name] for name, *_ in PER_LAYER if name in metrics}
