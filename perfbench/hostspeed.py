"""Host-speed probes: every end-to-end time is divided by the speed of the
host measured around it.

On a few cores of a shared host the same command's time drifts by tens of
percent, over seconds and over minutes, in user CPU time as much as in
wall time; most likely neighbours on the sibling hyperthreads, the shared
L3 and the memory bandwidth.  A run of about ten
`taylor` invocations cannot average a minute-long slow phase away, so raw
medians of two runs of the same code can differ by a third.

So a fixed probe kernel runs in the benchmark's own process before every
timed invocation and after the last one.  The probe's time, over its
reference time, is the host's slowness factor at that moment, and an
invocation's time is divided by the mean factor of the two probes that
bracket it.  The result is in seconds at the reference speed: on the host
the references were taken on (2 vCPUs of a shared Intel Xeon, Python
3.11.7, numpy 2.4.6), a typical phase reads about what a stopwatch
reads.  The probe never changes with the program, so a program that gets
faster reads faster by the same share.  run.py prints the raw medians
and the probe medians on comment lines next to the normalised figures.

Each workload names the probe whose bottleneck matches its own
(workloads.PROBE):
* stream: a slice of the prime sum in `taylor`, numpy passes over 5.3 MB
  float64 arrays (memory-bound, sensitive to L3 and bandwidth neighbours);
* interp: a pure-Python integer loop, the shape of the scalar zeta calls,
  quadrature bookkeeping and imports (interpreter-bound).
In sets of ten runs of 30 s on that host, each run with its own seed, the
probes cut the spread of the run medians of wall_s (quartile distance
over median) from 0.13-0.19 to 0.05-0.08 on taylor-deep, from 0.11-0.27
to 0.06-0.12 on table-sweep and from 0.08-0.16 to 0.04-0.06 on
closed-figures, the larger cuts in loaded phases.  They do not remove all
of it: the host's speed also changes during an invocation, which no
probe before or after it sees.  Pinning the command and the probe to one
CPU did not help, nor did a probe on the other CPU during the command.
"""

from __future__ import annotations

import time

# the length of the taylor-deep prime arrays (primes below 1e7)
_STREAM_LEN = 664_579
_stream_data = None


def _stream() -> None:
    """Eight k-steps (of 68) of the prime-sum loop in
    taylor.compute_coefficients, on arrays of the same length, so the same
    five arrays are live and compete for the same caches.  Shorter probes
    tracked the command's slowness worse: the longer a probe, the more of
    the host's fluctuation it averages, like the 3 s command does."""
    import numpy as np

    global _stream_data
    if _stream_data is None:
        lp = np.log(np.arange(2.0, _STREAM_LEN + 2.0))
        _stream_data = (lp, np.exp(-1.5 * lp))
    lp, q = _stream_data
    qk = np.ones_like(q)
    for _ in range(8):
        qk = qk * q
        w = qk
        for _ in range(21):
            w.sum()
            w = w * lp


def _interp() -> None:
    total = 0
    for i in range(600_000):
        total += i * i


# kernel, and its median time in seconds on the reference host
PROBES = {
    "stream": (_stream, 0.3),
    "interp": (_interp, 0.048),
}


class Probe:
    """Runs one probe kernel and keeps every time it took."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, self.reference_s = PROBES[kind]
        self.times: list[float] = []
        self._kernel()  # warm-up: first-call allocation and imports

    def factor(self) -> float:
        """The host's slowness now: probe time over the reference time."""
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.times.append(took)
        return took / self.reference_s
