"""Command runner for run.py, kept in its own small process.

A child's peak RSS as os.wait4 reports it is at least the peak RSS of the
process that forked it, because exec records the old address space's
high-water mark.  Forked from the benchmark itself (mpmath, references,
payloads in memory) a small command would report the benchmark's memory;
forked from this process it reports its own.

Reads one JSON request per line on stdin,
    {"cmd": [...], "env": {...}, "cwd": "...", "stdout": path, "stderr": path}
runs it to completion and answers one JSON line
    {"returncode": int, "wall_s": float, "cpu_s": float, "rss_kb": int}.
Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    reply = {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
