"""Job launcher: runs ``ditop`` invocations as guarded subprocesses.

The benchmark starts this process once, before it has loaded anything
large, and sends it one JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "timeout_s": 60}

For each request it spawns ``python -m ditop.cli <argv>``, waits for it
and answers with one JSON line:

    {"code": 0, "wall_s": 0.31, "maxrss_mb": 21.4, "timed_out": false}

A forked child's peak RSS starts at its parent's RSS at fork time, so
spawning from this small process instead of the benchmark, whose heap
grows as it parses multi-MB outputs, keeps ``ru_maxrss`` the job's own.
The job's stdout and stderr go to ``job.stdout`` and ``job.stderr`` in
``cwd``.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import sys
import time

MEMORY_BYTES = 2 << 30


def _guard() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(argv: list[str], cwd: str, timeout_s: float) -> dict:
    """Spawn, wait at most ``timeout_s`` (then kill), reap with wait4."""
    with open(os.path.join(cwd, "job.stdout"), "wb") as out, \
            open(os.path.join(cwd, "job.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ditop.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=cwd,
            preexec_fn=_guard,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout_s)[0]
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": timed_out,
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["cwd"], req["timeout_s"])), flush=True)


if __name__ == "__main__":
    main()
