#!/usr/bin/env python3
"""The ditop benchmark: time to a verdict, per verb, on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pv-programs --seed 1 --seconds 55 --trace 0

With ``--trace 0`` the workload's jobs run as fresh ``ditop`` subprocesses
in a closed loop with one client, each checked against a closed-form
reference, and the end-to-end metrics are printed.  With ``--trace 1``
the same jobs are replayed in process, layer by layer under spans, and
the per-layer metrics are printed.  The last line of stdout is the
result object; the line before it records the environment and the
sample count behind every figure.  Spans and records are also written
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (perfbench/ is the script's directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # trivial jobs before and again after the timed loop
HARD_LIMIT_S = 150.0  # no job starts later than this into the run
JOB_TIMEOUT_S = 60.0
TRACE_MEMORY_BYTES = 4 << 30
TINY = {"cells": {"0": ["o"]}}


class Launcher:
    """The small process that spawns, guards and reaps every ``ditop`` job."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def run(self, argv: list[str], cwd: Path, timeout_s: float) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "timeout_s": timeout_s}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def evaluate(job: workloads.Job, code: int, stdout: str, stderr: str, timed_out: bool) -> str | None:
    """None when the job did what its reference says; otherwise the problem."""
    if timed_out:
        return "timed out"
    if "Traceback" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1]
    if code != job.code:
        return f"exit {code}, expected {job.code}: {stderr.strip()[:200]}"
    try:
        data = json.loads(job.out.read_text(encoding="utf-8") if job.out else stdout)
        problem = job.check(data)
        if problem is None and job.then is not None:
            job.then(data)
        return problem
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """One benchmark run: rounds of seeded jobs until the time is up."""

    def __init__(self, workload: str, seed: int, seconds: float, small: bool):
        self.make_round = workloads.WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.seconds = seconds
        self.small = small
        self.attempted = 0
        self.problems: list[str] = []
        self.rounds = 0

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")
            print(f"perfbench: FAIL {label}: {problem}", file=sys.stderr)

    def loop(self, tmp: Path, run_job) -> float:
        """Complete rounds until ``seconds`` have passed; returns the loop's wall time."""
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < self.seconds:
            d = tmp / f"round{self.rounds}"
            d.mkdir()
            for job in self.make_round(self.rng, d, self.small):
                left = HARD_LIMIT_S - (time.perf_counter() - start)
                if left <= 0:
                    return time.perf_counter() - start
                run_job(job, d, min(JOB_TIMEOUT_S, left))
            shutil.rmtree(d)
            self.rounds += 1
        return time.perf_counter() - start


def end_to_end(run: Run, tmp: Path) -> tuple[dict, dict]:
    log: list[tuple] = []  # per job: round, metric, wall seconds, peak RSS in MB, exit code
    probe = workloads.Job("setup", ["validate", str(tmp / "tiny.json")], 0, workloads.expect(valid=True))
    launcher = Launcher()
    try:
        def run_job(job: workloads.Job, d: Path, timeout_s: float) -> dict:
            res = launcher.run(job.argv, d, timeout_s)
            stdout = (d / "job.stdout").read_text(encoding="utf-8", errors="replace")
            stderr = (d / "job.stderr").read_text(encoding="utf-8", errors="replace")
            run.record(" ".join(job.argv[:2]), evaluate(job, res["code"], stdout, stderr, res["timed_out"]))
            return res

        def workload_job(job: workloads.Job, d: Path, timeout_s: float) -> None:
            res = run_job(job, d, timeout_s)
            log.append((run.rounds, job.metric, res["wall_s"], res["maxrss_mb"], res["code"]))

        (tmp / "tiny.json").write_text(json.dumps(TINY), encoding="utf-8")
        setup = [run_job(probe, tmp, JOB_TIMEOUT_S)["wall_s"] for _ in range(SETUP_PROBES)]
        loop_wall = run.loop(tmp, workload_job)
        setup += [run_job(probe, tmp, JOB_TIMEOUT_S)["wall_s"] for _ in range(SETUP_PROBES)]
    finally:
        launcher.close()
    walls = [wall for _, _, wall, _, _ in log]
    times = {m: [wall for _, metric, wall, _, _ in log if metric == m] for m in workloads.VERB_METRICS}
    tail_s, tail_pct = tail(walls)
    metrics = {m: (statistics.median(v), "s") for m, v in times.items()}
    metrics.update({
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (len(walls) / loop_wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss for _, _, _, rss, _ in log), "MB"),
    })
    samples = {m: len(v) for m, v in times.items()}
    samples.update(job_tail_s=len(walls), jobs_per_s=len(walls), setup_s=len(setup), peak_rss_mb=len(walls))
    return metrics, {"samples": samples, "job_tail_percentile": tail_pct, "loop_wall_s": loop_wall,
                     "setup_walls": setup, "jobs": log}


def _timeout(signum, frame):
    raise TimeoutError("job exceeded its time limit")


def per_layer(run: Run, tmp: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import replay  # imports ditop from the checkout's src/

    tracer = replay.Tracer()
    overheads: list[float] = []

    def run_job(job: workloads.Job, d: Path, timeout_s: float) -> None:
        tracer.job = run.attempted
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            # Alternate which of the pair runs first, so file-cache warmth cancels.
            if run.attempted % 2:
                plain = replay.untraced(job.argv)
            code, text, total = replay.replay(tracer, job.argv)
            if not run.attempted % 2:
                plain = replay.untraced(job.argv)
        except Exception as exc:  # a crash in process is this job's failure, as a traceback would be
            run.record(" ".join(job.argv[:2]), f"raised {exc!r}")
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        overheads.append(total - plain)
        run.record(" ".join(job.argv[:2]), evaluate(job, code, text, "", False))

    # The replay runs in this process, so the guards apply to it while it runs.
    limits = resource.getrlimit(resource.RLIMIT_AS)
    handler = signal.signal(signal.SIGALRM, _timeout)
    resource.setrlimit(resource.RLIMIT_AS, (TRACE_MEMORY_BYTES, limits[1]))
    try:
        run.loop(tmp, run_job)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
        signal.signal(signal.SIGALRM, handler)
    metrics = replay.layer_metrics(tracer, max(run.rounds, 1), overheads)
    return metrics, {"spans": tracer.spans, "counts": dict(tracer.counts), "jobs": run.attempted}


def environment(trace_mode: int) -> dict:
    """Where the figures came from: source revision, interpreter, cores."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "dont_write_bytecode": {"benchmark": sys.flags.dont_write_bytecode, "jobs": 1},
        "nproc": len(os.sched_getaffinity(0)),
        "trace": trace_mode,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace_mode: int, small: bool = False) -> tuple[dict, dict]:
    """One run; returns the result object and the record written beside it."""
    run = Run(workload, seed, seconds, small)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        measure = per_layer if trace_mode else end_to_end
        metrics, detail = measure(run, Path(tmp))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "rounds": run.rounds,
              "environment": environment(trace_mode), "failures": run.problems[:50], **detail}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ditop" / "cli.py").is_file():
        print(f"perfbench: no ditop sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    summary = {k: v for k, v in record.items() if k not in ("spans", "jobs")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
