"""corrgap benchmark: one closed-loop client, one job in flight.

    python3 bench/run.py --workload lp16 --seed 1 --seconds 55 --trace 0

Runs a seeded stream of real CLI commands in-process through
`corrgap.cli.main(argv)` from this checkout's `src/`, checks every job's
output, and prints the metrics, a run fingerprint, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, each deck job counted at its best run;
with --trace 1 every pass over the deck runs untraced and then again with
per-layer spans installed, and the run reports the per-layer metrics of the
traced passes. Any failed job makes the exit code 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import stats
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 30
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "jobs_per_s": "1/s",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    """corrgap.cli from this checkout's src/, never from an installed copy."""
    package = SRC / "corrgap"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import corrgap
    import corrgap.cli

    if Path(corrgap.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported corrgap from {corrgap.__file__}, not {package}")
    return corrgap.cli.main


class Timings:
    """Wall and CPU seconds of every job run in a timed phase, and the best
    (smallest) of each per distinct job. Host interference only ever adds
    time, so a job's best run is its cost with the least interference."""

    def __init__(self):
        self.argvs: list[tuple[str, ...]] = []
        self.best_wall: dict[tuple[str, ...], float] = {}
        self.best_cpu: dict[tuple[str, ...], float] = {}
        self.passes = 0

    def add(self, argv: tuple[str, ...], wall: float, cpu: float) -> None:
        self.argvs.append(argv)
        self.best_wall[argv] = min(wall, self.best_wall.get(argv, math.inf))
        self.best_cpu[argv] = min(cpu, self.best_cpu.get(argv, math.inf))

    def best_latencies(self) -> list[float]:
        """One latency per job run: the best wall time of that run's job."""
        return [self.best_wall[argv] for argv in self.argvs]

    def best_pass(self, deck: list[workloads.Job]) -> tuple[float, float]:
        """Wall and CPU seconds of one pass over the deck at every job's best."""
        return sum(self.best_wall[j.argv] for j in deck), sum(self.best_cpu[j.argv] for j in deck)


class Runner:
    """Executes jobs, checks them, and keeps the failure tally."""

    def __init__(self, main):
        self.main = main
        # argv -> (digest, gate verdict) of the job's first run
        self.first_runs: dict[tuple[str, ...], tuple[str, str | None]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, job: workloads.Job, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """Run one job; return its wall and process CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.begin_job(self.attempted, job.name) if tracer else None
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                code = self.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception"
                traceback.print_exc()
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            if tracer:
                tracer.close(span)
        self.attempted += 1
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        # The full gate runs on a job's first output; a repeat must reproduce
        # that output exactly and then shares its verdict.
        if job.argv not in self.first_runs:
            self.first_runs[job.argv] = (digest, gate.check(job, code, text))
        first_digest, reason = self.first_runs[job.argv]
        if code != 0:
            reason = f"exit code {code}"
        elif digest != first_digest:
            reason = "stdout differs from the job's first run"
        if reason is not None:
            self.failures.append(f"{job.name}: {reason}\n{err.getvalue()}")
        return elapsed, cpu

    def run_pass(self, jobs: list[workloads.Job], timings: Timings, tracer: tracing.Tracer | None = None) -> None:
        for job in jobs:
            timings.add(job.argv, *self.execute(job, tracer))
        timings.passes += 1


def timed_phase(runner: Runner, deck: list[workloads.Job], seed: int, seconds: float, tracer: tracing.Tracer | None = None, probe=None):
    """Whole passes over the deck until `seconds` of passes have run. With a
    tracer, every pass runs twice in a row, untraced and then traced, so both
    sides of `trace.overhead_pct` see the same moments of host speed.
    With `probe` (a function returning one set-up time), SETUP_PROBES probes
    run between passes, spread evenly over the phase, so that `setup_s`
    samples the host over the whole run and not over a few seconds; their
    own time counts towards `seconds`.
    Returns (untraced, traced, set-up times); traced is None without a tracer."""
    untraced, traced, setup = Timings(), Timings() if tracer else None, []
    start = time.perf_counter()
    for order in workloads.passes(deck, seed):
        runner.run_pass(order, untraced)
        if tracer:
            tracer.install()
            try:
                runner.run_pass(order, traced, tracer)
            finally:
                tracer.uninstall()
        if probe and len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        if time.perf_counter() - start >= seconds:
            break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return untraced, traced, setup


def probe_setup(args) -> float:
    """Wall time from spawning a fresh interpreter until bench/probe.py has
    imported the program and written this workload's inputs."""
    workdir = WORK / f"probe-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), args.workload, str(args.seed), str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CORRGAP_THREADS": os.environ.get("CORRGAP_THREADS"),
        "git_commit": _git_commit(),
    }


def end_to_end(timings: Timings, deck: list[workloads.Job], setup: list[float], runner: Runner) -> tuple[dict, list[str]]:
    latencies = timings.best_latencies()
    count = len(latencies)
    tail = stats.tail_percentile(count)
    wall, cpu = timings.best_pass(deck)
    metrics = {
        "latency_p50_ms": 1e3 * stats.percentile(latencies, 50),
        "latency_tail_ms": 1e3 * stats.percentile(latencies, tail),
        "jobs_per_s": len(deck) / wall,
        "cpu_ms_per_job": 1e3 * cpu / len(deck),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": min(setup),
    }
    best_of = f"each job at its best of {timings.passes} passes"
    notes = {
        "latency_p50_ms": f"n={count}, {best_of}",
        "latency_tail_ms": f"p{tail:g}, n={count}, {stats.beyond(count, tail)} beyond",
        "jobs_per_s": f"{len(deck)} deck jobs over the sum of their best times",
        "cpu_ms_per_job": f"{best_of}; cpu/wall {cpu / wall:.2f}",
        "setup_s": f"fastest of {len(setup)} fresh interpreters spread over the run; median {statistics.median(setup):.4f}, slowest {max(setup):.4f}",
    }
    lines = [f"{name:32s} {value:14.6f} {END_TO_END_UNITS[name]:6s} {notes.get(name, '')}" for name, value in metrics.items()]
    rate = len(runner.failures) / runner.attempted
    lines.append(f"{'error_rate':32s} {rate:14.6f} {'ratio':6s} {len(runner.failures)} of {runner.attempted} jobs")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # verify --all shards across CORRGAP_THREADS threads; the tracer keeps one
    # span stack, and the job mix must not depend on the caller's environment.
    os.environ["CORRGAP_THREADS"] = "1"
    main_fn = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.prepare(args.workload, args.seed, workdir)

        runner = Runner(main_fn)
        for job in jobs:  # warm-up: first outputs, gated in full
            runner.execute(job)
        run_fingerprint = fingerprint(args)
        print(f"fingerprint {json.dumps(run_fingerprint, sort_keys=True)}")
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced, _ = timed_phase(runner, jobs, args.seed, args.seconds, tracer)
            overhead = 100.0 * (traced.best_pass(jobs)[0] / untraced.best_pass(jobs)[0] - 1.0)
            values, absent = tracing.layer_metrics(tracer, overhead)
            tracer.write(WORK / f"spans-{args.workload}.json", {"fingerprint": run_fingerprint})
            metrics = {name: {"value": v, "unit": tracing.UNITS[name]} for name, v in values.items()}
            lines = [f"{n:32s} {m['value']:14.6f} {m['unit']}" for n, m in metrics.items()]
            lines += [f"{name:32s} {'absent':>14s}" for name in absent]
            lines.append(f"{traced.passes} traced passes, each right after the same pass untraced")
        else:
            untraced, _, setup = timed_phase(runner, jobs, args.seed, args.seconds, probe=lambda: probe_setup(args))
            metrics, lines = end_to_end(untraced, jobs, setup, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("\n".join(lines))
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
