"""gallaikit benchmark: closed-loop CLI workloads plus an in-process traced run.

Run from the root of a checkout:

    python3 gkbench/run.py --workload towers --seed 1 --seconds 30 --trace 0

One client drives one `python -m gallaikit.cli` child at a time over the
workload's job list, repeating the list as many times as fit in --seconds,
and checks every job's output.  Times are scaled to a reference host speed
(see speed.py).  --trace 0 prints the end-to-end metrics;
--trace 1 makes one CLI pass and then runs the same jobs in-process, once
untraced and once traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object; the spans and a fuller record are written to
.bench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import speed
import tracing
from workloads import SETUP, Job

perf = time.perf_counter
SETUP_REPEATS = 5
IMPORT_PROBES = 3
RUN_LIMIT_S = 170  # every run must end within 180 s


def child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def fresh_interpreter(code: str, env: dict) -> float:
    t0 = perf()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf() - t0


class Runner:
    """Runs jobs as CLI children, one at a time, and checks their outputs."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline
        self.inputs: dict = {}
        self.ref: list[float] = []  # reference loop times, one before each job
        self.wall: dict[str, list[tuple[float, int]]] = {}  # (seconds, index into ref)
        self.cpu: dict[str, list[tuple[float, int]]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def reference(self) -> int:
        self.ref.append(speed.reference_loop())
        return len(self.ref) - 1

    def scaled(self, seconds: float, k: int) -> float:
        """seconds at reference speed, by the reference loops just before and after"""
        return seconds * speed.REF_S * 2 / (self.ref[k] + self.ref[k + 1])

    def record(self, job: Job, out: dict | None) -> None:
        self.attempted += 1
        try:
            reason = checks.check(job, out, self.work, self.inputs)
        except Exception as exc:  # a malformed output is a failed job, not a crash
            reason = f"check raised {exc!r}"
        if reason is not None:
            self.failures.append(f"{job.id}: {reason}")

    def run(self, job: Job) -> None:
        stdout = self.work / f"{job.id}.stdout"
        k = self.reference()
        with open(stdout, "wb") as out, open(self.work / f"{job.id}.stderr", "wb") as err:
            cpu0 = child_cpu()
            t0 = perf()
            child = subprocess.Popen([sys.executable, "-m", "gallaikit.cli", *job.argv, "--json"],
                                     cwd=self.work, env=self.env, stdout=out, stderr=err)
            # a timer kills a child that runs past the deadline; wait() itself
            # blocks in waitpid, which a timeout would turn into 50 ms polling
            killer = threading.Timer(max(1.0, self.deadline - perf()), child.kill)
            killer.start()
            child.wait()
            wall = perf() - t0
            killer.cancel()
            killer.join()
        if child.returncode < 0:
            self.attempted += 1
            self.failures.append(f"{job.id}: killed by signal {-child.returncode}")
            return
        self.wall.setdefault(job.id, []).append((wall, k))
        self.cpu.setdefault(job.id, []).append((child_cpu() - cpu0, k))
        self.record(job, checks.parse_output(stdout.read_text(encoding="utf-8", errors="replace")))

    def median_sum(self, samples: dict[str, list[tuple[float, int]]], jobs) -> float:
        """Sum over jobs of each job's median time at reference speed."""
        return sum(statistics.median(self.scaled(t, k) for t, k in samples[j.id])
                   for j in jobs if j.id in samples)


def traced_run(jobs: list[Job], work: Path, runner: Runner) -> tuple[tracing.Tracer, dict, dict]:
    """In-process pass untraced, then traced with probes; returns both per-job times."""
    os.chdir(work)  # the CLI's relative paths resolve against the work dir
    tracer = tracing.Tracer()
    times: tuple[dict, dict] = ({}, {})
    for traced, took in enumerate(times):
        with tracing.instrumented(tracer) if traced else contextlib.nullcontext():
            for job in jobs:
                if perf() > runner.deadline:
                    runner.attempted += 1
                    runner.failures.append(f"{job.id}: in-process run out of time")
                    continue
                runner.reference()
                tracer.job = job.id
                with tracer.span(f"job.{job.command}") if traced else contextlib.nullcontext():
                    t0 = perf()
                    out = tracing.call_cli(job.argv)
                    took[job.id] = perf() - t0
                runner.record(job, out)
                if traced and job.command == "verify":
                    tracing.probe_verify(tracer, job, work)
    return tracer, *times


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf()
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "gallaikit" / "cli.py").is_file():
        print(f"error: no gallaikit sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(work, env, start + RUN_LIMIT_S)
    setup_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        k = runner.reference()
        t0 = perf()
        import_s.append((fresh_interpreter("import gallaikit.cli", env), k))
        jobs = SETUP[args.workload](random.Random(args.seed), work)
        setup_s.append((perf() - t0, k))
    bare_s = []
    for _ in range(IMPORT_PROBES):
        k = runner.reference()
        bare_s.append((fresh_interpreter("pass", env), k))

    # whole passes over the job list, as many as fit in --seconds (at least one)
    measure_start = perf()
    passes = 0
    while True:
        for job in jobs:
            runner.run(job)
        passes += 1
        elapsed = perf() - measure_start
        if args.trace or elapsed * (passes + 1) / passes > args.seconds or perf() > runner.deadline:
            break
    runner.reference()

    if args.trace:
        tracer, untraced, traced = traced_run(jobs, work, runner)
        os.chdir(root)
        tracer.dump(work / "spans.json")
        # in-process times are scaled by the median reference time of the run
        scale = speed.REF_S / statistics.median(runner.ref)
        cli_wall = {j.id: statistics.median(runner.scaled(t, k) for t, k in runner.wall[j.id])
                    for j in jobs if j.id in runner.wall}
        import_s = statistics.median(runner.scaled(t, k) for t, k in import_s)
        metrics = {
            "cli.import_s": (import_s - statistics.median(runner.scaled(t, k) for t, k in bare_s), "s"),
            "cli.overhead_s": (sum(cli_wall[j] - untraced[j] * scale for j in cli_wall), "s"),
            "trace.overhead_s": (sum(traced[j] - untraced[j] for j in traced) * scale, "s"),
        }
        for g in ("build", "verify", "partition", "search", "cnf"):
            metrics[f"cli.{g}_s"] = (runner.median_sum(runner.wall, [j for j in jobs if j.group == g]), "s")
        metrics.update(tracing.layer_metrics(tracer, scale))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": (runner.median_sum(runner.wall, jobs), "s"),
            "cpu_s": (runner.median_sum(runner.cpu, jobs), "s"),
            "setup_s": (statistics.median(runner.scaled(t, k) for t, k in setup_s), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "reference_loop_s": runner.ref,
        "job_wall_s": runner.wall, "job_cpu_s": runner.cpu, "setup_raw_s": setup_s,
        "fail_share": failed / max(1, runner.attempted), "failures": runner.failures,
        "src_lines": src_lines(src), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"workload={args.workload} seed={args.seed} passes={passes} jobs={len(jobs)} "
          f"fail_share={record['fail_share']:.4f} src_lines={record['src_lines']} "
          f"nproc={record['nproc']} python={record['python']} "
          f"run_s={perf() - start:.1f}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
