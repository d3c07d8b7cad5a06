#!/usr/bin/env python3
"""Benchmark of the `ietrel` command line on three seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload suite|deep-m|growth --seed N \\
        --seconds S --trace 0|1

One process, one thread, one client in a closed loop: each job is one
`ietrel` command run in-process through `ietrel.cli.main` on document files
generated from the seed (see workloads.py), sent as soon as the previous job
returned.  Jobs run in whole passes over the workload's job list, as many as
S seconds hold at the workload's nominal pass time, and at least one.  Every
output is checked, untimed; a failed check counts against the run and makes
the exit code 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced pass, then the traced passes, and reports the per-layer metrics
(see tracing.py) for one pass.  The last line of standard output is
one JSON object; the lines before it print every metric by name and unit.
A results file with the run's context goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("suite", "deep-m", "growth")
SETUP_LAUNCHES = 15
SETUP_WARMUPS = 2  # the first launches fill the bytecode cache and run slow
TAIL_BEYOND = 10  # the tail percentile is the highest with this many jobs beyond it
PROBE_LOOPS = 20_000  # about 1.5 ms of pure Python on a 2 GHz x86 core
PROBE_REPEATS = 3
# figures printed and recorded beside the metrics of BENCHMARK.json; the
# per-command totals and the failure ratio are 0 on some workloads
DETAIL_UNITS = {"samples": "jobs", "tail_percentile": "%", "synth_s": "s", "verify_s": "s",
                "growth_s": "s", "failed_ratio": "ratio", "passes": "count",
                "traced_passes": "count", "spans": "count"}


def ietrel_importable() -> bool:
    """Import ietrel from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ietrel
    except ImportError:
        return False
    return Path(ietrel.__file__).resolve().is_relative_to(src.resolve())


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import ietrel.cli`,
    after SETUP_WARMUPS launches that are not counted.

    No timeout: with one, the wait polls at up to 50 ms intervals and the
    time read is rounded up to the next poll."""
    cmd = [sys.executable, "-c", "import ietrel.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cpus = usable_cpus()
    times = []
    for i in range(SETUP_WARMUPS + SETUP_LAUNCHES):
        pin_fastest_cpu(cpus)  # the child inherits the CPU
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i >= SETUP_WARMUPS:
            times.append(time.perf_counter() - start)
    unpin(cpus)
    return statistics.median(times)


def tail(latencies: List[float]) -> Tuple[float, int]:
    """(value, percentile) at the highest whole percentile, by nearest rank,
    with at least TAIL_BEYOND samples above it; the maximum when there are
    too few samples for that."""
    n = len(latencies)
    xs = sorted(latencies)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], q
    return xs[-1], 100


def probe_ns() -> int:
    """Time of a fixed pure-Python loop, in ns."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def pin_fastest_cpu(cpus: List[int]) -> None:
    """Pin this process to the CPU of `cpus` that runs the probe fastest now.

    On a machine whose CPUs are shared with other tenants, one CPU at a time
    slows by up to about 1.5x for stretches of about a second, unseen by the
    scheduler.  Called untimed, before every timed job and launch."""
    if len(cpus) < 2:
        return
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(probe_ns() for _ in range(PROBE_REPEATS))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def unpin(cpus: List[int]) -> None:
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus)


class Loop:
    """The closed loop: whole passes over a workload's jobs, with checks."""

    def __init__(self, workload, run_cli):
        self.workload = workload
        self.run_cli = run_cli
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, passes: int, tracer=None) -> Tuple[List[List[int]], int]:
        """Per-job latency samples in ns over `passes` passes, and the summed
        job time in ns.  A pass runs every job `job.samples` times, in rounds of
        the jobs in list order; the round of every job runs in the middle, so
        the samples of a job lie a whole round apart.  CPU pinning, tracer
        installation and checks are untimed."""
        jobs = self.workload.jobs
        latencies: List[List[int]] = [[] for _ in jobs]
        rounds = [[(i, job) for i, job in enumerate(jobs) if job.samples > r]
                  for r in range(max(job.samples for job in jobs))]
        middle = len(rounds) // 2
        rounds = rounds[1:middle + 1] + rounds[:1] + rounds[middle + 1:]
        busy = 0
        cpus = usable_cpus()
        for _ in range(passes):
            for i, job in (entry for jobs_of_round in rounds for entry in jobs_of_round):
                pin_fastest_cpu(cpus)
                if tracer is not None:
                    tracer.job = job.name
                    tracer.install()
                start = time.perf_counter_ns()
                try:
                    code, out = self.run_cli(job.argv)
                except Exception as exc:  # a crash is a failed job, not a dead run
                    code, out = -1, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter_ns() - start
                if tracer is not None:
                    tracer.uninstall()
                latencies[i].append(elapsed)
                busy += elapsed
                self.attempted += 1
                failure = out if code == -1 else self.workload.check(job, code, out)
                if failure is not None:
                    self.failures.append(f"{job.name}: {failure}")
        unpin(cpus)
        return latencies, busy


def end_to_end(latencies: List[List[int]], jobs, setup_s: float) -> Tuple[Dict[str, float], dict]:
    """End-to-end metrics from per-job latencies, plus the details behind them.

    A job's latency is the least of its samples: on a shared machine,
    contention only ever adds time, and it comes in stretches of seconds."""
    per_job = [min(xs) * 1e-9 for xs in latencies]
    tail_s, q = tail(per_job)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(per_job) / sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    by_command: Dict[str, float] = {}
    for job, s in zip(jobs, per_job):
        by_command[job.command] = by_command.get(job.command, 0.0) + s
    details = {
        "samples": len(per_job),
        "tail_percentile": q,
        "synth_s": by_command.get("synthesize", 0.0),
        "verify_s": by_command.get("verify", 0.0),
        "growth_s": by_command.get("disc-growth", 0.0),
    }
    return metrics, details


def per_layer(loop: Loop, passes: int) -> Tuple[Dict[str, float], dict, list]:
    """One untraced pass, then traced passes; per-layer metrics for one pass."""
    from tracing import Tracer, op_timings, summarize

    _, plain_ns = loop.run(1)
    tracer = Tracer()
    _, traced_ns = loop.run(passes, tracer)
    metrics = summarize(tracer, traced_ns, passes)
    metrics.update(op_timings(tracer.samples))
    metrics["trace.overhead_ratio"] = traced_ns / passes / plain_ns
    details = {"traced_passes": passes, "spans": len(tracer.spans),
               "operand_samples": {k: len(v) for k, v in tracer.samples.items()}}
    return metrics, details, tracer.spans


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def freeze_digests() -> None:
    """Rewrite digests.json from one pass of every workload at seed 0.

    Only for outputs the current code is known to produce correctly: a
    digest freezes the bytes of every certificate and CSV."""
    from workloads import build, run_cli

    frozen = {}
    for name in WORKLOADS:
        workload = build(name, 0, WORK / f"{name}-freeze", {})
        frozen[name] = {}
        for job in workload.jobs:
            code, out = run_cli(job.argv)
            if code != 0:
                raise RuntimeError(f"{job.name} exited {code}: {out}")
            if job.output is not None:
                frozen[name][job.name] = hashlib.sha256(job.output.read_bytes()).hexdigest()
    DIGESTS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ietrel_importable():
        print(f"cannot import ietrel from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import build, run_cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    setup_s = None if args.trace else measure_setup()
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    workload = build(args.workload, args.seed, work, load_digests())
    loop = Loop(workload, run_cli)
    passes = max(1, math.ceil(args.seconds / workload.pass_s))
    details: dict = {}
    spans: list = []
    job_s: Dict[str, float] = {}
    if args.trace:
        metrics, details, spans = per_layer(loop, passes)
    else:
        latencies, _ = loop.run(passes)
        metrics, details = end_to_end(latencies, workload.jobs, setup_s)
        job_s = {j.name: min(xs) * 1e-9 for j, xs in zip(workload.jobs, latencies)}
        details["passes"] = passes
    failed = len(loop.failures)
    details["failed_ratio"] = failed / loop.attempted

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs_per_pass": len(workload.jobs),
        "attempted": loop.attempted,
        "failed": failed,
        "failures": loop.failures,
        "metrics": reported,
        "details": details,
        "job_s": job_s,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(results / f"{stem}-spans.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            fh.writelines(f"{n},{s},{e},{p},{j}\n" for n, s, e, p, j in spans)

    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    for name, m in reported.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for key, value in details.items():
        print(f"{args.workload} {key} = {value} {DETAIL_UNITS.get(key, '')}".rstrip())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
