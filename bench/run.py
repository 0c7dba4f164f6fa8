"""Benchmark of the coopres command line, end to end and layer by layer.

    python3 bench/run.py --workload grid-table2 --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 42          # every workload in turn
    python3 bench/run.py --smoke                           # tiny inputs, checks metric names

Closed loop with one client: each run of a ``coopres`` command starts in a
fresh interpreter after the previous run has finished, and uses at most the
command's own worker processes (two on ``grid-bots-2w``).  Every input file
is generated from ``--seed`` into a scratch directory inside the checkout.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(one per workload with ``--workload all``).  The exit code is 1 when any run
failed its checks.
See README.md in this directory for what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

import numpy as np

import inputs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5
# Traced runs are in-process: spans inside pool workers are out of scope.
TRACE_THREADS = 1
# Every run of this script ends well inside 180 s.
DEADLINE_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Job:
    """One workload made concrete for a seed: its command and what to expect."""

    argv: list[str]                      # coopres arguments; OUT stands for the output
    out_is_file: bool = False            # OUT is report.json itself, not its directory
    trace_files: int = 0                 # trace_*.jsonl files the run must write
    triggers: list[int] | None = None    # incident ticks `measure` must detect


def table2_job(work: Path, seed: int, tiny: bool) -> Job:
    return Job(["grid", "--preset", "table2", "--seed", str(seed), "--out", "OUT"])


def bots_job(work: Path, seed: int, tiny: bool) -> Job:
    return Job(["grid", "--preset", "bots", "--seed", str(seed), "--out", "OUT"])


def late_traces_job(work: Path, seed: int, tiny: bool) -> Job:
    ini = work / "late.ini"
    episodes = inputs.write_late_scenario(ini, seed, tiny)
    return Job(["run", "--config", str(ini), "--traces", "--out", "OUT"],
               trace_files=2 * episodes)


def measure_long_job(work: Path, seed: int, tiny: bool) -> Job:
    triggers = inputs.write_long_curves(work, seed, tiny)
    return Job(["measure", "--performance", str(work / "performance.csv"),
                "--reference", str(work / "reference.csv"), "--out", "OUT"],
               out_is_file=True, triggers=triggers)


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[[Path, int, bool], Job]   # (scratch dir, seed, tiny) -> Job
    threads: int            # COOPRES_THREADS of the measured runs
    tiny: bool              # has a tiny-input form for the smoke mode


# Why each workload exists, and which later change it should or should not
# show; README.md gives the metric -> layer -> workload mapping.
WORKLOADS = {w.name: w for w in (
    # 90 episodes (135,000 ticks) stepped in Python on one worker.  Inner-loop
    # changes (build_view, policy_action, step_world) and shared references
    # (40 of 90 episodes are duplicate references) show here.  Six of nine
    # cells trigger at tick 50, so fork-at-first-trigger mostly does not.
    Workload("grid-table2", table2_job, threads=1, tiny=False),
    # The only workload through the process pool and the unsustainable_bot
    # policy.  Three cells on two workers leave one idle for a third of the
    # run, so episode-level scheduling shows here and not on grid-table2.
    Workload("grid-bots-2w", bots_job, threads=2, tiny=False),
    # run --traces with late events: 60% of every performance episode precedes
    # the first trigger, and 10 of its 20 episodes are re-simulated only to
    # dump traces.  Fork-at-trigger and trace reuse show most here.
    Workload("run-late-traces", late_traces_job, threads=1, tiny=True),
    # measure on a 10^6-tick curve pair with detected triggers: no simulation.
    # Only metric and CSV-reader changes may move it; every simulator change
    # must leave it unchanged.
    Workload("measure-long", measure_long_job, threads=1, tiny=True),
)}


# ---------------------------------------------------------------------------
# Running one command in a fresh interpreter

@dataclass
class Run:
    setup_s: float | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    command_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stdout: str = ""
    stderr: str = ""
    out: Path | None = None
    spans: Path | None = None
    error: str | None = None
    digest: str | None = None


@dataclass
class Bench:
    work: Path
    deadline: float
    spawned: int = 0

    def spawn(self, args: list[str], threads: int) -> Run:
        """Start child.py, wait for it, and collect timings and resource use."""
        self.spawned += 1
        tag = f"{self.spawned:03d}"
        result = self.work / f"child-{tag}.json"
        env = dict(os.environ, COOPRES_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        timeout = max(1.0, self.deadline - monotonic())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(self.work / f"child-{tag}.out", "w+") as out, \
                open(self.work / f"child-{tag}.err", "w+") as err:
            spawned = monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(result), *args],
                                    cwd=self.work, env=env, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = None
            ended = monotonic()
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            out.seek(0)
            err.seek(0)
            run = Run(stdout=out.read(), stderr=err.read(), wall_s=ended - spawned,
                      cpu_s=(after.ru_utime - before.ru_utime)
                      + (after.ru_stime - before.ru_stime))
        if rc is None:
            run.error = f"killed after {timeout:.0f} s"
            return run
        try:
            data = json.loads(result.read_text())
        except (OSError, ValueError):
            run.error = f"exit code {rc}, no timing record"
            return run
        run.setup_s = data["imported"] - spawned
        run.wall_s = data.get("wall_s", run.wall_s)
        run.command_cpu_s = data.get("command_cpu_s", 0.0)
        run.peak_rss_mb = data["peak_rss_kib"] / 1024
        if rc != 0:
            run.error = f"exit code {rc}: {run.stderr.strip()[-300:]}"
        return run

    def run_command(self, job: Job, threads: int, trace: bool) -> Run:
        out_dir = self.work / f"out-{self.spawned + 1:03d}"
        out_dir.mkdir()
        out_arg = out_dir / "report.json" if job.out_is_file else out_dir
        argv = [str(out_arg) if a == "OUT" else a for a in job.argv]
        spans = self.work / f"spans-{self.spawned + 1:03d}"
        run = self.spawn((["--trace", str(spans)] if trace else []) + argv, threads)
        run.out = out_dir
        if trace and run.error is None:
            run.spans = spans
        if run.error is None:
            run.error, run.digest = check_output(job, out_dir, run.stdout)
        return run


# ---------------------------------------------------------------------------
# Output checks

def output_files(out_dir: Path) -> list[Path]:
    """Files whose bytes make up the digest: the report, then traces by name."""
    return [out_dir / "report.json"] + sorted(out_dir.glob("trace_*.jsonl"))


def digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


def j_values(report) -> list:
    """Every value under a ``J`` key, plus per-episode J, anywhere in a report."""
    found = []
    if isinstance(report, dict):
        for key, value in report.items():
            if key == "J":
                found.append(value)
            elif key == "per_episode_J":
                found.extend(v for v in value if v is not None)
            else:
                found.extend(j_values(value))
    elif isinstance(report, list):
        for item in report:
            found.extend(j_values(item))
    return found


def check_output(job: Job, out_dir: Path, stdout: str) -> tuple[str | None, str | None]:
    """Return (reason the run failed or None, output digest)."""
    files = output_files(out_dir)
    try:
        report = json.loads(files[0].read_text())
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}", None
    js = j_values(report)
    if not js or not all(isinstance(j, (int, float)) and 0.0 <= j <= 1.0 for j in js):
        return f"J outside [0, 1] or missing: {js[:5]}", None
    # The scores printed on stdout are the report's, in the same order.
    top = [cell["J"] for cell in report["cells"]] if "cells" in report else [report["J"]]
    printed = [line.split("J = ", 1)[1].split()[0] for line in stdout.splitlines()
               if "J = " in line]
    if printed != [f"{j:.6f}" for j in top]:
        return f"stdout scores {printed} differ from report {top}", None
    if len(files) - 1 != job.trace_files:
        return f"{len(files) - 1} trace files, expected {job.trace_files}", None
    if job.triggers is not None:
        found = [e["t_i"] for e in report["per_variable"]["value"]["events"]]
        if found != job.triggers:
            return f"detected triggers {found[:5]}... differ from planted ones", None
    return None, digest(files)


# ---------------------------------------------------------------------------
# Measuring


def out_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def context(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


@dataclass
class Outcome:
    """What one benchmark invocation on one workload measured."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    runs: list[Run] = field(default_factory=list)
    digest: str | None = None

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.runs)


def check_digests(runs: list[Run]) -> str | None:
    """Mark runs whose output differs from the workload's first run; return it."""
    first = next((r.digest for r in runs if r.digest is not None), None)
    for run in runs:
        if run.error is None and run.digest != first:
            run.error = f"output digest {run.digest[:12]} differs from first {first[:12]}"
    return first


def loop(seconds: float, once) -> list:
    """Call ``once`` until the next call would end after ``seconds``; at least once."""
    started = monotonic()
    results, took = [], []
    while True:
        t = monotonic()
        results.append(once())
        took.append(monotonic() - t)
        if monotonic() - started + statistics.median(took) > seconds:
            return results


def measure_end_to_end(bench: Bench, workload: Workload, job: Job, seconds: float) -> Outcome:
    setup = []
    for _ in range(SETUP_PROBES):
        probe = bench.spawn([], workload.threads)
        if probe.error is not None or probe.setup_s is None:
            raise RuntimeError(f"set-up probe failed: {probe.error}\n{probe.stderr}")
        setup.append(probe.setup_s)
    runs = loop(seconds, lambda: bench.run_command(job, workload.threads, trace=False))
    outcome = Outcome(runs=runs, digest=check_digests(runs))
    good = [r for r in runs if r.error is None] or runs
    setup += [r.setup_s for r in runs if r.setup_s is not None]
    samples = {
        "setup_s": (setup, "s"),
        "wall_s": ([r.wall_s for r in good], "s"),
        "cpu_s": ([r.cpu_s for r in good], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in good], "MB"),
    }
    for name, (values, unit) in samples.items():
        outcome.metrics[name] = (statistics.median(values), unit)
        outcome.counts[name] = len(values)
    return outcome


def measure_layers(bench: Bench, workload: Workload, job: Job, seconds: float) -> Outcome:
    """Untraced and traced runs in turn; per-layer metrics are their medians."""

    def cycle():
        plain = [bench.run_command(job, workload.threads, trace=False)]
        if workload.threads != TRACE_THREADS:
            plain.append(bench.run_command(job, TRACE_THREADS, trace=False))
        return plain, bench.run_command(job, TRACE_THREADS, trace=True)

    cycles = loop(seconds, cycle)
    runs = [r for plain, traced in cycles for r in (*plain, traced)]
    outcome = Outcome(runs=runs, digest=check_digests(runs))
    if outcome.failed:
        return outcome
    per_run = []
    for plain, traced in cycles:
        spans, meta = tracer.load(traced.spans)
        if meta["unwrapped"]:
            # A traced function was renamed or moved: its metric would read 0.
            traced.error = f"tracer left unwrapped: {', '.join(meta['unwrapped'])}"
            continue
        meta["out_bytes"] = out_bytes(traced.out)
        metrics = tracer.layer_metrics(spans, meta)
        metrics["harness.pool_utilization"] = (
            plain[0].command_cpu_s / (workload.threads * plain[0].wall_s), "ratio")
        metrics["trace.overhead_ratio"] = (traced.wall_s / plain[-1].wall_s, "ratio")
        per_run.append((traced, metrics))
    if outcome.failed:
        return outcome
    first = per_run[0][1]
    for traced, metrics in per_run[1:]:
        differ = [name for name, (value, _) in metrics.items()
                  if isinstance(value, int) and value != first[name][0]]
        if differ:
            traced.error = f"counts differ from the first traced run: {', '.join(differ)}"
    for name, (value, unit) in first.items():
        values = [m[name][0] for _, m in per_run]
        outcome.metrics[name] = (value if isinstance(value, int)
                                 else statistics.median(values), unit)
        outcome.counts[name] = len(per_run)
    return outcome


# ---------------------------------------------------------------------------
# Reporting

def report(workload: Workload, seed: int, trace: bool, outcome: Outcome) -> dict:
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"runs {len(outcome.runs)}  digest {outcome.digest}")
    for run in outcome.runs:
        if run.error is not None:
            print(f"  failed run: {run.error}")
    for name, (value, unit) in outcome.metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<40} {shown} {unit:<6} n={outcome.counts[name]}")
    attempted = len(outcome.runs)
    print(f"  {'error_rate':<40} {outcome.failed / attempted:>14.6g} ratio  "
          f"n={attempted} ({outcome.failed} failed)")
    return {"correct": outcome.failed == 0, "attempted": attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in outcome.metrics.items()}}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(work=work, deadline=monotonic() + DEADLINE_S)
        job = workload.job(work, seed, tiny)
        measure = measure_layers if trace else measure_end_to_end
        return report(workload, seed, trace, measure(bench, workload, job, seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Tiny inputs, one run each: every metric name of BENCHMARK.json is printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = []
    for workload in WORKLOADS.values():
        if not workload.tiny:
            continue
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(workload, 1, 0.0, trace, tiny=True)
            print(json.dumps(result))
            expected = {m["name"] for m in spec[key]}
            if not result["correct"] or set(result["metrics"]) != expected:
                missing.append((workload.name, key,
                                sorted(expected ^ set(result["metrics"]))))
    for name, key, diff in missing:
        print(f"smoke: {name} {key}: failed or names differ: {diff}", file=sys.stderr)
    return 1 if missing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coopres" / "cli.py").is_file():
        print(f"error: no coopres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print("context " + json.dumps({**context(args.seed), "seconds": args.seconds,
                                   "trace": args.trace}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
