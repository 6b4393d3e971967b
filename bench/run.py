#!/usr/bin/env python3
"""Benchmark of the noether pipeline, end to end and layer by layer.

    python3 bench/run.py --workload {search,verify,numcheck} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

With ``--trace 0`` every job is a fresh ``python -m noether.cli ... --json
--deterministic`` subprocess, run one after another (a closed loop with one
client), and passes over the workload's jobs repeat for ``--seconds``.  It
reports the end-to-end metrics, scaled to a nominal host speed by bare
interpreter starts timed around every job (see REFERENCE_NOMINAL_S).  With
``--trace 1`` the same jobs run in process with a span around each call into
a layer (see tracing.py), and it reports the per-layer metrics and size
counters.  Every job's output is
checked either way (see check.py).  The last line printed is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from check import check_output, load_golden, parse_output
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, Job, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "problem.load_s": "s", "variational.euler_lagrange_s": "s",
    "engine.determining_system_s": "s", "engine.condition_residual_s": "s",
    "engine.solve_s": "s", "engine.materialize_s": "s",
    "engine.find_gauge_s": "s", "engine.verify_s": "s",
    "expr.mul_us": "us", "expr.partial_us": "us", "expr.substitute_us": "us",
    "jets.total_derivative_us": "us", "numeric.integrate_el_s": "s",
    "numeric.step_us": "us", "numeric.drift_report_s": "s",
    "cli.run_file_s": "s", "trace.overhead_ratio": "ratio",
    "engine.unknowns": "count", "engine.rows": "count",
    "engine.nnz": "count", "engine.rank": "count",
    "engine.nullity": "count", "engine.kept": "count",
    "engine.kept_ratio": "ratio", "engine.candidates": "count",
    "engine.rejected": "count", "engine.law_terms": "count",
    "engine.max_coeff_bits": "bits", "numeric.rk4_steps": "count",
    "numeric.truncated": "count", "numeric.max_drift": "ratio",
}
# Timed interpreter start-ups before the first pass; one more precedes each.
SETUP_PROBES = {"full": 5, "tiny": 2}
JOB_TIMEOUT_S = 150
# Host-speed reference: a bare interpreter start with no site module and no
# PYTHONPATH, so nothing of noether runs in it.  On a shared host the speed
# of process start-up and of the jobs drifts by 10-30% from one minute to
# the next, alike for both.  Each timed subprocess is bracketed by
# REFERENCE_STARTS such starts before and after it, and its time is divided
# by their median and multiplied by REFERENCE_NOMINAL_S, about the median
# bare start on the 2-vCPU x86_64 host the benchmark was tuned on, so times
# read as seconds at that host's speed.
REFERENCE_STARTS = 2
REFERENCE_NOMINAL_S = 0.012


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(args: List[str], env: Dict[str, str]
            ) -> Tuple[int, str, float, float]:
    """One ``noether`` subprocess: (exit code, stdout, wall s, cpu s).

    The exit code is -1 when the child overran JOB_TIMEOUT_S and was killed.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "noether.cli", *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, ""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ((after.ru_utime + after.ru_stime)
           - (before.ru_utime + before.ru_stime))
    return code, out, wall, cpu


def reference_starts() -> List[float]:
    """Wall times of REFERENCE_STARTS bare interpreter starts.

    No timeout: with one, ``subprocess`` polls for the child's exit with
    growing sleeps, which rounds a 12 ms start up to the next poll.
    """
    walls = []
    for _ in range(REFERENCE_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"],
                       check=True)
        walls.append(time.perf_counter() - start)
    return walls


def referenced_cli(args: List[str], env: Dict[str, str]
                   ) -> Tuple[int, str, float, float, float]:
    """run_cli bracketed by reference starts: (exit code, stdout, wall s,
    cpu s, median reference start s)."""
    refs = reference_starts()
    code, out, wall, cpu = run_cli(args, env)
    refs += reference_starts()
    return code, out, wall, cpu, statistics.median(refs)


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced_run(workload: str, jobs: List[Job], goldens: Dict,
                 seconds: float, setup_probes: int
                 ) -> Tuple[int, int, Dict[str, float]]:
    """Closed loop of CLI subprocesses; returns (attempted, failed,
    end-to-end metrics)."""
    env = child_env()
    setup: List[float] = []     # in reference starts
    refs: List[float] = []      # seconds, for the log only

    def probe_setup() -> None:
        code, _, wall, _, ref = referenced_cli(["--help"], env)
        if code != 0:
            raise RuntimeError("noether --help failed")
        setup.append(wall / ref)
        refs.append(ref)

    # The first start-up may compile bytecode; it is not timed.  Later
    # probes are spread over the run, one before each pass.
    run_cli(["--help"], env)
    reference_starts()
    for _ in range(setup_probes):
        probe_setup()
    # Per job and pass, wall and CPU time in reference starts.
    job_walls: Dict[str, List[float]] = {job.name: [] for job in jobs}
    job_cpus: Dict[str, List[float]] = {job.name: [] for job in jobs}
    raw_passes: List[float] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not raw_passes or time.perf_counter() < deadline:
        probe_setup()
        pass_wall = 0.0
        for job in jobs:
            code, out, wall, cpu, ref = referenced_cli(job.argv(), env)
            pass_wall += wall
            job_walls[job.name].append(wall / ref)
            job_cpus[job.name].append(cpu / ref)
            refs.append(ref)
            attempted += 1
            try:
                problems = check_output(job, code, parse_output(out),
                                        goldens[job.name])
            except ValueError:
                problems = [f"exit code {code}, output is not a JSON object"]
            if problems:
                failed += 1
                print(f"FAILED {workload}/{job.name}: " + "; ".join(problems))
        raw_passes.append(pass_wall)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    for name, values in job_walls.items():
        print(f"  job {name:<20} median "
              f"{statistics.median(values) * REFERENCE_NOMINAL_S:.4f} s")
    q1, q3 = _quartiles(raw_passes)
    print(f"  {len(raw_passes)} passes of {len(jobs)} jobs; unscaled pass "
          f"wall median {statistics.median(raw_passes):.4f} s, quartiles "
          f"{q1:.4f}..{q3:.4f} s; {len(setup)} set-up probes; reference "
          f"start median {statistics.median(refs):.5f} s")
    return attempted, failed, {
        "wall_s": REFERENCE_NOMINAL_S * sum(
            statistics.median(v) for v in job_walls.values()),
        "cpu_s": REFERENCE_NOMINAL_S * sum(
            statistics.median(v) for v in job_cpus.values()),
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def main(argv: List[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long to repeat passes over the jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'tiny' shrinks every case for smoke tests")
    args = p.parse_args(argv)

    if not (SRC / "noether" / "cli.py").is_file() \
            or not (ROOT / "problems").is_dir():
        print(f"error: no noether sources under {ROOT}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{args.size}"
    jobs = prepare(args.workload, args.seed, args.size, ROOT, workdir)
    try:
        goldens = {job.name: load_golden(args.workload, job, args.seed,
                                         args.size) for job in jobs}
    except OSError as err:
        print(f"error: cannot read golden output: {err}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}")
    if args.trace:
        sys.path.insert(0, str(SRC))
        from tracing import traced_run
        attempted, failed, consistent, values = traced_run(
            args.workload, jobs, goldens, args.seed, args.seconds,
            workdir / "trace.json")
        if not consistent:
            print("FAILED: size counters differ between passes")
        units = PER_LAYER_UNITS
    else:
        attempted, failed, values = untraced_run(
            args.workload, jobs, goldens, args.seconds,
            SETUP_PROBES[args.size])
        consistent = True
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<30} {values[name]:.6g} {unit}")
    print(f"  {'failed_ratio':<30} {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
