"""Time the engine's layers over a ladder of problem sizes, in process.

    PYTHONPATH=src python tests/ladder.py [--out BENCH_<tag>.json]

Four ladders, one problem size per rung, all seeded with seed 1:

- ``symmetries``: the bench's ``planar.prob`` searched at degree = gauge
  degree 5, 7, 9 and 11, jet order 1, as ``noether symmetries`` runs it;
- ``verify``: the candidates of the bench's ``free_particle_3d.prob``,
  each with y'^p added to its eta_y for p = 2, 4, 6 and 8, fitted and
  each accepted one certified by its law, as ``noether verify`` runs
  them; y'^p is a symmetry whose gauge has degree p + 1, so the verdicts
  stay and the accepted gauges grow with p;
- ``verify_field``: the same for the candidates of the bundled
  ``quartic_field.prob``, whose gauges are solved as one linear system;
- ``numcheck``: the four bundled time-like problems at 10^4 and 10^5 RK4
  steps (the files' step, then a tenth of it, over the same horizon), each
  law checked from five seeded initial conditions.

The two bench files are written by ``bench/workloads.prepare`` into a
temporary directory; ``bench/`` is only read.  Each rung records its sizes
(unknowns, rows, nonzeros of the solver's rows, rank, nullity, steps; for
time-like verify, the terms of the residuals and of the gauges) and the
seconds spent in each layer, timed by wrapping the engine's own function
while the command's pipeline runs: ``_system``, ``nullspace`` and
``_law`` for a search; ``_antiderivative`` and ``_law`` for time-like
verify; ``_assemble``, ``solve_affine_many`` and ``_law`` for field
verify; ``check_integrals`` for numcheck.  Per ladder, each layer's slope
of log time against log size (unknowns, power p, or steps) is fitted
by least squares.  The record is printed as JSON; ``--out`` merges it
into that file's JSON object under ``"ladder"``.  Nothing is gated.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

from noether import Generator, engine, euler_lagrange, load_problem, parse
from noether.engine import Ansatz, find_gauges, solve_noether
from noether.linalg import nullspace
from noether.numeric import check_integrals, seeded_initial_conditions

ROOT = Path(__file__).resolve().parent.parent

SEED = 1
DEGREES = (5, 7, 9, 11)
GAUGE_DEGREES = (2, 4, 6, 8)
POWERS = (2, 4, 6, 8)
STEPS = (10 ** 4, 10 ** 5)
NUMCHECK = ("free_particle", "free_particle_2d", "harmonic_oscillator",
            "second_order_chain")


def prepare(workload: str, seed: int, workdir: Path) -> List:
    """The jobs of a full-size bench workload at ``seed``, their files
    written into ``workdir`` by ``bench/workloads.prepare``.  The bench's
    workload module is executed from its source, so nothing is written
    under ``bench/``."""
    source = ROOT / "bench" / "workloads.py"
    workloads = types.ModuleType("bench_workloads")
    # Its dataclasses look their module up while they are created.
    sys.modules[workloads.__name__] = workloads
    try:
        exec(compile(source.read_text(encoding="utf-8"), str(source),
                     "exec"), workloads.__dict__)
        return workloads.prepare(workload, seed, "full", workdir,
                                 workdir / "work")
    finally:
        del sys.modules[workloads.__name__]


def bench_files(workdir: Path) -> Dict[str, Path]:
    """The bench's seed-1 full-size ``planar.prob`` and
    ``free_particle_3d.prob``, written into ``workdir``."""
    return {job.name: workdir / job.path
            for workload in ("search", "verify")
            for job in prepare(workload, SEED, workdir)
            if job.name in ("planar", "free_particle_3d")}


@contextlib.contextmanager
def timed(names: Sequence[str]) -> Iterator[Dict]:
    """Wrap each named function of ``noether.engine`` to sum its seconds;
    yields ``{"times_s": {name: seconds}, "returns": {name: last return}}``."""
    seen: Dict = {"times_s": dict.fromkeys(names, 0.0), "returns": {}}
    originals = {name: getattr(engine, name) for name in names}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                seen["returns"][name] = out = fn(*args, **kwargs)
            finally:
                seen["times_s"][name] += time.perf_counter() - start
            return out
        return wrapper
    for name, fn in originals.items():
        setattr(engine, name, wrap(name, fn))
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(engine, name, fn)


def _sizes(rows, unknowns: int, nullity: int) -> Dict:
    return {"unknowns": unknowns, "rows": len(rows),
            "nnz": sum(map(len, rows)), "rank": unknowns - nullity,
            "nullity": nullity, "steps": None}


def symmetries_rung(path: Path, degree: int) -> Dict:
    """Search ``path`` at degree = gauge degree ``degree``, jet order 1."""
    L = load_problem(str(path)).lagrangian
    with timed(("_system", "nullspace", "_law")) as seen:
        laws = solve_noether(L, Ansatz(coeff_degree=degree,
                                       coeff_jet_order=1,
                                       gauge_degree=degree))
    rows, columns = seen["returns"]["_system"][:2]
    return {"degree": degree, "gauge_degree": degree, "jet_order": 1,
            **_sizes(rows, len(columns), len(seen["returns"]["nullspace"])),
            "laws": len(laws), "times_s": seen["times_s"]}


def verify_rung(path: Path, power: int) -> Dict:
    """Fit each candidate of the time-like ``path``, with y'^``power``
    added to its eta_y, integrating its residual, and certify each
    accepted one by its law.  The sizes are the terms of the residuals and
    of the gauges found."""
    problem = load_problem(str(path))
    L = problem.lagrangian
    y, extra = L.space.lookup("y"), parse(f"y'^{power}", L.space)
    candidates = [Generator(xi=g.xi, eta={**g.eta, y: g.eta_of(y) + extra})
                  for _, g in problem.candidates]
    with timed(("_antiderivative", "_law")) as seen:
        gauges = _fit(L, candidates)
    return {"power": power, "candidates": len(candidates),
            "accepted": sum(gauge is not None for gauge in gauges),
            "residual_terms": sum(len(engine.condition_residual(L, g))
                                  for g in candidates),
            "gauge_terms": sum(len(e) for gauge in gauges if gauge
                               for e in gauge),
            "times_s": seen["times_s"]}


def field_verify_rung(path: Path, gauge_degree: int) -> Dict:
    """Fit each candidate of the field problem ``path`` at
    ``gauge_degree`` through its one linear system, and certify each
    accepted one by its law.  Rank and nullity are those of the gauge
    columns, from an untimed ``nullspace``."""
    problem = load_problem(str(path))
    L = problem.lagrangian
    candidates = [g for _, g in problem.candidates]
    with timed(("_assemble", "solve_affine_many", "_law")) as seen:
        gauges = _fit(L, candidates, degree=gauge_degree,
                      jet_order=problem.ansatz.gauge_jet_order)
    rows, columns = seen["returns"]["_assemble"][:2]
    n = len(columns)
    nullity = len(nullspace([{c: v for c, v in row.items() if c < n}
                             for row in rows], n))
    return {"gauge_degree": gauge_degree,
            "gauge_jet_order": problem.ansatz.gauge_jet_order,
            **_sizes(rows, n, nullity), "candidates": len(candidates),
            "accepted": sum(gauge is not None for gauge in gauges),
            "times_s": seen["times_s"]}


def _fit(L, candidates, **caps) -> List:
    """``noether verify``'s gauge fit and law certificates; ``caps`` are
    the gauge degree and jet order of a field problem."""
    gauges = find_gauges(L, candidates, **caps)
    for g, gauge in zip(candidates, gauges):
        if gauge is not None:
            engine._law(L, g, gauge)
    return gauges


def numcheck_rung(steps: int) -> Dict:
    """Check every law of each ``NUMCHECK`` problem at its own ansatz over
    ``steps`` RK4 steps, the horizon kept, from five seeded starts."""
    runs = truncated = 0
    seconds = 0.0
    for name in NUMCHECK:
        problem = load_problem(str(ROOT / "problems" / f"{name}.prob"))
        L, cfg = problem.lagrangian, problem.numeric
        cfg = dataclasses.replace(cfg, step=cfg.horizon / steps, seed=SEED)
        laws = [s.law for s in solve_noether(L, problem.ansatz)]
        el = euler_lagrange(L)
        ics = seeded_initial_conditions(el, cfg.seed)
        start = time.perf_counter()
        reports = check_integrals(laws, el, cfg, ics)
        seconds += time.perf_counter() - start
        truncated += sum(r.truncated for r in reports)
        runs += len(reports)
    return {"unknowns": None, "rows": None, "nnz": None, "rank": None,
            "nullity": None, "steps": steps, "runs": runs,
            "truncated": truncated, "times_s": {"check_integrals": seconds}}


def slope(points: Sequence[Sequence[float]]) -> float | None:
    """Least-squares slope of log y against log x over the points with
    both positive; None with fewer than two distinct x."""
    logs = [(math.log(x), math.log(y)) for x, y in points if x > 0 < y]
    if len({x for x, _ in logs}) < 2:
        return None
    mx = sum(x for x, _ in logs) / len(logs)
    my = sum(y for _, y in logs) / len(logs)
    return (sum((x - mx) * (y - my) for x, y in logs)
            / sum((x - mx) ** 2 for x, _ in logs))


def _ladder(rungs: List[Dict], size: str) -> Dict:
    return {"size": size, "rungs": rungs,
            "slopes": {layer: slope([(r[size], r["times_s"][layer])
                                     for r in rungs])
                       for layer in rungs[0]["times_s"]}}


def run(workdir: Path, degrees: Sequence[int] = DEGREES,
        gauge_degrees: Sequence[int] = GAUGE_DEGREES,
        powers: Sequence[int] = POWERS,
        steps: Sequence[int] = STEPS) -> Dict:
    """The ladder record; the bench files are written into ``workdir``."""
    start = time.perf_counter()
    files = bench_files(workdir)
    ladders = {
        "symmetries": _ladder([symmetries_rung(files["planar"], d)
                               for d in degrees], "unknowns"),
        "verify": _ladder([verify_rung(files["free_particle_3d"], p)
                           for p in powers], "power"),
        "verify_field": _ladder([field_verify_rung(
            ROOT / "problems" / "quartic_field.prob", d)
            for d in gauge_degrees], "unknowns"),
        "numcheck": _ladder([numcheck_rung(n) for n in steps], "steps"),
    }
    return {"python": platform.python_version(), "host": platform.node(),
            "cpus": os.cpu_count(), "seed": SEED, "ladders": ladders,
            "seconds": time.perf_counter() - start}


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=None,
                   help="JSON record to merge the ladder into")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        record = run(Path(tmp))
    print(json.dumps(record, indent=2))
    if args.out is not None:
        merged = (json.loads(args.out.read_text(encoding="utf-8"))
                  if args.out.exists() else {})
        merged["ladder"] = record
        args.out.write_text(json.dumps(merged, indent=2) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
