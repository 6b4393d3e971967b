"""Traced in-process run: per-layer times and size counters.

Each job is done three ways in one pass:

1. ``cli.run_file``, timed as one span: the command with no interpreter
   start.  Its result goes through the same output check as the CLI run.
2. The same command rebuilt from calls into ``noether``'s public functions,
   under a ``job`` span, with one span around each call.  Its solutions and
   verdicts must equal those of ``cli.run_file``.
3. Probes on the same problem, outside the ``job`` span, for the layers the
   command does not call on its own: the determining system in stages
   (so that ``materialize`` can be derived), gauge search and law
   verification, a short RK4 run, and ``Expr``/``total_derivative`` calls on
   the job's own laws and Euler-Lagrange forms.  Every layer therefore has a
   measured time on every workload.

Spans are kept in memory as [name, start_ns, end_ns, parent] and written to
``trace.json`` when the run ends; self time is a span's duration minus the
time covered by its children.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from noether import (Generator, NumericConfig, condition_residual,
                     conservation_vector, determining_system, drift_report,
                     euler_lagrange, find_gauge, first_integral,
                     integrate_el, load_problem, seeded_initial_conditions,
                     solve, solve_noether, total_derivative, verify)
from noether import cli

from check import check_output, subset_mismatch
from workloads import Job

PROBE_STEPS = 200  # RK4 steps of the numeric probe on non-numcheck jobs

COUNTERS = ("engine.unknowns", "engine.rows", "engine.nnz", "engine.rank",
            "engine.nullity", "engine.kept", "engine.candidates",
            "engine.rejected", "engine.law_terms", "engine.max_coeff_bits",
            "numeric.rk4_steps", "numeric.truncated")


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans: List[list] = []
        self._open = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, 0, 0, self._open[-1]]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def totals(self, begin: int, end: int) -> Dict[str, List[int]]:
        """name -> [calls, total ns, self ns] over spans[begin:end]."""
        child_ns = [0] * (end - begin)
        for name, start, stop, parent in self.spans[begin:end]:
            if parent >= begin:
                child_ns[parent - begin] += stop - start
        out: Dict[str, List[int]] = {}
        for k, (name, start, stop, _) in enumerate(self.spans[begin:end]):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += stop - start
            entry[2] += stop - start - child_ns[k]
        return out


@dataclasses.dataclass
class _JobState:
    """What the probes need from the rebuilt command."""

    problem: object
    el: object
    ansatz: object
    solutions: Optional[list]
    laws: list
    view: Dict


def _ansatz(problem, args):
    """The ansatz the CLI uses, for the --degree/--jet-order flags."""
    updates = {}
    if args.degree is not None:
        updates["coeff_degree"] = args.degree
    if args.jet_order is not None:
        updates["coeff_jet_order"] = args.jet_order
    return dataclasses.replace(problem.ansatz, **updates)


def _numeric(problem, args) -> NumericConfig:
    """The numeric settings the CLI uses, for --step/--horizon/--tol/--seed."""
    updates = {key: value for key, value in (
        ("step", args.step), ("horizon", args.horizon),
        ("tolerance", args.tol), ("seed", args.seed)) if value is not None}
    return dataclasses.replace(problem.numeric, **updates)


def _strs(exprs) -> List[str]:
    return [str(e) for e in exprs]


def _law(L, g, gauge):
    if L.space.is_ode:
        return first_integral(L, g, gauge[0])
    return conservation_vector(L, g, gauge)


def _run_command(tr: Tracer, job: Job, args, counts: Dict) -> _JobState:
    """The job's command, rebuilt from public calls."""
    problem = tr.call("problem.load", load_problem, job.path)
    space, L = problem.space, problem.lagrangian
    el = tr.call("variational.euler_lagrange", euler_lagrange, L)
    ansatz = _ansatz(problem, args)
    solutions = None
    view: Dict = {}
    if job.command == "integrals":
        solutions = tr.call("engine.solve_noether", solve_noether, L, ansatz)
        laws = [s.law for s in solutions]
        view["solutions"] = [
            {"xi": {x.name: str(s.generator.xi_of(x))
                    for x in space.independents},
             "eta": {u.name: str(s.generator.eta_of(u))
                     for u in space.dependents},
             "gauge": _strs(s.gauge), "law": _strs(s.law.components)}
            for s in solutions]
    elif job.command == "verify":
        laws, checked, laws_checked = [], [], []
        for name, g in problem.candidates:
            gauge = tr.call("engine.find_gauge", find_gauge, L, g,
                            degree=ansatz.gauge_degree,
                            jet_order=ansatz.gauge_jet_order)
            counts["engine.candidates"] += 1
            entry = {"name": name, "admits_gauge": gauge is not None}
            if gauge is None:
                counts["engine.rejected"] += 1
            else:
                law = tr.call("engine.law", _law, L, g, gauge)
                report = tr.call("engine.verify", verify, law, el, space)
                laws.append(law)
                entry.update(gauge=_strs(gauge), law=_strs(law.components),
                             verified=bool(report.ok))
            checked.append(entry)
        for name, law in problem.candidate_laws:
            report = tr.call("engine.verify", verify, law, el, space)
            laws.append(law)
            laws_checked.append({"name": name, "verified": report.ok})
        view["generators_checked"] = checked
        if laws_checked:
            view["laws_checked"] = laws_checked
    else:
        cfg = _numeric(problem, args)
        solutions = tr.call("engine.solve_noether", solve_noether, L, ansatz)
        laws = [s.law for s in solutions]
        runs = []
        for ic in seeded_initial_conditions(el, cfg.seed):
            traj = tr.call("numeric.integrate_el", integrate_el, el, cfg, ic)
            report = tr.call("numeric.drift_report", drift_report, laws,
                             traj, cfg)
            _count_numeric(counts, traj, report)
            runs.append({"passes": report.passes,
                         "truncated": traj.truncated})
        view["numeric"] = {"laws": [str(law.components[0]) for law in laws],
                           "runs": runs}
    return _JobState(problem, el, ansatz, solutions, laws, view)


def _count_numeric(counts: Dict, traj, report) -> None:
    counts["numeric.rk4_steps"] += len(traj.samples) - 1
    counts["numeric.truncated"] += int(traj.truncated)
    counts["numeric.max_drift"] = max(counts["numeric.max_drift"],
                                      max(report.drifts, default=0.0))


def _count_laws(counts: Dict, laws) -> None:
    for law in laws:
        for c in law.components:
            counts["engine.law_terms"] += len(c)
            for coeff in c.term_map().values():
                bits = max(coeff.numerator.bit_length(),
                           coeff.denominator.bit_length())
                counts["engine.max_coeff_bits"] = max(
                    counts["engine.max_coeff_bits"], bits)


def _probe(tr: Tracer, job: Job, st: _JobState, seed: int,
           counts: Dict) -> List[str]:
    """Layers the command does not call, on the same problem."""
    problems = []
    space, L, el, ansatz = (st.problem.space, st.problem.lagrangian, st.el,
                            st.ansatz)
    ds = tr.call("engine.determining_system", determining_system, L, ansatz)
    templates = Generator(xi=dict(ds.xi_templates), eta=dict(ds.eta_templates))
    tr.call("engine.condition_residual", condition_residual, L, templates,
            ds.gauge_templates)
    basis = tr.call("engine.solve", solve, ds)
    solutions = st.solutions
    if solutions is None:
        solutions = tr.call("engine.solve_noether", solve_noether, L, ansatz)
    counts["engine.unknowns"] += len(ds.unknowns)
    counts["engine.rows"] += len(ds.rows)
    counts["engine.nnz"] += sum(len(row) for row in ds.rows)
    counts["engine.nullity"] += len(basis)
    counts["engine.rank"] += len(ds.unknowns) - len(basis)
    counts["engine.kept"] += len(solutions)

    if job.command != "verify" and solutions:
        gauge = tr.call("engine.find_gauge", find_gauge, L,
                        solutions[0].generator, degree=ansatz.gauge_degree,
                        jet_order=ansatz.resolved_gauge_jet_order(L))
        counts["engine.candidates"] += 1
        if gauge is None:
            counts["engine.rejected"] += 1
            problems.append("gauge search rejected a found symmetry")
        for s in solutions:
            if tr.call("engine.verify", verify, s.law, el, space).ok is False:
                problems.append("a found law fails verification")

    if job.command != "numcheck" and space.is_ode and el.reducible:
        base = st.problem.numeric
        cfg = dataclasses.replace(base, horizon=PROBE_STEPS * base.step)
        ic = seeded_initial_conditions(el, seed)[0]
        traj = tr.call("numeric.integrate_el", integrate_el, el, cfg, ic)
        report = tr.call("numeric.drift_report", drift_report, st.laws, traj,
                         cfg)
        _count_numeric(counts, traj, report)

    for law in st.laws:
        for c in law.components:
            for eq in el.equations:
                tr.call("expr.mul", c.__mul__, eq)
            for v in sorted(c.variables(), key=lambda v: v.sort_index):
                tr.call("expr.partial", c.partial, v)
            for x in space.independents:
                d = tr.call("jets.total_derivative", total_derivative, c, x,
                            space)
                if el.reducible:
                    tr.call("expr.substitute", d.substitute, el.solved_forms)
    return problems


def _pass_metrics(totals: Dict[str, List[int]],
                  counts: Dict) -> Dict[str, float]:
    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e9

    def mean_us(name: str) -> float:
        calls, _, self_ns = totals.get(name, [0, 0, 0])
        return self_ns / calls / 1e3 if calls else 0.0

    steps = counts["numeric.rk4_steps"]
    return {
        "problem.load_s": self_s("problem.load"),
        "variational.euler_lagrange_s": self_s("variational.euler_lagrange"),
        "engine.determining_system_s": self_s("engine.determining_system"),
        "engine.condition_residual_s": self_s("engine.condition_residual"),
        "engine.solve_s": self_s("engine.solve"),
        "engine.materialize_s": (self_s("engine.solve_noether")
                                 - self_s("engine.determining_system")
                                 - self_s("engine.solve")),
        "engine.find_gauge_s": self_s("engine.find_gauge"),
        "engine.verify_s": self_s("engine.verify"),
        "expr.mul_us": mean_us("expr.mul"),
        "expr.partial_us": mean_us("expr.partial"),
        "expr.substitute_us": mean_us("expr.substitute"),
        "jets.total_derivative_us": mean_us("jets.total_derivative"),
        "numeric.integrate_el_s": self_s("numeric.integrate_el"),
        "numeric.step_us": (self_s("numeric.integrate_el") / steps * 1e6
                            if steps else 0.0),
        "numeric.drift_report_s": self_s("numeric.drift_report"),
        "cli.run_file_s": self_s("cli.run_file"),
        "trace.overhead_ratio": (totals.get("job", [0, 0])[1]
                                 / totals.get("cli.run_file", [0, 1])[1]),
    }


def _trace_job(tr: Tracer, args, job: Job, golden: Optional[Dict], seed: int,
               counts: Dict) -> List[str]:
    """One job done the three ways; returns the problems found."""
    code, _, result = tr.call("cli.run_file", cli.run_file, job.command,
                              job.path, args)
    result = json.loads(json.dumps(result))
    st = tr.call("job", _run_command, tr, job, args, counts)
    problems = check_output(job, code, result, golden)
    mismatch = subset_mismatch(st.view, result)
    if mismatch:
        problems.append(f"traced run differs from cli at {mismatch}")
    _count_laws(counts, st.laws)
    return problems + _probe(tr, job, st, seed, counts)


def traced_run(workload: str, jobs: List[Job], goldens: Dict, seed: int,
               seconds: float, trace_path: Path
               ) -> Tuple[int, int, bool, Dict[str, float]]:
    """Repeat traced passes for ``seconds``; returns (attempted, failed,
    counters consistent, per-layer metrics as medians over passes)."""
    tr = Tracer()
    parser = cli.build_parser()
    passes: List[Tuple[int, int]] = []
    per_pass: List[Dict[str, float]] = []
    pass_counts: List[Dict] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        begin = len(tr.spans)
        counts: Dict = dict.fromkeys(COUNTERS, 0)
        counts["numeric.max_drift"] = 0.0
        for job in jobs:
            attempted += 1
            try:
                problems = _trace_job(tr, parser.parse_args(job.argv()), job,
                                      goldens[job.name], seed, counts)
            except Exception:  # a crash fails the job, not the whole run
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"FAILED (traced) {workload}/{job.name}: "
                      + "; ".join(problems))
        passes.append((begin, len(tr.spans)))
        pass_counts.append(counts)
        per_pass.append(_pass_metrics(tr.totals(begin, len(tr.spans)),
                                      counts))

    consistent = all(c == pass_counts[0] for c in pass_counts)
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    counts = pass_counts[0]
    metrics.update({name: counts[name] for name in COUNTERS})
    metrics["numeric.max_drift"] = counts["numeric.max_drift"]
    metrics["engine.kept_ratio"] = (counts["engine.kept"]
                                    / counts["engine.nullity"])
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "passes": passes,
        "counters": pass_counts, "spans": tr.spans}), encoding="utf-8")
    return attempted, failed, consistent, metrics
