"""Command-line interface.

    noether <command> <file>... [flags]

Commands
    symmetries   solve the determining equations; print the basis
    integrals    symmetries plus the conservation law of each basis element
    verify       check the file's candidate generators and laws
    numcheck     integrate the dynamics and measure drift of each integral

Flags override the problem file's [ansatz] and [numeric] sections.  With
``--json`` the full structured result is emitted: one object for one file,
an array of objects for several.  Each object carries a ``timestamp``
unless ``--deterministic`` is given, so identical inputs give byte-identical
output.
Exit status: 0 all checks passed, 1 a verification or drift check failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from .engine import (Ansatz, NoetherSolution, UnsupportedProblem, _solution,
                     find_gauges, solve_noether, verify)
from .jets import Generator, HeadroomError
from .numeric import (NumericConfig, drift_report, integrate_el,
                      seeded_initial_conditions)
from .parsing import ParseError
from .problem import Problem, ProblemError, load_problem
from .variational import ELSystem, euler_lagrange

COMMANDS = ("symmetries", "integrals", "verify", "numcheck")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noether",
        description="Noether symmetries, gauge functions and conservation "
                    "laws of polynomial Lagrangians.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("files", nargs="+", metavar="file",
                   help="problem file(s); see the README for the format")
    p.add_argument("--degree", type=int, default=None,
                   help="max polynomial degree of generator coefficients")
    p.add_argument("--jet-order", type=int, default=None,
                   help="max derivative order in generator coefficients "
                        "(0 = point symmetries)")
    p.add_argument("--no-gauge", action="store_true",
                   help="search without a gauge term")
    p.add_argument("--evolutionary", action="store_true",
                   help="search in evolutionary form (independent-variable "
                        "coefficients suppressed)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the structured result as JSON")
    p.add_argument("--deterministic", action="store_true",
                   help="omit the timestamp for byte-identical reruns")
    p.add_argument("--jobs", type=int, default=1,
                   help="process this many files concurrently")
    p.add_argument("--step", type=float, default=None, help="integration step")
    p.add_argument("--horizon", type=float, default=None,
                   help="integration horizon")
    p.add_argument("--tol", type=float, default=None,
                   help="relative drift tolerance")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for random initial conditions")
    return p


def _effective_ansatz(problem: Problem, args) -> Ansatz:
    a = problem.ansatz
    updates = {}
    if args.degree is not None:
        updates["coeff_degree"] = args.degree
    if args.jet_order is not None:
        updates["coeff_jet_order"] = args.jet_order
    if args.no_gauge:
        updates["include_gauge"] = False
    if args.evolutionary:
        updates["suppress_xi"] = True
        if a.coeff_jet_order == 0 and args.jet_order is None:
            updates["coeff_jet_order"] = problem.lagrangian.order
    return dataclasses.replace(a, **updates) if updates else a


def _effective_numeric(problem: Problem, args) -> NumericConfig:
    cfg = problem.numeric
    updates = {}
    if args.step is not None:
        updates["step"] = args.step
    if args.horizon is not None:
        updates["horizon"] = args.horizon
    if args.tol is not None:
        updates["tolerance"] = args.tol
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _generator_json(problem: Problem, g: Generator) -> Dict:
    return {
        "xi": {x.name: str(g.xi_of(x)) for x in problem.space.independents},
        "eta": {u.name: str(g.eta_of(u)) for u in problem.space.dependents},
    }


def _solution_json(problem: Problem, sol: NoetherSolution) -> Dict:
    out = _generator_json(problem, sol.generator)
    out["gauge"] = [str(c) for c in sol.gauge]
    out["law"] = [str(c) for c in sol.law.components]
    return out


def _generator_text(problem: Problem, g: Generator) -> str:
    bits = []
    for x in problem.space.independents:
        e = g.xi_of(x)
        if not e.is_zero:
            bits.append(f"xi_{x.name} = {e}")
    for u in problem.space.dependents:
        e = g.eta_of(u)
        if not e.is_zero:
            bits.append(f"eta_{u.name} = {e}")
    return " ; ".join(bits) if bits else "0"


def _el_strings(el: ELSystem) -> List[str]:
    if el.reducible:
        return [f"{h.name} = {e}" for h, e in el.solved_forms.items()]
    return [f"{e} = 0" for e in el.equations]


def run_file(command: str, path: str, args) -> Tuple[int, str, Dict]:
    """Process one problem file; returns (exit_code, text, json_object)."""
    lines: List[str] = []
    result: Dict = {"file": path, "command": command}
    try:
        problem = load_problem(path)
    except (ProblemError, ParseError) as err:
        result["error"] = str(err)
        return EXIT_BAD_INPUT, f"{path}: error: {err}", result

    result["problem"] = problem.echo()
    L = problem.lagrangian
    el = euler_lagrange(L)
    result["euler_lagrange"] = _el_strings(el)
    lines.append(f"problem: {path}")
    lines.append(f"lagrangian: {L.body}   (order {L.order}; "
                 f"independents {', '.join(v.name for v in problem.space.independents)}; "
                 f"dependents {', '.join(v.name for v in problem.space.dependents)})")
    lines.append("euler-lagrange: " + " ; ".join(_el_strings(el)))

    status = EXIT_OK
    try:
        if command in ("symmetries", "integrals"):
            status = _run_solve(problem, el, command, args, lines, result)
        elif command == "verify":
            status = _run_verify(problem, el, args, lines, result)
        else:
            status = _run_numcheck(problem, el, args, lines, result)
    except (ValueError, HeadroomError) as err:
        result["error"] = str(err)
        return EXIT_BAD_INPUT, f"{path}: error: {err}", result
    result["status"] = "ok" if status == EXIT_OK else "failed"
    return status, "\n".join(lines), result


def _run_solve(problem: Problem, el: ELSystem, command: str, args,
               lines: List[str], result: Dict) -> int:
    ansatz = _effective_ansatz(problem, args)
    solutions = solve_noether(problem.lagrangian, ansatz)
    result["ansatz"] = dataclasses.asdict(ansatz)
    result["solutions"] = [_solution_json(problem, s) for s in solutions]
    gauge_note = "on" if ansatz.include_gauge else "off"
    lines.append(f"symmetries found: {len(solutions)} "
                 f"(gauge {gauge_note}, degree {ansatz.coeff_degree}, "
                 f"jet order {ansatz.coeff_jet_order})")
    for k, sol in enumerate(solutions, 1):
        lines.append(f"  [{k}] {_generator_text(problem, sol.generator)}")
        if ansatz.include_gauge:
            gauge = ", ".join(str(c) for c in sol.gauge)
            lines.append(f"      gauge: {gauge}")
        if command == "integrals":
            law = ", ".join(str(c) for c in sol.law.components)
            label = "I" if problem.space.is_ode else "flux"
            lines.append(f"      {label} = {law}")
    return EXIT_OK


def _run_verify(problem: Problem, el: ELSystem, args,
                lines: List[str], result: Dict) -> int:
    if not problem.candidates and not problem.candidate_laws:
        raise ProblemError("verify mode needs a [generators] or [laws] section")
    status = EXIT_OK
    ansatz = _effective_ansatz(problem, args)
    checked = []
    gauges = find_gauges(problem.lagrangian,
                         [g for _, g in problem.candidates],
                         degree=ansatz.gauge_degree,
                         jet_order=ansatz.gauge_jet_order)
    for (name, g), gauge in zip(problem.candidates, gauges):
        entry: Dict = {"name": name}
        entry.update(_generator_json(problem, g))
        if gauge is None:
            entry["admits_gauge"] = False
            lines.append(f"  {name}: REJECTED (no local polynomial gauge)")
            status = EXIT_CHECK_FAILED
        else:
            sol = _solution(problem.lagrangian, g, gauge)
            entry["admits_gauge"] = True
            entry["gauge"] = [str(c) for c in sol.gauge]
            entry["law"] = [str(c) for c in sol.law.components]
            report = verify(sol.law, el, problem.space)
            entry["divergence_residual"] = str(report.residual)
            entry["verified"] = bool(report.ok)
            gauge = ", ".join(str(c) for c in sol.gauge)
            law = ", ".join(str(c) for c in sol.law.components)
            lines.append(f"  {name}: gauge ({gauge}); law ({law}); "
                         f"on-shell residual {report.residual}")
            if not report.ok:
                status = EXIT_CHECK_FAILED
        checked.append(entry)
    result["generators_checked"] = checked

    law_entries = []
    for name, law in problem.candidate_laws:
        report = verify(law, el, problem.space)
        ok = report.ok
        entry = {"name": name,
                 "law": [str(c) for c in law.components],
                 "residual": str(report.residual),
                 "verified": None if ok is None else bool(ok)}
        law_entries.append(entry)
        verdict = "indeterminate" if ok is None else ("ok" if ok else "FAILS")
        lines.append(f"  law {name}: {verdict} (residual {report.residual})")
        if ok is not True:
            status = EXIT_CHECK_FAILED
    if law_entries:
        result["laws_checked"] = law_entries
    return status


def _run_numcheck(problem: Problem, el: ELSystem, args,
                  lines: List[str], result: Dict) -> int:
    if not problem.space.is_ode:
        raise UnsupportedProblem(
            "numcheck integrates time-like problems only; field-theory laws "
            "are verified symbolically")
    cfg = _effective_numeric(problem, args)
    ansatz = _effective_ansatz(problem, args)
    solutions = solve_noether(problem.lagrangian, ansatz)
    laws = [s.law for s in solutions]
    result["numeric"] = {"step": cfg.step, "horizon": cfg.horizon,
                         "tolerance": cfg.tolerance, "seed": cfg.seed,
                         "laws": [str(l.components[0]) for l in laws]}
    lines.append(f"numeric check: {len(laws)} integral(s), "
                 f"step {cfg.step}, horizon {cfg.horizon}, tol {cfg.tolerance}")
    status = EXIT_OK
    runs = []
    for k, ic in enumerate(seeded_initial_conditions(el, cfg.seed)):
        traj = integrate_el(el, cfg, ic)
        report = drift_report(laws, traj, cfg)
        drifts = [f"{d:.3e}" for d in report.drifts]
        ok = report.all_pass and not traj.truncated
        runs.append({"initial": {v.name: ic[v] for v in sorted(ic, key=lambda v: v.sort_index)},
                     "drifts": report.drifts,
                     "passes": report.passes,
                     "truncated": traj.truncated})
        lines.append(f"  ic #{k}: max drifts {', '.join(drifts)} -> "
                     f"{'ok' if ok else 'FAIL'}")
        if not ok:
            status = EXIT_CHECK_FAILED
    result["numeric"]["runs"] = runs
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT

    tasks = [(args.command, path, args) for path in args.files]
    if args.jobs > 1 and len(args.files) > 1:
        # The pool may start every worker at once, so never ask for more
        # workers than there are files.
        workers = min(args.jobs, len(args.files))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            outcomes = list(ex.map(_run_star, tasks))
    else:
        outcomes = [_run_star(t) for t in tasks]

    try:
        _emit(args, outcomes)
    except BrokenPipeError:
        # The reader went away (as with ``| head``): stop writing, and point
        # stdout at the null device so the interpreter's final flush cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return max(code for code, _, _ in outcomes)


def _emit(args, outcomes: List[Tuple[int, str, Dict]]) -> None:
    """Print each file's text, or all files' JSON, and flush stdout."""
    if not args.as_json:
        for _, text, _ in outcomes:
            print(text)
    else:
        payload = [obj for _, _, obj in outcomes]
        if not args.deterministic:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
            for obj in payload:
                obj["timestamp"] = stamp
        out = payload[0] if len(payload) == 1 else payload
        print(json.dumps(out, sort_keys=True, indent=2))
    sys.stdout.flush()


def _run_star(task):
    return run_file(*task)


if __name__ == "__main__":
    sys.exit(main())
