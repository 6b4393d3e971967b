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
output.  The text report is rendered from the JSON result, and the exit
status is read from it: 0 all checks passed, 1 a verification or drift
check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from .engine import Ansatz, _law, find_gauges, solve_noether, verify
from .jets import Generator
from .problem import NumericConfig, Problem, ProblemError, load_problem
from .variational import ELSystem, euler_lagrange

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
    updates = {field: value for field, value in (
        ("step", args.step), ("horizon", args.horizon),
        ("tolerance", args.tol), ("seed", args.seed)) if value is not None}
    cfg = problem.numeric
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _strs(exprs) -> List[str]:
    return [str(e) for e in exprs]


def _generator_json(problem: Problem, g: Generator) -> Dict:
    return {
        "xi": {x.name: str(g.xi_of(x)) for x in problem.space.independents},
        "eta": {u.name: str(g.eta_of(u)) for u in problem.space.dependents},
    }


def _el_strings(el: ELSystem) -> List[str]:
    if el.reducible:
        return [f"{h.name} = {e}" for h, e in el.solved_forms.items()]
    return [f"{e} = 0" for e in el.equations]


def run_file(command: str, path: str, args) -> Tuple[int, str, Dict]:
    """Process one problem file; returns (exit_code, text, json_object).

    The command fills in the JSON result, the one record of the run; the
    exit code and the text report are both read from it.
    """
    result: Dict = {"file": path, "command": command}
    try:
        problem = load_problem(path)
        result["problem"] = problem.echo()
        el = euler_lagrange(problem.lagrangian)
        result["euler_lagrange"] = _el_strings(el)
        COMMANDS[command](problem, el, args, result)
    except ValueError as err:
        result["error"] = str(err)
        return EXIT_BAD_INPUT, render(result), result
    code = exit_code(result)
    result["status"] = "ok" if code == EXIT_OK else "failed"
    return code, render(result), result


def _run_solve(problem: Problem, el: ELSystem, args, result: Dict) -> None:
    ansatz = _effective_ansatz(problem, args)
    solutions = solve_noether(problem.lagrangian, ansatz)
    result["ansatz"] = dataclasses.asdict(ansatz)
    result["solutions"] = [
        dict(_generator_json(problem, s.generator), gauge=_strs(s.gauge),
             law=_strs(s.law.components))
        for s in solutions]


def _run_verify(problem: Problem, el: ELSystem, args, result: Dict) -> None:
    if not problem.candidates and not problem.candidate_laws:
        raise ProblemError("verify mode needs a [generators] or [laws] section")
    ansatz = _effective_ansatz(problem, args)
    checked = []
    gauges = find_gauges(problem.lagrangian,
                         [g for _, g in problem.candidates],
                         degree=ansatz.gauge_degree,
                         jet_order=ansatz.gauge_jet_order)
    for (name, g), gauge in zip(problem.candidates, gauges):
        entry: Dict = {"name": name, "admits_gauge": gauge is not None}
        entry.update(_generator_json(problem, g))
        if gauge is not None:
            # ``_law`` returns the law only once Noether's identity holds
            # off shell, which certifies it with or without solved forms.
            law = _law(problem.lagrangian, g, gauge)
            entry.update(gauge=_strs(gauge), law=_strs(law.components),
                         divergence_residual="0", verified=True)
        checked.append(entry)
    result["generators_checked"] = checked

    law_entries = []
    for name, law in problem.candidate_laws:
        report = verify(law, el, problem.space)
        law_entries.append({"name": name, "law": _strs(law.components),
                            "residual": str(report.residual),
                            "verified": report.ok})
    if law_entries:
        result["laws_checked"] = law_entries


def _run_numcheck(problem: Problem, el: ELSystem, args, result: Dict) -> None:
    # Imported here: no other command needs the numeric layer at start-up.
    from .numeric import check_integrals, seeded_initial_conditions
    if not problem.space.is_ode:
        raise ValueError(
            "numcheck integrates time-like problems only; field-theory laws "
            "are verified symbolically")
    cfg = _effective_numeric(problem, args)
    ansatz = _effective_ansatz(problem, args)
    solutions = solve_noether(problem.lagrangian, ansatz)
    laws = [s.law for s in solutions]
    result["numeric"] = {"step": cfg.step, "horizon": cfg.horizon,
                         "tolerance": cfg.tolerance, "seed": cfg.seed,
                         "laws": [str(l.components[0]) for l in laws]}
    ics = seeded_initial_conditions(el, cfg.seed)
    result["numeric"]["runs"] = [
        {"initial": {v.name: x for v, x in ic.items()},
         "drifts": report.drifts, "passes": report.passes,
         "truncated": report.truncated}
        for ic, report in zip(ics, check_integrals(laws, el, cfg, ics))]


COMMANDS = {"symmetries": _run_solve, "integrals": _run_solve,
            "verify": _run_verify, "numcheck": _run_numcheck}


def _passed(run: Dict) -> bool:
    return all(run["passes"]) and not run["truncated"]


def exit_code(result: Dict) -> int:
    """The exit status of a finished run, read from its JSON result."""
    checked = (result.get("generators_checked", [])
               + result.get("laws_checked", []))
    runs = result.get("numeric", {}).get("runs", [])
    ok = (all(e.get("verified") is True for e in checked)
          and all(map(_passed, runs)))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def render(result: Dict) -> str:
    """The text report of one run, read from its JSON result."""
    if "error" in result:
        return f"{result['file']}: error: {result['error']}"
    p = result["problem"]
    lines = [f"problem: {result['file']}",
             f"lagrangian: {p['lagrangian']}   (order {p['order']}; "
             f"independents {', '.join(p['independents'])}; "
             f"dependents {', '.join(p['dependents'])})",
             "euler-lagrange: " + " ; ".join(result["euler_lagrange"])]
    if "solutions" in result:
        a = result["ansatz"]
        lines.append(f"symmetries found: {len(result['solutions'])} "
                     f"(gauge {'on' if a['include_gauge'] else 'off'}, "
                     f"degree {a['coeff_degree']}, "
                     f"jet order {a['coeff_jet_order']})")
        label = "I" if len(p["independents"]) == 1 else "flux"
        for k, sol in enumerate(result["solutions"], 1):
            bits = [f"{kind}_{name} = {e}" for kind in ("xi", "eta")
                    for name, e in sol[kind].items() if e != "0"]
            lines.append(f"  [{k}] {' ; '.join(bits) or '0'}")
            if a["include_gauge"]:
                lines.append(f"      gauge: {', '.join(sol['gauge'])}")
            if result["command"] == "integrals":
                lines.append(f"      {label} = {', '.join(sol['law'])}")
    for e in result.get("generators_checked", []):
        if e["admits_gauge"]:
            lines.append(f"  {e['name']}: gauge ({', '.join(e['gauge'])}); "
                         f"law ({', '.join(e['law'])}); Noether identity "
                         f"residual {e['divergence_residual']}")
        else:
            lines.append(f"  {e['name']}: REJECTED (no local polynomial gauge)")
    for e in result.get("laws_checked", []):
        verdict = {None: "indeterminate", True: "ok", False: "FAILS"}[e["verified"]]
        lines.append(f"  law {e['name']}: {verdict} (residual {e['residual']})")
    if "numeric" in result:
        n = result["numeric"]
        lines.append(f"numeric check: {len(n['laws'])} integral(s), "
                     f"step {n['step']}, horizon {n['horizon']}, "
                     f"tol {n['tolerance']}")
        for k, r in enumerate(n["runs"]):
            drifts = ", ".join(f"{d:.3e}" for d in r["drifts"])
            lines.append(f"  ic #{k}: max drifts {drifts} -> "
                         f"{'ok' if _passed(r) else 'FAIL'}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    outcomes = [run_file(args.command, path, args) for path in args.files]
    try:
        _emit(args, outcomes)
    except BrokenPipeError:
        pass   # the reader went away (as with ``| head``): stop writing
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


def entry() -> None:
    """Run ``main()`` as the whole ``noether`` process, then end it.

    The exit code is ``main()``'s, or the status of the ``SystemExit``
    argparse raises for ``--help`` or a usage error.  Other exceptions
    propagate.  stdout and stderr are flushed, a reader that has gone away
    ending the run quietly with its code, and the process ends with
    ``os._exit``: the interpreter's teardown, which only frees what the
    operating system reclaims anyway, never runs.  Neither do ``atexit``
    handlers and finalizers, so any output other than stdout and stderr
    must be closed before ``main()`` returns.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
