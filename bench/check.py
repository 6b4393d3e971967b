"""Output check: golden files at fixed inputs, invariants at every seed.

A job's JSON output is compared with its golden file when the job's input
does not depend on the seed, or the seed is the default one.  Only keys
present in the golden file are compared, so fields added to the output
later do not count as failures.  At every seed the invariants hold too:
exit code, solution or law count, and every verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from workloads import DEFAULT_SEED, Job

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str, job: Job) -> Path:
    return GOLDEN_DIR / workload / f"{job.name}.json"


def golden_view(obj: Dict) -> Dict:
    """The part of a CLI result that golden files pin down."""
    view = {}
    for key in ("status", "solutions", "generators_checked", "laws_checked"):
        if key in obj:
            view[key] = obj[key]
    if "numeric" in obj:
        num = obj["numeric"]
        view["numeric"] = {
            "laws": num.get("laws"),
            "runs": [{"passes": r.get("passes"),
                      "truncated": r.get("truncated")}
                     for r in num.get("runs", [])]}
    return view


def subset_mismatch(golden, actual, where: str = "") -> Optional[str]:
    """First place where ``actual`` differs from ``golden``, ignoring keys
    that only ``actual`` has; None when they agree."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return f"{where or '.'}: expected an object"
        for key, value in golden.items():
            if key not in actual:
                return f"{where}.{key}: missing"
            found = subset_mismatch(value, actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return f"{where}: expected a list of {len(golden)}"
        for k, (g, a) in enumerate(zip(golden, actual)):
            found = subset_mismatch(g, a, f"{where}[{k}]")
            if found:
                return found
        return None
    if golden != actual:
        return f"{where}: expected {golden!r}, got {actual!r}"
    return None


def invariant_problems(job: Job, code: int, obj: Dict) -> List[str]:
    """Violations of the outcome every seed must reproduce."""
    problems = []
    if code != job.exit_code:
        problems.append(f"exit code {code}, expected {job.exit_code}")
    if "error" in obj:
        problems.append(f"error: {obj['error']}")
    if job.command == "integrals":
        found = len(obj.get("solutions", []))
        if found != job.count:
            problems.append(f"{found} solutions, expected {job.count}")
    elif job.command == "verify":
        verdicts = {}
        for entry in obj.get("generators_checked", []):
            verdicts[entry.get("name")] = (bool(entry.get("admits_gauge"))
                                           and entry.get("verified", True))
        if verdicts != job.verdicts:
            problems.append(f"verdicts {verdicts}, expected {job.verdicts}")
        for entry in obj.get("laws_checked", []):
            if entry.get("verified") is not True:
                problems.append(f"law {entry.get('name')} not verified")
    else:
        num = obj.get("numeric", {})
        if len(num.get("laws", [])) != job.count:
            problems.append(f"{len(num.get('laws', []))} laws, "
                            f"expected {job.count}")
        runs = num.get("runs", [])
        if len(runs) != 5:
            problems.append(f"{len(runs)} numeric runs, expected 5")
        for k, run in enumerate(runs):
            if run.get("truncated") or not all(run.get("passes", [False])):
                problems.append(f"numeric run {k} failed")
    return problems


def parse_output(stdout: str) -> Dict:
    """The JSON object a single-file CLI run prints; raises ValueError."""
    obj = json.loads(stdout)
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    return obj


def load_golden(workload: str, job: Job, seed: int,
                size: str) -> Optional[Dict]:
    """The golden view this job's output must match, or None when the job
    is checked by invariants alone.  A missing golden file raises."""
    if size != "full" or (job.seeded and seed != DEFAULT_SEED):
        return None
    return json.loads(golden_path(workload, job).read_text(encoding="utf-8"))


def check_output(job: Job, code: int, obj: Dict,
                 golden: Optional[Dict]) -> List[str]:
    """Every problem found with one job's output; empty when it is right."""
    problems = invariant_problems(job, code, obj)
    if golden is not None:
        found = subset_mismatch(golden, obj)
        if found:
            problems.append(f"differs from golden at {found}")
    return problems
