"""Run two trees' benchmarks in alternating pairs and record every run.

    python tests/benchpair.py --parent DIR --change DIR \\
        --workload search [verify ...] --seeds 1 [2 ...] --pairs N \\
        --seconds S --bytecode {cold,warm} --out BENCH_<tag>.json

For each workload, seed and pair it runs each tree's own
``bench/run.py --workload W --seed N --seconds S --trace 0``, one run at a
time, the parent first on even pairs and the change first on odd ones.
The record holds the final JSON line of every run in order, the Python
version, host, CPU count, both commits (``+dirty`` when the tree has
uncommitted changes), the seeds, the seconds and the bytecode mode, and a
summary per workload and seed: for each end-to-end metric both sides'
medians and quartiles and the pairs each side won.  The record is
rewritten after every run, so an interrupted series keeps what it ran.

Bytecode modes:

- ``cold`` runs with ``PYTHONDONTWRITEBYTECODE=1`` and no
  ``PYTHONPYCACHEPREFIX``, as a clean checkout does; it refuses a tree
  whose ``src`` or ``bench`` holds a ``__pycache__``.
- ``warm`` gives each tree a fresh ``PYTHONPYCACHEPREFIX`` and fills it
  with one untimed start of ``import noether.cli, noether.numeric`` with
  ``PYTHONDONTWRITEBYTECODE`` removed, since a start that keeps it writes
  nothing and a warm run would silently measure cold.  The warming start
  compiles the standard library into the prefix too: an empty prefix
  would make every start compile it.  The bench then runs with the prefix
  set and ``PYTHONDONTWRITEBYTECODE=1``.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def final_line(stdout: str) -> dict:
    """The last non-empty line of a bench run's output, parsed as JSON."""
    return json.loads(stdout.strip().splitlines()[-1])


def _spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (inclusive method) and count of the values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: Sequence[dict]) -> Dict[str, dict]:
    """Per "<workload> seed <seed>": every run correct, the failed jobs,
    and per metric each side's spread and the pairs each side won (the
    lower value wins; a tie or a pair missing a side counts for neither).
    A run without metrics, such as one whose bench exited with an error,
    is counted as not correct and left out of the spreads."""
    groups: Dict[str, List[dict]] = {}
    for run in runs:
        groups.setdefault(f"{run['workload']} seed {run['seed']}",
                          []).append(run)
    summary = {}
    for key, group in groups.items():
        results = [run["result"] for run in group]
        entry: Dict[str, object] = {
            "correct": all(r.get("correct") is True for r in results),
            "failed": sum(r.get("failed", 0) for r in results)}
        by_pair: Dict[int, Dict[str, dict]] = {}
        for run in group:
            if "metrics" in run["result"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = \
                    run["result"]["metrics"]
        for metric in METRICS:
            values = {side: [m[side][metric]["value"]
                             for m in by_pair.values() if side in m]
                      for side in SIDES}
            won = dict.fromkeys(SIDES, 0)
            for m in by_pair.values():
                if all(side in m for side in SIDES):
                    a, b = (m[side][metric]["value"] for side in SIDES)
                    if a != b:
                        won[SIDES[b < a]] += 1
            entry[metric] = {**{side: _spread(values[side])
                                for side in SIDES if values[side]},
                             "pairs_won": won}
        summary[key] = entry
    return summary


def _commit(tree: Path) -> Optional[str]:
    """The tree's HEAD commit, ``+dirty`` if it has changes; None outside
    a git checkout."""
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *argv], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def _environment(tree: Path, bytecode: str, prefix: Optional[str]) -> dict:
    """The bench's environment for the tree in the given mode; ``prefix``
    is the tree's pycache prefix in warm mode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if bytecode == "cold":
        stale = [p for d in ("src", "bench") for p in (tree / d).rglob(
            "__pycache__")]
        if stale:
            raise SystemExit(f"cold mode needs a tree without bytecode; "
                             f"found {stale[0]}")
        return env
    env["PYTHONPYCACHEPREFIX"] = prefix
    warm = dict(env, PYTHONPATH=str(tree / "src"))
    del warm["PYTHONDONTWRITEBYTECODE"]
    subprocess.run(
        [sys.executable, "-c", "import noether.cli, noether.numeric"],
        cwd=tree, env=warm, check=True)
    return env


def _bench(tree: Path, env: dict, workload: str, seed: int,
           seconds: float) -> dict:
    """One bench run's final JSON line, or an error record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    try:
        return final_line(proc.stdout)
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--bytecode", choices=("cold", "warm"), default="cold")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    prefixes = {side: tempfile.mkdtemp(prefix=f"benchpair-{side}-")
                for side in SIDES} if args.bytecode == "warm" else {}
    try:
        envs = {side: _environment(tree, args.bytecode, prefixes.get(side))
                for side, tree in trees.items()}
        record = {
            "description": "bench/run.py --workload W --seed N --seconds S "
                           "--trace 0 in each tree, one run at a time, "
                           "alternating sides with the first side swapped "
                           "every pair; each entry is the final JSON line "
                           "of one run",
            "parent": _commit(trees["parent"]),
            "change": _commit(trees["change"]),
            "python": platform.python_version(),
            "host": platform.platform(),
            "cpus": os.cpu_count(),
            "seeds": args.seeds, "seconds": args.seconds,
            "pairs": args.pairs, "bytecode": args.bytecode,
            "claim": None, "runs": []}
        for workload in args.workload:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    for side in SIDES[::-1] if pair % 2 else SIDES:
                        result = _bench(trees[side], envs[side], workload,
                                        seed, args.seconds)
                        record["runs"].append(
                            {"pair": pair, "workload": workload,
                             "side": side, "seed": seed,
                             "seconds": args.seconds, "result": result})
                        record["summary"] = summarize(record["runs"])
                        args.out.write_text(json.dumps(record, indent=1)
                                            + "\n")
                        wall = result.get("metrics", {}).get("wall_s", {})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"wall_s {wall.get('value')}", file=sys.stderr)
    finally:
        for prefix in prefixes.values():
            shutil.rmtree(prefix, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
