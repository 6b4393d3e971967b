#!/usr/bin/env python3
"""Rewrite bench/golden/ from the current program's output.

    python3 bench/make_golden.py

Runs every job of every workload once, at the default seed and full size,
and stores the part of each JSON result that the output check compares.
Only run it when a change of output is intended, and review the diff.
"""

from __future__ import annotations

import json
import sys

from check import golden_path, golden_view, parse_output
from run import HERE, ROOT, child_env, run_cli
from workloads import DEFAULT_SEED, WORKLOADS, prepare


def main() -> int:
    env = child_env()
    for workload in WORKLOADS:
        workdir = HERE / "work" / f"{workload}-{DEFAULT_SEED}-full"
        for job in prepare(workload, DEFAULT_SEED, "full", ROOT, workdir):
            code, out, _, _ = run_cli(job.argv(), env)
            if code != job.exit_code:
                print(f"{workload}/{job.name}: exit code {code}, expected "
                      f"{job.exit_code}", file=sys.stderr)
                return 1
            path = golden_path(workload, job)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(golden_view(parse_output(out)),
                                       indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
