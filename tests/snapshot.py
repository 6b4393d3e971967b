"""Record every command's output on the bundled problems, for diffing.

    python tests/snapshot.py OUT [--src DIR] [path ...]

Runs each of the four commands under each flag set (none,
``--evolutionary``, ``--jet-order 1``), always with ``--json
--deterministic``, on ``problems/*.prob``, ``tests/data/*.prob`` and any
extra paths; each command once over all those paths (so several files'
combined output is covered too); and argparse's two exits:
``--help`` and a usage error (an unknown command).  Each run is its own
subprocess, two at a time, importing the ``noether`` package from
``--src`` (default: this checkout's ``src``), and writes ``stdout``,
``stderr`` and ``exit`` into the directory ``OUT/<path>/<command><flags>``,
``OUT/files/<command>`` for the runs over all paths, or
``OUT/argparse/<name>`` for argparse's exits.  The bundled paths are passed
relative to this checkout's root and extra paths as absolute paths, so
two trees give byte-identical output exactly when ``diff -r OUT1 OUT2``
is silent::

    python tests/snapshot.py /tmp/new
    python tests/snapshot.py /tmp/old --src /path/to/old/checkout/src
    diff -r /tmp/old /tmp/new

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("symmetries", "integrals", "verify", "numcheck")
FLAG_SETS = ((), ("--evolutionary",), ("--jet-order", "1"))
PARSER_RUNS = {"help": ("--help",),
               "usage_error": ("frobnicate", "problems/free_particle.prob")}


def bundled() -> List[str]:
    """The bundled problem files, relative to the checkout root."""
    return [str(p.relative_to(ROOT))
            for pattern in ("problems/*.prob", "tests/data/*.prob")
            for p in sorted(ROOT.glob(pattern))]


def _run(src: str, where: Path, argv: Sequence[str]) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "noether.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    where.mkdir(parents=True, exist_ok=True)
    (where / "stdout").write_bytes(proc.stdout)
    (where / "stderr").write_bytes(proc.stderr)
    (where / "exit").write_text(f"{proc.returncode}\n")


def write_snapshot(out: Path, paths: Sequence[str],
                   src: Path = ROOT / "src") -> int:
    """Run every command and flag set on each path, each command on all
    paths, and argparse's exits; return the run count."""
    out = Path(out)
    runs = [(str(src), out / "argparse" / name, argv)
            for name, argv in PARSER_RUNS.items()]
    runs += [(str(src), out / path.strip("/").replace("/", "__") / (
                  command + "".join(flags).replace("-", "_")),
              (command, path, *flags, "--json", "--deterministic"))
             for path in paths for command in COMMANDS for flags in FLAG_SETS]
    runs += [(str(src), out / "files" / command,
              (command, *paths, "--json", "--deterministic"))
             for command in COMMANDS]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
        list(ex.map(lambda run: _run(*run), runs))
    return len(runs)


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="directory to write into")
    p.add_argument("paths", nargs="*", help="extra problem files")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the noether package")
    args = p.parse_intermixed_args(argv)
    extra = [os.path.abspath(path) for path in args.paths]
    n = write_snapshot(args.out, bundled() + extra, args.src.resolve())
    print(f"{n} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
