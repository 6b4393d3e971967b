"""Byte-identical ``--json --deterministic`` output on the bundled problems.

Each case runs ``noether.cli.main`` in process, from the repository root so
that the echoed file path is relative, and compares stdout byte for byte
with ``tests/golden/<case>.json``.  A refactor that claims to change no
output must leave every case passing.  Regenerate the files only when an
output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

PROBLEMS = ("free_particle", "free_particle_2d", "harmonic_oscillator",
            "quartic_field", "second_order_chain")

CASES = (
    [(f"integrals-{p}", ["integrals", f"problems/{p}.prob"]) for p in PROBLEMS]
    + [(f"symmetries-evolutionary-{p}",
        ["symmetries", "--evolutionary", f"problems/{p}.prob"])
       for p in ("free_particle", "quartic_field")]
    + [(f"verify-{p}", ["verify", f"problems/{p}.prob"])
       for p in ("free_particle", "quartic_field")]
    + [(f"numcheck-{p}", ["numcheck", f"problems/{p}.prob"])
       for p in PROBLEMS if p != "quartic_field"]
    + [("verify-batch", ["verify", "tests/data/verify_batch.prob"])]
)


def _output(argv, capsys) -> str:
    from noether.cli import main
    main(argv + ["--json", "--deterministic"])
    return capsys.readouterr().out


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _output(argv, capsys) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import os

    from noether.cli import main

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv + ["--json", "--deterministic"])
        (GOLDEN / f"{name}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote tests/golden/{name}.json", file=sys.stderr)
