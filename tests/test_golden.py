"""Byte-identical output and exit codes on the bundled problems.

Each case runs ``noether.cli.main`` in process, from the repository root so
that the echoed file path is relative, twice: with ``--json
--deterministic``, compared byte for byte with ``tests/golden/<case>.json``,
and without, compared with the text report in ``tests/golden/<case>.txt``.
Both runs must return the case's exit code.  A refactor that claims to
change no output must leave every case passing.  Regenerate the files only
when an output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

PROBLEMS = ("free_particle", "free_particle_2d", "harmonic_oscillator",
            "quartic_field", "second_order_chain")

# (name, argv, exit code)
CASES = (
    [(f"integrals-{p}", ["integrals", f"problems/{p}.prob"], 0)
     for p in PROBLEMS]
    + [(f"symmetries-evolutionary-{p}",
        ["symmetries", "--evolutionary", f"problems/{p}.prob"], 0)
       for p in ("free_particle", "quartic_field")]
    + [("verify-free_particle", ["verify", "problems/free_particle.prob"], 0),
       ("verify-quartic_field", ["verify", "problems/quartic_field.prob"], 1)]
    + [(f"numcheck-{p}", ["numcheck", f"problems/{p}.prob"], 0)
       for p in PROBLEMS if p != "quartic_field"]
    + [("verify-batch", ["verify", "tests/data/verify_batch.prob"], 1)]
    + [("integrals-no-gauge-free_particle",
        ["integrals", "--no-gauge", "problems/free_particle.prob"], 0),
       ("integrals-degree-1-free_particle",
        ["integrals", "--degree", "1", "problems/free_particle.prob"], 0),
       # An indeterminate law fails verify; numcheck has no solved form.
       ("verify-degenerate", ["verify", "tests/data/degenerate.prob"], 1),
       ("numcheck-degenerate", ["numcheck", "tests/data/degenerate.prob"], 2),
       ("symmetries-unknown-variable",
        ["symmetries", "tests/data/unknown_variable.prob"], 2),
       # Several files: one report each, the worst exit code.
       ("verify-two-files", ["verify", "problems/free_particle.prob",
                             "tests/data/verify_batch.prob"], 1)]
    # Coefficients that are not integers, in every layer.
    + [(f"{cmd}-rational_coeffs", [cmd, "tests/data/rational_coeffs.prob"], 0)
       for cmd in ("integrals", "symmetries", "numcheck")]
    # Two dependents at order 2: the law's terms follow the order in which
    # the Lagrangian's jet partials are visited.
    + [(f"{cmd}-coupled_second_order",
        [cmd, "tests/data/coupled_second_order.prob"], 0)
       for cmd in ("integrals", "numcheck")]
)

IDS = [name for name, _, _ in CASES]


def _run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    import contextlib
    import io

    from noether.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv,code", CASES, ids=IDS)
def test_golden_output(name, argv, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _run(argv + ["--json", "--deterministic"]) == (code, expected)


@pytest.mark.parametrize("name,argv,code", CASES, ids=IDS)
def test_golden_text(name, argv, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _run(argv) == (code, expected)


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, _ in CASES:
        for suffix, extra in ((".json", ["--json", "--deterministic"]),
                              (".txt", [])):
            _, out = _run(argv + extra)
            (GOLDEN / f"{name}{suffix}").write_text(out, encoding="utf-8")
            print(f"wrote tests/golden/{name}{suffix}", file=sys.stderr)
