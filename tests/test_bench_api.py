"""The public API that the benchmark harness under bench/ relies on.

The harness is read, never imported: these tests parse its source so that
removing or renaming something it calls fails here, in the tier-1 suite,
rather than only when the traced benchmark is run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import noether

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _imported_names():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "noether":
                names.update(alias.name for alias in node.names)
    return sorted(names)


def test_bench_imports_something_from_noether():
    assert "determining_system" in _imported_names()


@pytest.mark.parametrize("name", _imported_names())
def test_bench_import_resolves(name):
    if name == "cli":   # a submodule: ``from noether import cli``
        importlib.import_module("noether.cli")
    else:
        assert name in noether.__all__
        assert hasattr(noether, name)


def test_determining_system_fields():
    """The attributes ``bench/tracing.py`` reads, on a real result."""
    problem = noether.load_problem(str(BENCH.parent / "problems"
                                       / "free_particle.prob"))
    ds = noether.determining_system(problem.lagrangian, problem.ansatz)
    for name in ("unknowns", "rows", "xi_templates", "eta_templates",
                 "gauge_templates"):
        assert hasattr(ds, name), name


def test_trajectory_samples():
    assert hasattr(noether.Trajectory, "samples")
