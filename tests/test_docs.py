"""The README and the docstrings stay in step with the code."""

import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import noether
import noether.problem
from noether import load_problem
from noether.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library tour", 1)[1].split("\n## ", 1)[0]


def test_library_tour_names_every_public_name():
    tour = _library_tour()
    missing = [name for name in noether.__all__ if f"`{name}`" not in tour]
    assert not missing, f"README library tour misses {missing}"


# ``expr`` and ``cli`` are left out: their public helpers are plumbing.
@pytest.mark.parametrize("module", ["jets", "variational", "linalg", "engine",
                                    "library", "numeric", "problem"])
def test_library_tour_row_names_its_module(module):
    """A module's row names every public function and class it defines."""
    mod = importlib.import_module(f"noether.{module}")
    row, = [line for line in _library_tour().splitlines()
            if line.startswith(f"| `noether.{module}`")]
    missing = [name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__ and f"`{name}`" not in row]
    assert not missing, f"README row of noether.{module} misses {missing}"


def _readme_example():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def _docstring_example():
    """The indented literal block after the module docstring's '::'."""
    block = noether.problem.__doc__.split("::\n", 1)[1]
    lines = []
    for line in block.splitlines():
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


@pytest.mark.parametrize("example", [_readme_example, _docstring_example],
                         ids=["readme", "problem-docstring"])
def test_problem_file_examples_load(example, tmp_path):
    """Each documented problem file is accepted as written, comments
    included, with the values it shows."""
    path = tmp_path / "example.prob"
    path.write_text(example(), encoding="utf-8")
    problem = load_problem(str(path))
    space = problem.lagrangian.space
    assert [v.name for v in space.independents] == ["x"]
    assert [v.name for v in space.dependents] == ["y"]
    assert problem.lagrangian.order == 1
    assert problem.ansatz.coeff_degree == 4
    assert problem.ansatz.gauge_jet_order == 1
    assert "G5" in dict(problem.candidates)
    assert problem.numeric.seed == 42


def test_readme_synopsis_lists_the_parser_flags():
    """Every ``--flag`` of the parser is in the README's command-line
    synopsis, and every flag there is a parser option."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    synopsis = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    flags = set(re.findall(r"--[a-z-]+", build_parser().format_usage()))
    assert flags and set(re.findall(r"--[a-z-]+", synopsis)) == flags
