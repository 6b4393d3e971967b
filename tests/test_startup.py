"""Start-up: what a fresh ``noether`` process imports and defines.

Every command is a fresh process, so start-up is paid on every run.  Only
``numcheck`` integrates, so only it may import ``noether.numeric``, and no
command imports ``noether.library``; the package resolves those modules'
names on first use.  Value classes are
plain classes, because ``@dataclass`` compiles generated source for each
class at import; the three that remain are named here.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import noether
from noether import (Ansatz, ConservationLaw, ELSystem, Expr, Generator,
                     Lagrangian, NoetherSolution, NumericReport, Problem,
                     Trajectory, VerificationReport, euler_lagrange, parse)
from noether.expr import DEPENDENT, VarId

from util import child_env

ROOT = Path(__file__).resolve().parent.parent
FREE = str(ROOT / "problems" / "free_particle.prob")
FIELD = str(ROOT / "problems" / "quartic_field.prob")

# Runs the CLI in process, then reports the noether modules it loaded.
_CLI_PROBE = """
import sys
from noether.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
loaded = sorted(m for m in sys.modules if m.startswith("noether."))
sys.stderr.write(f"\\nloaded: {' '.join(loaded)}\\n")
"""

# What ``import noether.cli`` loads; only ``numcheck`` adds to it.
_CLI_MODULES = ["cli", "engine", "expr", "jets", "linalg", "parsing",
                "problem", "variational"]


def _child(*args):
    out = subprocess.run([sys.executable, *args], capture_output=True,
                         text=True, env=child_env(), timeout=120)
    assert "Traceback" not in out.stderr, out.stderr
    return out


@pytest.mark.parametrize("argv, numeric", [
    (["--help"], False),
    (["symmetries", FREE], False),
    (["integrals", FREE], False),
    (["verify", FREE], False),
    (["numcheck", FREE, "--horizon", "0.1"], True),
])
def test_only_numcheck_imports_numeric(argv, numeric):
    """Each command loads exactly these modules, so a module newly put on
    a command's path, ``noether.library`` above all, fails by name."""
    out = _child("-c", _CLI_PROBE, *argv)
    want = sorted(f"noether.{m}"
                  for m in _CLI_MODULES + (["numeric"] if numeric else []))
    head, *loaded = out.stderr.splitlines()[-1].split()
    assert head == "loaded:"
    assert loaded == want


# Registers a handler that the interpreter's teardown runs, then runs the CLI
# on the arguments through the process entry.
_ENTRY_PROBE = """
import atexit, sys
from noether.cli import entry, main
atexit.register(sys.stderr.write, "teardown ran\\n")
entry()
"""


@pytest.mark.parametrize("argv, code", [
    (["verify", FREE], 0),
    (["verify", FIELD], 1),
    (["--help"], 0),
])
def test_entry_ends_the_process_without_teardown(argv, code):
    out = _child("-c", _ENTRY_PROBE, *argv)
    assert out.returncode == code
    assert "teardown ran" not in out.stderr
    # The same probe through main() alone sees the teardown.
    plain = _child("-c", _ENTRY_PROBE.replace("entry()", "main()"), *argv)
    assert "teardown ran" in plain.stderr


def test_console_script_calls_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["noether"]
    module, _, name = target.partition(":")
    assert module == "noether.cli"
    cli = importlib.import_module(module)
    tree = ast.parse(inspect.getsource(cli))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
    assert callable(getattr(cli, name))


def test_importing_the_cli_leaves_numeric_out():
    out = _child("-c", "import sys, noether.cli; "
                       "print('noether.numeric' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_every_public_name_resolves_and_is_listed():
    probe = ("import noether\n"
             "listed = dir(noether)\n"
             "for name in noether.__all__:\n"
             "    getattr(noether, name)\n"
             "    assert name in listed, name\n"
             "print('ok')")
    assert _child("-c", probe).stdout.strip() == "ok"


def test_only_the_named_classes_are_dataclasses():
    modules = [importlib.import_module(f"noether.{info.name}")
               for info in pkgutil.iter_modules(noether.__path__)]
    found = {cls.__name__
             for module in modules
             for _, cls in inspect.getmembers(module, inspect.isclass)
             if cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)}
    assert found == {"Ansatz", "NumericConfig", "DeterminingSystem"}


# -- the plain value classes keep the dataclass behaviour ----------------------
# The expected strings and comparisons were taken from the @dataclass
# versions.  A JetSpace has the default object repr, so it is spliced in.


def test_value_class_reprs(ode, free_particle):
    x, y = ode.independents[0], ode.dependents[0]
    g = Generator(xi={x: Expr.one()}, eta={y: parse("x*y", ode)})
    law = ConservationLaw((parse("1/2*y'^2", ode),))
    cases = [
        (Generator(), "Generator(xi={}, eta={})"),
        (g, "Generator(xi={VarId('x'): Expr(1)}, "
            "eta={VarId('y'): Expr(x*y)})"),
        (law, "ConservationLaw(components=(Expr(1/2*y'^2),))"),
        (NoetherSolution(g, (Expr.zero(),), law),
         "NoetherSolution(generator=Generator(xi={VarId('x'): Expr(1)}, "
         "eta={VarId('y'): Expr(x*y)}), gauge=(Expr(0),), "
         "law=ConservationLaw(components=(Expr(1/2*y'^2),)))"),
        (VerificationReport(None, parse("y", ode)),
         "VerificationReport(ok=None, residual=Expr(y))"),
        (free_particle,
         "Lagrangian(space=<space>, order=1, body=Expr(1/2*y'^2))"),
        (euler_lagrange(free_particle),
         "ELSystem(space=<space>, equations=[Expr(y'')], "
         "solved_forms={VarId(\"y''\"): Expr(0)})"),
        (Problem(ode, free_particle, Ansatz()),
         "Problem(space=<space>, lagrangian=Lagrangian(space=<space>, "
         "order=1, body=Expr(1/2*y'^2)), ansatz=Ansatz(coeff_degree=4, "
         "coeff_jet_order=0, gauge_degree=4, gauge_jet_order=None, "
         "include_gauge=True, suppress_xi=False), candidates=[], "
         "candidate_laws=[], numeric=NumericConfig(step=0.001, "
         "horizon=10.0, tolerance=1e-08, seed=42))"),
        (Trajectory((x, y), [(0.0, 1.0)]),
         "Trajectory(variables=(VarId('x'), VarId('y')), "
         "rows=[(0.0, 1.0)], truncated=False)"),
        (NumericReport([1e-9], [True]),
         "NumericReport(drifts=[1e-09], passes=[True], truncated=False)"),
        (VarId(DEPENDENT, "y", 3), "VarId('y')"),
    ]
    for value, text in cases:
        assert repr(value) == text.replace("<space>", repr(ode))


def test_value_class_equality(ode, free_particle):
    x = ode.independents[0]
    body = parse("1/2*y'^2", ode)
    law = ConservationLaw((body,))
    assert Generator() == Generator()
    assert Generator(xi={x: Expr.one()}) != Generator()
    assert free_particle == Lagrangian(ode, 1, body)
    assert free_particle != Lagrangian(ode, 1, parse("y'^2", ode))
    assert law == ConservationLaw((body,))
    assert law != ConservationLaw((parse("y'^2", ode),))
    assert Trajectory((x,), [(0.0,)]) == Trajectory((x,), [(0.0,)])
    assert Trajectory((x,), [(0.0,)]) != Trajectory((x,), [(0.0,)], True)
    assert NumericReport([1.0], [True]) == NumericReport([1.0], [True])
    assert NumericReport([1.0], [True]) != \
        NumericReport([1.0], [True], True)
    zero = Expr.zero()
    assert VerificationReport(True, zero) == VerificationReport(True, zero)
    assert VerificationReport(True, zero) != VerificationReport(None, zero)
    g = Generator(xi={x: Expr.one()})
    assert NoetherSolution(g, (zero,), law) == \
        NoetherSolution(g, (zero,), law)
    assert NoetherSolution(g, (zero,), law) != \
        NoetherSolution(Generator(), (zero,), law)
    assert euler_lagrange(free_particle) == euler_lagrange(free_particle)
    assert euler_lagrange(free_particle) != euler_lagrange(
        Lagrangian(ode, 1, parse("y'^2 + y^2", ode)))
    assert Problem(ode, free_particle, Ansatz()) == \
        Problem(ode, free_particle, Ansatz())
    assert Problem(ode, free_particle, Ansatz()) != \
        Problem(ode, free_particle, Ansatz(coeff_degree=2))
    assert Generator() != 1 and free_particle != 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(Generator())


def test_lagrangian_equality_ignores_partials(ode, free_particle):
    other = Lagrangian(ode, 1, parse("1/2*y'^2", ode))
    other.partials = []
    assert other == free_particle
    assert "partials" not in repr(other)


def test_default_containers_are_not_shared(ode, free_particle):
    x, y = ode.independents[0], ode.dependents[0]
    a, b = Generator(), Generator()
    a.xi[x] = Expr.one()
    a.eta[y] = Expr.one()
    assert b.xi == {} and b.eta == {}
    p, q = Problem(ode, free_particle, Ansatz()), \
        Problem(ode, free_particle, Ansatz())
    assert p.candidates is not q.candidates
    assert p.candidate_laws is not q.candidate_laws


def test_varid_compares_by_identity_and_is_read_only():
    v = VarId(DEPENDENT, "y", 3)
    assert v == v and v != VarId(DEPENDENT, "y", 3)
    assert hash(v) == object.__hash__(v)
    with pytest.raises(AttributeError):
        v.name = "z"
    with pytest.raises(AttributeError):
        del v.sort_index
    assert v.name == "y" and v.sort_index == 3
