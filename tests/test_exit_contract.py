"""Exit contract: every input, good or bad, ends with exit code 0, 1 or 2
and never a traceback, and an input refused with exit code 2 is refused by
name.

A derandomized Hypothesis property mutates one field of a problem file
(huge orders, exponents and degrees included) and adds at most one flag,
then runs the command in process under ``util.deadline``.  Every file
loads unmutated, so when the mutated file does not load, the mutation is
the cause and the message must name its field; when the flag alone turns
a run into exit code 2, the message must name the flag's setting.
"""

import configparser
import contextlib
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from noether.cli import main  # noqa: E402

from util import deadline  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("problems/*.prob")) + [
    ROOT / "tests" / "data" / name
    for name in ("coupled_second_order.prob", "degenerate.prob",
                 "rational_coeffs.prob", "verify_batch.prob")]
COMMANDS = ("symmetries", "integrals", "verify", "numcheck")

HUGE = (20000, 50000, 10 ** 9, 10 ** 30)
INTS = st.one_of(st.integers(-2, 3), st.sampled_from(HUGE))
FLOATS = st.sampled_from(("0.01", "0.002", "0", "-1", "1e-300", "1e300",
                          "inf", "nan", "1e-9"))
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from((3000, *HUGE)))
# Both sides of the jet-space headroom, 2 * order + 2, for orders 1 and 2.
GAUGE_JET_ORDERS = st.one_of(st.integers(-2, 7), st.sampled_from(HUGE))

# File field or flag -> (values, the words an exit-2 message names it by).
FIELDS = {
    ("problem", "order"): (INTS, "'order'"),
    ("problem", "lagrangian"): (EXPONENTS, "lagrangian"),
    ("ansatz", "degree"): (INTS, "degree"),
    ("ansatz", "gauge_degree"): (INTS, "gauge degree"),
    ("ansatz", "jet_order"): (INTS, "jet order"),
    ("ansatz", "gauge_jet_order"): (GAUGE_JET_ORDERS, "gauge jet order"),
    ("numeric", "step"): (FLOATS, "step"),
    ("numeric", "horizon"): (FLOATS, "horizon"),
    ("numeric", "tolerance"): (FLOATS, "tolerance"),
    ("numeric", "seed"): (INTS, "seed"),
}
FLAGS = {"--degree": (INTS, "degree"), "--jet-order": (INTS, "jet order"),
         "--step": (FLOATS, "step"), "--horizon": (FLOATS, "horizon"),
         "--tol": (FLOATS, "tolerance"), "--seed": (INTS, "seed")}


def _lagrangian(problem, form: int, k: int) -> str:
    """The lagrangian raised to ``k``, or with a k-th power added or
    multiplied in."""
    text = problem["lagrangian"]
    dep = problem["dependents"].replace(",", " ").split()[0]
    ind = problem["independents"].replace(",", " ").split()[0]
    return (f"({text})^{k}", f"{text} + ({dep} + {ind})^{k}",
            f"{text} + {dep}^{k}*{text}")[form]


@st.composite
def examples(draw):
    path = draw(st.sampled_from(FILES))
    command = draw(st.sampled_from(COMMANDS))
    field = draw(st.sampled_from(sorted(FIELDS)))
    value = draw(FIELDS[field][0])
    flag = draw(st.sampled_from((None, *sorted(FLAGS))))
    flags = () if flag is None else (flag, str(draw(FLAGS[flag][0])))
    form = draw(st.integers(0, 2))
    return path, command, field, value, form, flags


def _write(path: Path, out: Path, field, value, form: int) -> None:
    cp = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    cp.optionxform = str
    cp.read(path, encoding="utf-8")
    # 100 RK4 steps keep each numcheck short; a mutation may replace it.
    if "numeric" not in cp:
        cp.add_section("numeric")
    cp["numeric"]["horizon"] = "0.1"
    section, key = field
    if section not in cp:
        cp.add_section(section)
    cp[section][key] = (_lagrangian(cp["problem"], form, value)
                        if key == "lagrangian" else str(value))
    with open(out, "w", encoding="utf-8") as fh:
        cp.write(fh)


def _run(argv):
    """Exit code and JSON result of one in-process run, which must not
    raise or print a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with deadline(10), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--json", "--deterministic"])
    assert "Traceback" not in err.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    return code, json.loads(out.getvalue())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(examples())
def test_mutated_inputs_keep_the_exit_contract(tmp_path_factory, example):
    path, command, field, value, form, flags = example
    mutated = tmp_path_factory.getbasetemp() / "mutated.prob"
    _write(path, mutated, field, value, form)
    code, result = _run([command, str(mutated), *flags])
    if code != 2:
        return
    message = result["error"]
    if "problem" not in result:   # refused while loading
        assert FIELDS[field][1] in message, (field, message)
    elif flags and _run([command, str(mutated)])[0] != 2:
        assert FLAGS[flags[0]][1] in message, (flags, message)
