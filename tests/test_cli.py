"""Command-line interface: output modes, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from noether import Expr, JetSpace, parse
from noether.cli import build_parser, exit_code, main, render, run_file
from noether.problem import MAX_FILE_CHARS

from util import LOADABLE, child_env, deadline, field_files

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

FREE = str(PROBLEMS / "free_particle.prob")
CHAIN = str(PROBLEMS / "second_order_chain.prob")
PLANAR = str(PROBLEMS / "free_particle_2d.prob")
FIELD = str(PROBLEMS / "quartic_field.prob")
OSC = str(PROBLEMS / "harmonic_oscillator.prob")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_integrals_free_particle(capsys):
    code, out = run(capsys, "integrals", FREE)
    assert code == 0
    assert "symmetries found: 5" in out
    assert "y'' = 0" in out
    # the squared combination appears among the printed integrals
    assert "1/2*y^2 - x*y*y' + 1/2*x^2*y'^2" in out.replace(
        "1/2*x^2*y'^2 - x*y*y' + 1/2*y^2", "1/2*y^2 - x*y*y' + 1/2*x^2*y'^2")


def test_symmetries_without_gauge(capsys):
    code, out = run(capsys, "symmetries", FREE, "--no-gauge")
    assert code == 0
    assert "symmetries found: 3" in out


def test_verify_field_candidates(capsys):
    code, out = run(capsys, "verify", FIELD)
    assert code == 1   # the two nonlocal candidates are rejected
    assert out.count("REJECTED") == 2
    assert "gauge (u, 0)" in out


def test_verify_derives_el_once_and_reduces_each_law_once(monkeypatch,
                                                          capsys):
    """The file's Euler-Lagrange system is derived once.  A generator's law
    is certified by Noether's identity and is never reduced on shell:
    quartic_field's four accepted generators reduce nothing.  A bare
    [laws] candidate is reduced once: free_particle holds one."""
    from noether import engine, variational

    calls = {"_normalize": 0, "reduce_mod_el": 0}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counting)

    count(variational, "_normalize")
    count(engine, "reduce_mod_el")
    run(capsys, "verify", FIELD)
    assert calls == {"_normalize": 1, "reduce_mod_el": 0}
    calls.update(_normalize=0, reduce_mod_el=0)
    run(capsys, "verify", FREE)
    assert calls == {"_normalize": 1, "reduce_mod_el": 1}


def test_verify_refuses_a_wrong_boundary_term(monkeypatch, capsys):
    """A generator's verdict rests on Noether's identity alone: with the
    dependent variable added to boundary term 0, no law passes it, so
    verify names the non-symmetry, exits 2 and verifies nothing."""
    from noether import engine
    original = engine._boundary_terms

    def wrong(L, qs):
        b = original(L, qs)
        b[0] = b[0] + Expr.variable(L.space.dependents[0])
        return b
    monkeypatch.setattr(engine, "_boundary_terms", wrong)
    code, out = run(capsys, "verify", FREE, "--json", "--deterministic")
    assert code == 2
    assert "not a Noether symmetry" in json.loads(out)["error"]
    assert '"verified": true' not in out


def test_condition_residual_runs_only_in_the_gauge_solve(monkeypatch,
                                                          capsys, tmp_path):
    """``integrals`` and ``verify`` on every bundled file and on the field
    files call ``condition_residual`` only inside ``find_gauges``, once per
    candidate, and never while a law is built: each law is certified by
    Noether's identity instead.  ``find_gauges`` packs it itself on a
    field problem; on a time-like one, ``_antiderivative`` integrates it."""
    from noether import engine
    from noether.problem import load_problem
    stacks = []
    original = engine.condition_residual

    def recording(*args):
        frame, names = sys._getframe(1), []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return original(*args)
    monkeypatch.setattr(engine, "condition_residual", recording)
    checked = {"_antiderivative": 0, "find_gauges": 0}
    for path in [*sorted(PROBLEMS.glob("*.prob")), *field_files(tmp_path)]:
        problem = load_problem(str(path))
        caller = "_antiderivative" if problem.space.is_ode else "find_gauges"
        for command in ("integrals", "verify"):
            stacks.clear()
            run(capsys, command, str(path))
            expected = len(problem.candidates) if command == "verify" else 0
            # The first named frame: a comprehension has a frame of its own.
            assert [next(n for n in names if n[0] != "<") for names in stacks
                    ] == [caller] * expected, (command, path.name)
            assert all("find_gauges" in names for names in stacks)
            assert not any("_law" in names for names in stacks)
            checked[caller] += len(stacks)
    # free_particle's five candidates; quartic's six, twice, and three
    # each for wave_2plus1 and schrodinger_pair.
    assert checked == {"_antiderivative": 5, "find_gauges": 18}


def test_time_like_verify_solves_no_linear_system(monkeypatch, capsys,
                                                  tmp_path):
    """``verify`` integrates each time-like candidate's residual: on every
    time-like bundled and ``tests/data`` file it assembles and eliminates
    no system.  On the field files it still does both."""
    from noether import engine
    from noether.problem import load_problem
    calls = []

    def recording(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call
    for name in ("_assemble", "solve_affine_many"):
        monkeypatch.setattr(engine, name,
                            recording(name, getattr(engine, name)))
    time_like = [ROOT / path for path in LOADABLE
                 if load_problem(str(ROOT / path)).space.is_ode]
    assert len(time_like) == 9
    checked = 0
    for path in time_like:
        out = json.loads(run(capsys, "verify", str(path), "--json")[1])
        checked += len(out.get("generators_checked", ()))
    assert checked == 11   # free_particle 5, degenerate 2, verify_batch 4
    assert calls == []
    for path in field_files(tmp_path):
        calls.clear()
        run(capsys, "verify", str(path))
        assert calls == ["_assemble", "solve_affine_many"], path.name


def test_verify_law_section(capsys):
    code, out = run(capsys, "verify", FREE)
    assert "law I3: ok" in out


def test_numcheck_oscillator(capsys):
    code, out = run(capsys, "numcheck", OSC)
    assert code == 0
    assert "ok" in out


def test_numcheck_rejects_field_problem(capsys):
    code, out = run(capsys, "numcheck", FIELD)
    assert code == 2


def test_json_output_round_trips(capsys):
    code, out = run(capsys, "integrals", FREE, "--json", "--deterministic")
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"]["lagrangian"] == "1/2*y'^2"
    space = JetSpace(payload["problem"]["independents"],
                     payload["problem"]["dependents"], max_order=6)
    texts = [payload["problem"]["lagrangian"]]
    for sol in payload["solutions"]:
        texts += list(sol["xi"].values()) + list(sol["eta"].values())
        texts += sol["gauge"] + sol["law"]
    for text in texts:
        assert parse(str(parse(text, space)), space) == parse(text, space)


def test_json_deterministic_byte_identical(capsys):
    _, first = run(capsys, "integrals", FREE, "--json", "--deterministic")
    _, second = run(capsys, "integrals", FREE, "--json", "--deterministic")
    assert first == second


def test_json_timestamp_present_by_default(capsys):
    _, out = run(capsys, "symmetries", FREE, "--json")
    assert "timestamp" in json.loads(out)


def test_multiple_files_print_in_order(capsys):
    code, out = run(capsys, "symmetries", FREE, PLANAR)
    assert code == 0
    assert out.index("symmetries found: 5") < out.index("symmetries found: 8")


def test_multiple_files_json_is_array(capsys):
    code, out = run(capsys, "symmetries", FREE, PLANAR, "--json",
                    "--deterministic")
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2


def test_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("[problem]\nindependents = x\ndependents = y\n"
                   "lagrangian = 1/2*z'^2\norder = 1\n")
    code, out = run(capsys, "symmetries", str(bad))
    assert code == 2
    assert "unknown variable" in out


def test_order_mismatch_reported(tmp_path, capsys):
    bad = tmp_path / "bad_order.prob"
    bad.write_text("[problem]\nindependents = x\ndependents = y\n"
                   "lagrangian = 1/2*y'^2\norder = 2\n")
    code, out = run(capsys, "symmetries", str(bad))
    assert code == 2
    assert "order" in out


def test_missing_file_exits_2(capsys):
    code, out = run(capsys, "verify", "no_such_file.prob")
    assert code == 2


def test_byte_order_mark_reads_as_the_same_file(tmp_path, capsys):
    """A problem file saved with a UTF-8 byte-order mark gives the same
    result; a byte that is not UTF-8 still exits 2 with its codec message."""
    bom = tmp_path / "bom.prob"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(FREE).read_bytes())
    assert _json_text(capsys, "verify", str(bom)) == \
        _json_text(capsys, "verify", FREE)
    latin = tmp_path / "latin.prob"
    latin.write_bytes(Path(FREE).read_bytes() + b"# caf\xe9\n")
    code, out = run(capsys, "verify", str(latin))
    assert code == 2
    assert "'utf-8' codec can't decode byte 0xe9" in out


def test_evolutionary_flag(capsys):
    code, out = run(capsys, "symmetries", FREE, "--evolutionary")
    assert code == 0
    assert "jet order 1" in out


def test_degree_flag_shrinks_search(capsys):
    code, out = run(capsys, "symmetries", FREE, "--degree", "1")
    assert code == 0
    assert "symmetries found: 4" in out


def test_multiple_files_json_without_deterministic_is_array(capsys):
    code, out = run(capsys, "symmetries", FREE, PLANAR, "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 2
    assert all("timestamp" in obj for obj in payload)
    assert [obj["file"] for obj in payload] == [FREE, PLANAR]


def test_gauge_jet_order_beyond_headroom_exits_2(tmp_path, capsys):
    bad = tmp_path / "headroom.prob"
    bad.write_text("[problem]\nindependents = x\ndependents = y\n"
                   "lagrangian = 1/2*y'^2\norder = 1\n\n"
                   "[ansatz]\ngauge_jet_order = 4\n")
    code, out = run(capsys, "integrals", str(bad))
    assert code == 2
    assert ("field 'ansatz.gauge_jet_order' is 4, but the gauge jet order of "
            "a Lagrangian of order 1 must be below 4") in out


@pytest.mark.parametrize("lagrangian,order,section,entry,message", [
    ("1/2*y'^2", 1, "generators", "G1 = eta: y''''",
     "generator 'G1' has derivative order 4, but its prolongation allows "
     "at most 3 for a lagrangian of order 1"),
    ("1/2*y'^2", 1, "laws", "I1 = y''''",
     "law 'I1' has derivative order 4, but its divergence allows at most 3 "
     "for a lagrangian of order 1"),
    ("1/2*y''^2", 2, "generators", "G2 = xi: y'''''",
     "generator 'G2' has derivative order 5, but its prolongation allows "
     "at most 4 for a lagrangian of order 2"),
])
def test_candidate_beyond_headroom_exits_2_by_name(tmp_path, capsys,
                                                   lagrangian, order, section,
                                                   entry, message):
    bad = tmp_path / "candidate.prob"
    bad.write_text(f"[problem]\nindependents = x\ndependents = y\n"
                   f"lagrangian = {lagrangian}\norder = {order}\n\n"
                   f"[{section}]\n{entry}\n")
    for command in ("verify", "integrals"):
        code, out = run(capsys, command, str(bad))
        assert code == 2
        assert out.strip() == f"{bad}: error: {message}"


@pytest.mark.parametrize("lagrangian,order,entries", [
    ("1/2*y'^2", 1, "[generators]\nG1 = eta: y'''\n[laws]\nI1 = y'''\n"),
    ("1/2*y''^2", 2, "[generators]\nG1 = eta: y''''\n[laws]\nI1 = y'''''\n"),
])
def test_candidate_at_headroom_still_runs(tmp_path, capsys, lagrangian,
                                          order, entries):
    edge = tmp_path / "edge.prob"
    edge.write_text(f"[problem]\nindependents = x\ndependents = y\n"
                    f"lagrangian = {lagrangian}\norder = {order}\n\n"
                    f"[ansatz]\ngauge_degree = 2\n{entries}")
    code, out = run(capsys, "verify", str(edge))
    assert code in (0, 1)   # G1 is accepted at order 1, rejected at 2
    assert "  G1: " in out and "law I1: ok" in out


def test_headroom_error_in_a_command_exits_2_by_message(monkeypatch,
                                                         capsys):
    """A ``HeadroomError`` raised inside a command ends like any refused
    input: exit code 2, its message as the error, no traceback."""
    import noether.cli as cli
    from noether import HeadroomError
    assert issubclass(HeadroomError, ValueError)
    message = "derivative order 9 exceeds working order 4"

    def solve_noether(*args):
        raise HeadroomError(message)

    monkeypatch.setattr(cli, "solve_noether", solve_noether)
    assert main(["integrals", FREE, "--json", "--deterministic"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == message and err == ""
    assert main(["integrals", FREE]) == 2
    assert capsys.readouterr() == (f"{FREE}: error: {message}\n", "")


def test_huge_degree_flag_exits_2_before_building(capsys):
    # C(100002, 2) monomials per slot: refused before any is built.
    with deadline(2):
        code, out = run(capsys, "symmetries", FREE, "--degree", "100000")
    assert code == 2
    assert "ansatz degree 100000" in out and "bound is 10000" in out


def test_huge_gauge_degree_in_verify_exits_2_before_building(tmp_path,
                                                              capsys):
    """On a field problem the gauge degree sizes a linear system, so a
    huge one is refused before the system is built.  A time-like gauge is
    integrated, so there the same degree caps nothing and verify runs."""
    bad = tmp_path / "gauge_degree.prob"
    bad.write_text("[problem]\nindependents = t, x\ndependents = u\n"
                   "lagrangian = 1/2*u_t^2 - 1/2*u_x^2\norder = 1\n\n"
                   "[ansatz]\ngauge_degree = 100000\n\n"
                   "[generators]\nG1 = eta_u: 1\n")
    with deadline(2):
        code, out = run(capsys, "verify", str(bad))
    assert code == 2
    assert "ansatz degree 100000" in out
    time_like = tmp_path / "time_like.prob"
    time_like.write_text("[problem]\nindependents = x\ndependents = y\n"
                         "lagrangian = 1/2*y'^2\norder = 1\n\n"
                         "[ansatz]\ngauge_degree = 100000\n\n"
                         "[generators]\nG1 = eta: 1\n")
    with deadline(2):
        code, out = run(capsys, "verify", str(time_like))
    assert code == 0
    assert "G1: gauge (0)" in out and "REJECTED" not in out


def test_time_like_verify_reads_no_gauge_key(tmp_path, monkeypatch, capsys):
    """A time-like gauge is the antiderivative of the candidate's residual,
    so the file's gauge keys cap nothing.  On the free particle, eta =
    y'^5 is accepted with its gauge 5/6*y'^6, of degree 6 and jet order 1,
    and eta = t*y'^2 is rejected: its residual 2*t*y'^2*y'' + y'^3 is no
    total derivative.  The bytes are the same under either ``[ansatz]``."""
    outputs = []
    for k, ansatz in enumerate(("gauge_degree = 6\ngauge_jet_order = 0\n",
                                "gauge_degree = 100000\n")):
        where = tmp_path / str(k)
        where.mkdir()
        (where / "free.prob").write_text(
            "[problem]\nindependents = t\ndependents = y\n"
            "lagrangian = 1/2*y'^2\norder = 1\n\n"
            f"[ansatz]\n{ansatz}\n"
            "[generators]\nA = eta: y'^5\nB = eta: t*y'^2\n")
        monkeypatch.chdir(where)
        with deadline(2):
            code, out = run(capsys, "verify", "free.prob", "--json",
                            "--deterministic")
        assert code == 1
        outputs.append(out)
    assert outputs[0] == outputs[1]
    a, b = json.loads(outputs[0])["generators_checked"]
    assert a["admits_gauge"] and a["verified"]
    assert a["gauge"] == ["5/6*y'^6"] and a["law"] == ["-1/6*y'^6"]
    assert not b["admits_gauge"] and "gauge" not in b


@pytest.mark.parametrize("gauge, flags",
                         [("off", ()), ("on", ("--no-gauge",))])
def test_gauge_off_ignores_the_gauge_degree(tmp_path, capsys, gauge, flags):
    """With the gauge off, by the file or by ``--no-gauge``, no gauge slot
    is built, so a gauge degree past the slot bound is never enumerated:
    the search runs and lists what it lists at gauge degree 4."""
    records = []
    for degree in (200, 4):
        path = tmp_path / f"gauge_{degree}.prob"
        path.write_text("[problem]\nindependents = t\ndependents = x, y\n"
                        "lagrangian = 1/2*x'^2 + 1/2*y'^2\norder = 1\n\n"
                        f"[ansatz]\ngauge = {gauge}\n"
                        f"gauge_degree = {degree}\n")
        with deadline(10):
            code, out = run(capsys, "integrals", str(path), *flags,
                            "--json", "--deterministic")
        assert code == 0
        record = json.loads(out)
        assert record.pop("file") == str(path)
        assert record["ansatz"].pop("gauge_degree") == degree
        records.append(record)
    assert records[0] == records[1]
    assert len(records[0]["solutions"]) == 5


def test_numcheck_overflowing_integral_fails_cleanly(tmp_path, capsys):
    cubic = tmp_path / "cubic.prob"
    cubic.write_text("[problem]\nindependents = t\ndependents = y\n"
                     "lagrangian = 1/2*y'^2 + y^3\norder = 1\n")
    code, out = run(capsys, "numcheck", str(cubic))
    assert code == 1
    assert "max drifts inf -> FAIL" in out
    assert "ok" not in out.split("numeric check:")[1]


@pytest.mark.parametrize("lagrangian,bits", [
    ("1/2*y'^2 - 2^1100*y^2", 1102),   # in the solved form y'' = -2^1101*y
    ("1/2*y'^2 + 2^1100*y'", 1101),    # in the momentum law
])
def test_numcheck_refuses_coefficients_beyond_float_range(tmp_path, capsys,
                                                          lagrangian, bits):
    big = tmp_path / "big.prob"
    big.write_text("[problem]\nindependents = t\ndependents = y\n"
                   f"lagrangian = {lagrangian}\norder = 1\n\n"
                   "[ansatz]\ndegree = 1\n")
    with deadline(1):
        code, out = run(capsys, "numcheck", str(big), "--horizon", "0.05")
    assert code == 2
    assert f"a coefficient of {bits} bits is beyond floating point range" in out
    code, out = run(capsys, "integrals", str(big))
    assert code == 0


@pytest.mark.parametrize("flag,value,field", [
    ("--horizon", "inf", "horizon"),
    ("--tol", "nan", "tolerance"),
    ("--step", "nan", "step"),
])
def test_numcheck_non_finite_setting_exits_2(capsys, flag, value, field):
    code, out = run(capsys, "numcheck", OSC, flag, value)
    assert code == 2
    assert f"{field} must be finite" in out


def test_numeric_section_infinite_horizon_exits_2(tmp_path, capsys):
    bad = tmp_path / "inf_horizon.prob"
    bad.write_text("[problem]\nindependents = t\ndependents = q\n"
                   "lagrangian = 1/2*q'^2 - 1/2*q^2\norder = 1\n\n"
                   "[numeric]\nhorizon = inf\n")
    code, out = run(capsys, "numcheck", str(bad))
    assert code == 2
    assert "horizon must be finite" in out


def test_numeric_section_tiny_step_exits_2(tmp_path, capsys):
    # 10^10 RK4 steps would exhaust memory; the file is refused on load,
    # whatever the command.
    bad = tmp_path / "tiny_step.prob"
    bad.write_text("[problem]\nindependents = t\ndependents = q\n"
                   "lagrangian = 1/2*q'^2 - 1/2*q^2\norder = 1\n\n"
                   "[numeric]\nstep = 1e-9\n")
    code, out = run(capsys, "symmetries", str(bad))
    assert code == 2
    assert "bad numeric config: horizon / step must be at most" in out


@pytest.mark.parametrize("argv", [
    ["integrals", FIELD], ["verify", FIELD], ["verify", FREE],
    ["numcheck", OSC], ["numcheck", str(ROOT / "tests/data/degenerate.prob")],
    ["symmetries", "no_such_file.prob"],
])
def test_text_and_exit_code_read_from_json(argv):
    args = build_parser().parse_args(argv)
    code, text, result = run_file(args.command, args.files[0], args)
    record = json.loads(json.dumps(result))
    assert render(record) == text
    if "error" in record:
        assert code == 2
    else:
        assert exit_code(record) == code
        assert record["status"] == ("ok" if code == 0 else "failed")


def test_exit_code_of_a_record():
    assert exit_code({}) == 0
    rejected = {"name": "G", "admits_gauge": False}
    assert exit_code({"generators_checked": [rejected]}) == 1
    assert exit_code({"generators_checked": [{"verified": False}]}) == 1
    assert exit_code({"generators_checked": [{"verified": True}]}) == 0
    assert exit_code({"laws_checked": [{"verified": None}]}) == 1
    assert exit_code({"laws_checked": [{"verified": True}]}) == 0

    def numeric(passes, truncated):
        return {"numeric": {"runs": [{"passes": passes,
                                      "truncated": truncated}]}}
    assert exit_code(numeric([True, True], False)) == 0
    assert exit_code(numeric([True, False], False)) == 1
    assert exit_code(numeric([True], True)) == 1


def _renamed_free_particle(tmp_path, independent, dependent):
    """problems/free_particle.prob with x and y renamed."""
    text = re.sub(r"\bx\b", independent, Path(FREE).read_text())
    renamed = tmp_path / "renamed.prob"
    renamed.write_text(re.sub(r"\by\b", dependent, text))
    return str(renamed)


def _json_text(capsys, *argv):
    """Exit code and the deterministic JSON result without its file name."""
    code, out = run(capsys, *argv, "--json", "--deterministic")
    payload = json.loads(out)
    del payload["file"]
    return code, json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("command", ["integrals", "numcheck"])
def test_dependent_named_c0(tmp_path, capsys, command):
    code, got = _json_text(capsys, command,
                           _renamed_free_particle(tmp_path, "x", "c0"))
    assert code == 0, got
    _, ref = _json_text(capsys, command, FREE)
    assert got.replace("c0", "y") == ref


def test_independent_named_c1_verifies(tmp_path, capsys):
    code, got = _json_text(capsys, "verify",
                           _renamed_free_particle(tmp_path, "c1", "y"))
    assert code == 0, got
    _, ref = _json_text(capsys, "verify", FREE)
    assert got.replace("c1", "x") == ref


def test_deeply_nested_lagrangian_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.prob"
    deep.write_text("[problem]\nindependents = x\ndependents = y\n"
                    f"lagrangian = {'(' * 3000}y'{')' * 3000}\norder = 1\n")
    code, out = run(capsys, "integrals", str(deep))
    assert code == 2
    assert "'lagrangian'" in out and "nested too deeply" in out


@pytest.mark.parametrize("order", ["20000", "50000", str(10 ** 30)])
def test_huge_order_exits_2_before_building(tmp_path, capsys, order):
    # The jet space of order 2*order + 2 would take seconds to gigabytes.
    bad = tmp_path / "order.prob"
    bad.write_text("[problem]\nindependents = x\ndependents = y\n"
                   f"lagrangian = 1/2*y'^2\norder = {order}\n")
    with deadline(1):
        code, out = run(capsys, "symmetries", str(bad))
    assert code == 2
    assert f"field 'order' is {order}, above the bound 100" in out


@pytest.mark.parametrize("independents,dependent,order,argv,words", [
    # Deriving E(L) exceeded the interpreter's stack.
    ("t", "y", 1000, (), "above the bound 100"),
    # E(L) passed, but the search exceeded the stack.
    ("t", "y", 980, ("--degree", "0", "--no-gauge"), "above the bound 100"),
    # The search's packing grows with the square of the variable count.
    ("t, x, z", "u", 20, ("--degree", "0", "--no-gauge"),
     "would hold 14193 variables, above the bound 5000"),
])
def test_jet_space_bounds_exit_2_before_building(tmp_path, capsys,
                                                 independents, dependent,
                                                 order, argv, words):
    lagrangian = (dependent + "'" * order + "^2" if independents == "t"
                  else dependent + "_" + "t" * order)
    bad = tmp_path / "order.prob"
    bad.write_text(f"[problem]\nindependents = {independents}\n"
                   f"dependents = {dependent}\nlagrangian = {lagrangian}\n"
                   f"order = {order}\n")
    with deadline(1):
        code, out = run(capsys, "symmetries", str(bad), *argv)
    assert code == 2
    assert f"field 'order' is {order}" in out and words in out


def _capped_address_space():
    # A loader that read an endless file whole would fill this, not the
    # machine, and end in MemoryError.
    import resource
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, hard))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_file_exits_2_at_the_file_bound(capsys):
    """An endless stream is refused after ``MAX_FILE_CHARS`` characters:
    exit code 2 and a message naming the bound, no traceback."""
    words = f"longer than the bound of {MAX_FILE_CHARS} characters"
    proc = subprocess.run(
        [sys.executable, "-m", "noether.cli", "integrals", "/dev/zero"],
        capture_output=True, text=True, env=child_env(), timeout=120,
        preexec_fn=_capped_address_space)
    assert proc.returncode == 2, proc.stderr
    assert words in proc.stdout and "Traceback" not in proc.stderr
    with deadline(1):
        code, out = run(capsys, "integrals", "/dev/zero")
    assert code == 2 and words in out


def test_file_bound_counts_characters(tmp_path, capsys):
    """A valid problem padded with a comment to exactly ``MAX_FILE_CHARS``
    characters loads; one character more exits 2."""
    text = Path(FREE).read_text(encoding="utf-8")
    pad = MAX_FILE_CHARS - len(text) - len("#\n")
    at = tmp_path / "at_bound.prob"
    at.write_text(text + "#" + "x" * pad + "\n", encoding="utf-8")
    over = tmp_path / "over_bound.prob"
    over.write_text(text + "#" + "x" * (pad + 1) + "\n", encoding="utf-8")
    assert len(at.read_text(encoding="utf-8")) == MAX_FILE_CHARS
    assert _json_text(capsys, "verify", str(at)) == \
        _json_text(capsys, "verify", FREE)
    with deadline(1):
        code, out = run(capsys, "verify", str(over))
    assert code == 2
    assert f"longer than the bound of {MAX_FILE_CHARS} characters" in out


@pytest.mark.parametrize("power", ["(y + x)^3000", "(y + x + y')^150"])
def test_runaway_expansion_exits_2(tmp_path, capsys, power):
    bad = tmp_path / "power.prob"
    bad.write_text("[problem]\nindependents = x\ndependents = y\n"
                   f"lagrangian = 1/2*y'^2 + {power}\norder = 1\n")
    with deadline(1):
        code, out = run(capsys, "symmetries", str(bad))
    assert code == 2
    assert "field 'lagrangian'" in out
    assert "expansion could exceed 1000 terms" in out


@pytest.mark.parametrize("argv,code", [
    (["verify", FREE, "--json", "--deterministic"], 0),
    (["verify", FIELD], 1),
    (["--help"], 0),
])
def test_closed_stdout_pipe_ends_quietly(argv, code):
    # Buffered, the output waits in stdout's buffer until the final flush.
    for buffered in (True, False):
        env = child_env()
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "noether.cli", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()   # the reader is gone before the first write
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (code, ""), buffered


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of ``main`` in this process; argparse's
    exits are read from the SystemExit it raises."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _as_process(argv):
    proc = subprocess.run([sys.executable, "-m", "noether.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["verify", FREE, "--json", "--deterministic"], 0),
    (["verify", FIELD], 1),
    (["verify", str(ROOT / "tests" / "data" / "unknown_variable.prob")], 2),
    (["frobnicate", FREE], 2),
    (["symmetries", FREE, "--jobs", "0"], 2),
], ids=["passes", "check-fails", "bad-file", "usage-error", "jobs-0"])
def test_process_exit_matches_main(capsys, argv, code):
    result = _in_process(capsys, argv)
    assert result[0] == code
    assert _as_process(argv) == result


def test_usage_error_prints_usage_on_stderr():
    code, out, err = _as_process(["frobnicate", FREE])
    assert code == 2 and out == ""
    assert err.startswith("usage: noether ")
    assert "invalid choice: 'frobnicate'" in err


def test_output_past_a_pipe_buffer_arrives_whole(capsys):
    argv = ["verify", *[FREE] * 40, "--json", "--deterministic"]
    code, out, _ = _as_process(argv)
    assert code == 0 and len(out.encode()) > 64 * 1024
    assert len(json.loads(out)) == 40
    assert out == _in_process(capsys, argv)[1]


def test_jobs_is_a_usage_error(capsys):
    """Several files run one after another in one process; ``--jobs`` is
    no option, so argparse refuses it, in process and as a process."""
    argv = ["symmetries", FREE, PLANAR, "--jobs", "2"]
    code, out, err = _as_process(argv)
    assert _in_process(capsys, argv) == (code, out, err)
    assert code == 2 and out == ""
    assert err.startswith("usage: noether ")
    assert "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err


def test_process_pool_imported_only_when_started():
    # Every run is one process, so the CLI never loads a process pool.
    probe = ("import sys, noether.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=child_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_PROBLEM = ("[problem]\nindependents = x\ndependents = y\n"
            "lagrangian = 1/2*y'^2\norder = 1\n")


@pytest.mark.parametrize("text, names", [
    (_PROBLEM + "[extra]\nk = 1\n", "unknown section(s): extra"),
    ("[ansatz]\ndegree = 2\n", "missing [problem] section"),
    (_PROBLEM + "speed = 1\n", "unknown [problem] key(s): speed"),
    (_PROBLEM.replace("order = 1\n", ""), "[problem] field 'order'"),
    (_PROBLEM.replace("y\n", ",\n", 1), "field 'dependents' must list"),
    (_PROBLEM.replace("y\n", "y, y\n", 1), "field 'dependents' repeats"),
    (_PROBLEM.replace("y\n", "y y_1\n", 1), "bad variable name 'y_1'"),
    (_PROBLEM + "[ansatz]\ngauge = maybe\n", "field 'ansatz.gauge'"),
    (_PROBLEM + "[ansatz]\ndegree = two\n", "field 'ansatz.degree'"),
    (_PROBLEM + "[numeric]\nstep = fast\n", "field 'numeric.step'"),
    (_PROBLEM + "[ansatz]\nwidth = 3\n", "unknown [ansatz] key(s): width"),
    (_PROBLEM + "[numeric]\nsteps = 3\n", "unknown [numeric] key(s): steps"),
    (_PROBLEM + "[generators]\nG = eta_y 1\n", "generator 'G'"),
    (_PROBLEM + "[generators]\nG = eta_q: 1\n",
     "generator 'G': 'eta_q' names no declared variable"),
    (_PROBLEM + "[generators]\nG = zeta: 1\n", "generator 'G'"),
    (_PROBLEM + "[generators]\nG = eta_y: 1; eta: y\n",
     "generator 'G': duplicate coefficient for 'y'"),
    (_PROBLEM + "[laws]\nI = y', y\n", "law 'I' needs 1 component(s)"),
    (_PROBLEM + "order = 2\n", "option 'order' in section 'problem'"),
], ids=["unknown-section", "no-problem-section", "unknown-problem-key",
        "missing-field", "empty-names", "repeated-name", "bad-name",
        "bad-on-off", "bad-integer", "bad-number", "unknown-ansatz-key",
        "unknown-numeric-key", "piece-without-colon", "key-names-nothing",
        "malformed-key", "duplicate-coefficient", "law-component-count",
        "duplicate-key"])
def test_problem_refusals_exit_2_by_name(tmp_path, capsys, text, names):
    path = tmp_path / "bad.prob"
    path.write_text(text)
    code = main(["verify", str(path), "--json", "--deterministic"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert names in json.loads(out)["error"]


def test_empty_generator_pieces_are_skipped(tmp_path):
    from noether import load_problem
    path = tmp_path / "pieces.prob"
    path.write_text(_PROBLEM + "[generators]\nG = eta_y: 1\n"
                    "H = ; eta_y: 1;; ;\n")
    (_, plain), (_, padded) = load_problem(str(path)).candidates
    assert padded == plain and len(plain.eta) == 1


def test_snapshot_records_every_command_and_flag_set(tmp_path, monkeypatch,
                                                     capsys):
    """``tests/snapshot.py`` writes what the CLI prints, one directory per
    command and flag set, one per command over all paths, and one per
    exit of argparse's."""
    import snapshot
    path = "problems/free_particle.prob"
    assert path in snapshot.bundled()
    monkeypatch.setenv("COLUMNS", "80")   # the width argparse wraps help to
    assert snapshot.write_snapshot(tmp_path, [path]) == 18
    monkeypatch.chdir(ROOT)
    for name, code in (("help", 0), ("usage_error", 2)):
        where = tmp_path / "argparse" / name
        result = _in_process(capsys, list(snapshot.PARSER_RUNS[name]))
        assert result[0] == code
        assert result == (int((where / "exit").read_text()),
                          (where / "stdout").read_text(),
                          (where / "stderr").read_text())

    def same_as_main(where, argv):
        code = main([*argv, "--json", "--deterministic"])
        assert (where / "exit").read_text() == f"{code}\n"
        out, err = capsys.readouterr()
        assert (where / "stdout").read_text() == out
        assert (where / "stderr").read_text() == err == ""

    for command in snapshot.COMMANDS:
        for flags in snapshot.FLAG_SETS:
            same_as_main(tmp_path / "problems__free_particle.prob" / (
                command + "".join(flags).replace("-", "_")),
                [command, path, *flags])
        same_as_main(tmp_path / "files" / command, [command, path])


_LOC_SNIPPET = '''"""Module docstring,
over two lines."""
# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    text = """a string
over two lines"""
    return x


class C:
    "Class docstring" " in two pieces"
    y = 1
'''


def test_loc_counts_lines_holding_code(tmp_path, capsys):
    """``tests/loc.py`` counts the lines holding a token that is neither a
    comment nor a docstring: every line of a multi-line string that is not
    a docstring, no blank, comment or docstring line.  The last line
    counts only the modules that ``import noether.cli`` loads: in this
    checkout, all but ``numeric`` and ``library``."""
    import loc
    assert loc.code_lines(_LOC_SNIPPET) == 7
    package = tmp_path / "noether"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("from . import snippet\n")
    (package / "snippet.py").write_text(_LOC_SNIPPET)
    (package / "unused.py").write_text("x = 1\n")
    assert loc.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "     0  __init__.py\n     1  cli.py\n     7  snippet.py\n"
        "     1  unused.py\n     9  total\n     8  import noether.cli\n")
    assert loc.main([]) == 0
    counts = {name: int(n) for n, name in (
        line.split(None, 1) for line in capsys.readouterr().out.splitlines())}
    assert counts["import noether.cli"] == (
        counts["total"] - counts["numeric.py"] - counts["library.py"])
