"""Command-line interface: output modes, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from noether import JetSpace, parse
from noether.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

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


def test_multiple_files_and_jobs(capsys):
    code, out = run(capsys, "symmetries", FREE, PLANAR, "--jobs", "2")
    assert code == 0
    assert "symmetries found: 5" in out
    assert "symmetries found: 8" in out


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
    assert "derivative order 5 exceeds working order 4" in out


def test_numcheck_overflowing_integral_fails_cleanly(tmp_path, capsys):
    cubic = tmp_path / "cubic.prob"
    cubic.write_text("[problem]\nindependents = t\ndependents = y\n"
                     "lagrangian = 1/2*y'^2 + y^3\norder = 1\n")
    code, out = run(capsys, "numcheck", str(cubic))
    assert code == 1
    assert "max drifts inf -> FAIL" in out
    assert "ok" not in out.split("numeric check:")[1]


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
