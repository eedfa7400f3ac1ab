"""CLI surface: argument grammar, exit codes, and output formats.

Most tests call main() in-process so exit paths are easy to assert; one
subprocess test confirms the installed entry point wires up the same way.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import hjts.duality
import hjts.harness
from hjts.cli import main
from hjts.errors import ConvergenceError, SingularityError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_stdout_report(capsys):
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1",
                             "--suites", "jordan,duality", "--points", "3")
    assert code == 0
    doc = json.loads(out)  # stdout carries nothing but the report
    assert doc["schema"] == "hjts-report/1"
    assert doc["all_pass"] is True
    assert {r["suite"] for r in doc["results"]} == {"jordan", "duality"}
    assert "suite cells" in err


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--kind", "IV:3", "--suites", "jordan",
                             "--points", "2", "--seed", "9", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["seed"] == 9


def test_verify_multiple_kinds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "I:1,1", "--kind", "III:2",
                           "--suites", "jordan", "--points", "2")
    assert code == 0
    assert {r["kind"] for r in json.loads(out)["results"]} == {"I:1,1", "III:2"}


def test_verify_all_uses_default_kinds(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--suites", "jordan", "--points", "1")
    assert code == 0
    kinds = {r["kind"] for r in json.loads(out)["results"]}
    assert kinds == {"I:1,1", "I:2,2", "I:1,3", "II:4", "III:3", "IV:4",
                     "prod(I:1,1;IV:3)"}


def test_verify_tolerance_failure_is_exit_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "duality",
                             "--points", "2", "--tol-exact", "1e-30")
    assert code == 1
    assert json.loads(out)["all_pass"] is False
    assert "FAIL" in err


def test_verify_consistency_failure_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(hjts.duality, "ROUTE_AGREEMENT_LIMIT", 0.0)
    code, out, err = run_cli(capsys, "verify", "--kind", "I:2,2",
                             "--suites", "duality", "--points", "2")
    assert code == 2
    assert json.loads(out)["consistency_failure"]["suite"] == "duality"
    assert "consistency" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--kind", "I:0,2"),
    ("verify", "--kind", "nonsense"),
    ("verify", "--kind", "I:1,1", "--suites", "jordan,bogus"),
    ("verify", "--kind", "I:1,1", "--points", "0"),
    ("verify", "--kind", "I:1,1", "--boundary-cap", "1.5"),
])
def test_verify_config_errors_are_exit_3(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err != ""


def test_verify_fd_step_too_large_for_cap_is_exit_3(capsys):
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "symplectic",
                             "--fd-step", "1e-2")
    assert code == 3
    assert out == ""  # rejected before any sample runs
    assert "fd_step 0.01" in err and "boundary_cap 0.95" in err


def test_verify_fd_step_1e_3_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "symplectic,volume",
                           "--points", "2", "--fd-step", "1e-3")
    assert code == 0
    assert json.loads(out)["config"]["fd_step"] == 1e-3


@pytest.mark.parametrize("error, traceback_shown", [
    (ConvergenceError("hermitian eigensolve exceeded the sweep cap", 1e-3), False),
    (SingularityError("matrix is exactly singular"), False),
    (ZeroDivisionError("float division by zero"), True),
], ids=["ConvergenceError", "SingularityError", "unexpected"])
def test_verify_internal_failures_are_exit_2(capsys, monkeypatch, error, traceback_shown):
    def failing_sample(kind, config, rng, sample_index):
        raise error
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, "jordan", failing_sample)
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "jordan",
                             "--points", "1")
    assert code == 2
    assert out == ""
    assert type(error).__name__ in err and str(error) in err
    assert ("Traceback" in err) == traceback_shown


def test_unparsable_flags_are_exit_3():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--bogus"])
    assert info.value.code == 3


def test_empty_suites_is_a_passing_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "")
    assert code == 0
    assert json.loads(out)["results"] == []


def test_no_subcommand_prints_help_exit_3(capsys):
    code, _, err = run_cli(capsys)
    assert code == 3
    assert "verify" in err


# ---------------------------------------------------------------------------
# psi

def test_psi_disc_golden(capsys):
    code, out, _ = run_cli(capsys, "psi", "--kind", "I:1,1", "--point", "[0.6]")
    assert code == 0
    doc = json.loads(out)
    assert doc["psi"] == [[pytest.approx(0.75, abs=1e-12), 0.0]]
    assert doc["psi_inverse_psi"][0][0] == pytest.approx(0.6, abs=1e-12)
    assert doc["round_trip_error"] < 1e-12


def test_psi_complex_pairs(capsys):
    code, out, _ = run_cli(capsys, "psi", "--kind", "I:2,2",
                           "--point", "[[0.1,0.2],[0,0],[0.3,0],[0,-0.1]]")
    assert code == 0
    assert json.loads(out)["round_trip_error"] < 1e-12


@pytest.mark.parametrize("point", ["not json", "{}", "[1,2]", '[[1,2,3]]', "[true]"])
def test_psi_bad_point_exit_3(capsys, point):
    code, _, err = run_cli(capsys, "psi", "--kind", "I:1,1", "--point", point)
    assert code == 3
    assert err != ""


def test_psi_outside_domain_exit_3(capsys):
    code, _, err = run_cli(capsys, "psi", "--kind", "I:1,1", "--point", "[1.5]")
    assert code == 3
    assert "interior" in err


# ---------------------------------------------------------------------------
# sample

def test_sample_reproducible(capsys):
    code, out1, _ = run_cli(capsys, "sample", "--kind", "IV:4", "--count", "5", "--seed", "7")
    assert code == 0
    doc = json.loads(out1)
    assert doc["kind"] == "IV:4" and doc["rng"] == "philox4x64"
    assert len(doc["points"]) == 5 and len(doc["points"][0]) == 4
    code, out2, _ = run_cli(capsys, "sample", "--kind", "IV:4", "--count", "5", "--seed", "7")
    assert out2 == out1


def test_sample_points_are_interior(capsys):
    from hjts.jts import Element, in_domain
    from hjts.kinds import parse_kind
    code, out, _ = run_cli(capsys, "sample", "--kind", "II:4", "--count", "4",
                           "--boundary-cap", "0.5")
    assert code == 0
    kind = parse_kind("II:4")
    for entry in json.loads(out)["points"]:
        coords = np.array([complex(re, im) for re, im in entry])
        assert in_domain(Element(kind, coords))


def test_sample_bad_count_exit_3(capsys):
    code, _, _ = run_cli(capsys, "sample", "--kind", "II:4", "--count", "0")
    assert code == 3


# ---------------------------------------------------------------------------
# installed entry point

def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "hjts", "psi", "--kind", "I:1,1", "--point", "[0.6]"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["psi"][0][0] == pytest.approx(0.75, abs=1e-12)
