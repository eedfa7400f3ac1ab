"""CLI surface: argument grammar, exit codes, and output formats.

Most tests call main() in-process so exit paths are easy to assert; one
subprocess test confirms that ``python -m hjts`` wires up the same way.  The
installed ``hjts`` console script is smoke-tested in CI after the install step.
"""

import dataclasses
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import hjts.duality
import hjts.harness
from hjts.cli import build_parser, main
from hjts.errors import ConvergenceError, SingularityError
from hjts.harness import SuiteConfig, run_suite, sample_domain


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
    assert doc["schema"] == "hjts-report/2"
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


def test_run_defaults_have_one_source():
    defaults = SuiteConfig()
    args = vars(build_parser().parse_args(["verify"]))
    for field in dataclasses.fields(SuiteConfig):
        if field.name in ("kinds", "suites"):
            continue  # --all / --kind and --suites, which default to None
        value = getattr(defaults, field.name)
        assert args[field.name] == value and type(args[field.name]) is type(value), field.name
    sample = build_parser().parse_args(["sample", "--kind", "I:1,1"])
    assert sample.boundary_cap == defaults.boundary_cap
    assert sample.seed == defaults.seed and type(sample.seed) is type(defaults.seed)
    assert inspect.signature(sample_domain).parameters["boundary_cap"].default \
        == defaults.boundary_cap


def test_a_run_is_its_kinds_seed_points_cap_and_suites():
    run = {"kinds", "seed", "points", "boundary_cap", "suites"}
    assert {field.name for field in dataclasses.fields(SuiteConfig)} == run
    # verify's options beside --out, with --all and --kind both choosing the kinds
    options = set(vars(build_parser().parse_args(["verify"]))) - {"command", "out"}
    assert {"kinds" if name in ("all", "kind") else name for name in options} == run
    report = run_suite(SuiteConfig(suites=()))
    assert set(json.loads(report.to_json())["config"]) == run


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


def test_verify_seed_with_a_sample_near_the_cap_passes_the_pullback_suites(capsys):
    # prod(I:1,1;IV:3) draws spectral values (0.946, 0.936, 0.168) here; the
    # finite-difference dual form read 1.116e-05 against the 1e-05 tolerance
    code, out, _ = run_cli(capsys, "verify", "--all", "--suites", "symplectic,volume",
                           "--points", "1", "--seed", "1799378116914113778")
    assert code == 0
    cell = next(r for r in json.loads(out)["results"]
                if (r["kind"], r["suite"]) == ("prod(I:1,1;IV:3)", "symplectic"))
    assert cell["max_error"] < 1e-06


def test_verify_reports_a_skipped_hereditary_cell(capsys):
    code, out, err = run_cli(capsys, "verify", "--kind", "IV:4", "--suites", "hereditary",
                             "--points", "1")
    assert code == 0
    [row] = json.loads(out)["results"]
    assert (row["samples"], row["status"], row["pass"]) == (0, "skipped", True)
    assert "IV:4  hereditary    skipped (no embedding target)" in err


def test_verify_tolerance_failure_is_exit_1(capsys, monkeypatch):
    above = 2.0 * hjts.harness._SUITES["duality"].tolerance
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, "duality",
                        lambda kind, config, rng, sample_index: above)
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "duality",
                             "--points", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False
    assert "FAIL" in err


@pytest.mark.parametrize("residuals", [(1e-16, math.nan), (math.nan, 1e-16)],
                         ids=["nan-second", "nan-first"])
def test_verify_nan_residual_fails_its_cell_with_exit_1(capsys, monkeypatch, residuals):
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, "jordan",
                        lambda kind, config, rng, sample_index: residuals[sample_index])
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "jordan",
                             "--points", "2")
    assert code == 1
    doc = json.loads(out)
    [cell] = doc["results"]
    assert (cell["pass"], cell["max_error"], cell["status"]) == (False, None, "ok")
    assert doc["consistency_failure"] is None and "FAIL" in err


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
    ("verify", "--kind", "I:1,1", "--boundary-cap", "nan"),
    ("verify", "--kind", "I:1,1", "--seed", "-1"),
    ("verify", "--kind", "I:1,1", "--seed", str(2 ** 64)),
    ("verify", "--kind", "I:1,1", "--suites", "jordan,jordan"),
    ("verify", "--kind", "I:1,1", "--kind", "I:1,1", "--suites", "jordan"),
])
def test_verify_config_errors_are_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""  # rejected before any sample runs
    assert err != ""


@pytest.mark.parametrize("leaf", ["missing/report.json", ""], ids=["no-parent", "a-directory"])
def test_verify_unwritable_out_is_exit_3_before_any_sample(tmp_path, capsys, monkeypatch, leaf):
    def no_sample(kind, config, rng, sample_index):
        raise AssertionError("a sample ran")
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, "jordan", no_sample)
    target = str(tmp_path / leaf)
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "jordan",
                             "--points", "2", "--out", target)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and target in err and "Traceback" not in err


@pytest.mark.parametrize("error, reported", [
    (ConvergenceError("hermitian eigensolve exceeded the sweep cap", 1e-3), True),
    (SingularityError("matrix is exactly singular"), True),
    (ZeroDivisionError("float division by zero"), False),
], ids=["ConvergenceError", "SingularityError", "unexpected"])
def test_verify_internal_failures_are_exit_2(capsys, monkeypatch, error, reported):
    def failing_sample(kind, config, rng, sample_index):
        raise error
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, "jordan", failing_sample)
    code, out, err = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "jordan",
                             "--points", "1")
    assert code == 2
    assert type(error).__name__ in err and str(error) in err
    if not reported:  # an unexpected exception keeps its traceback, and no report
        assert out == ""
        assert "Traceback" in err
        return
    assert "Traceback" not in err
    doc = json.loads(out)  # a kernel failure still writes the report
    assert doc["all_pass"] is False
    failure = doc["consistency_failure"]
    assert (failure["kind"], failure["suite"], failure["sample_index"]) == ("I:1,1", "jordan", 0)
    assert failure["message"] == f"{type(error).__name__}: {error}"
    assert failure["point"] is None  # the failing sample tagged no point
    [cell] = doc["results"]
    assert cell["status"] == "internal-error" and cell["pass"] is False
    assert "internal error in I:1,1/jordan sample 0" in err


def test_verify_kernel_failure_carries_the_tagged_point(capsys, monkeypatch):
    def failing_spread(z):
        raise SingularityError("matrix is exactly singular")
    monkeypatch.setattr(hjts.harness, "psi_route_spread", failing_spread)
    code, out, _ = run_cli(capsys, "verify", "--kind", "I:1,1", "--suites", "duality",
                           "--points", "2")
    assert code == 2
    failure = json.loads(out)["consistency_failure"]
    assert failure["sample_index"] == 0
    assert len(failure["point"]) == 1 and len(failure["point"][0]) == 2


@pytest.mark.parametrize("points", ["3", "20"])
def test_verify_all_at_cap_0_999_runs_beta_exact_and_passes(capsys, points):
    # beta_exact took a finite difference and refused a cap of 0.99 or more as a
    # config error (exit 3); its left-hand side is exact now, so --all runs it
    code, out, err = run_cli(capsys, "verify", "--all", "--boundary-cap", "0.999",
                             "--points", points)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True and doc["config"]["boundary_cap"] == 0.999
    cells = [r for r in doc["results"] if r["suite"] == "beta_exact"]
    assert len(cells) == len(doc["config"]["kinds"]) == 7
    assert all(r["pass"] and r["samples"] == int(points) for r in cells)
    assert all(r["pass"] for r in doc["results"])


@pytest.mark.parametrize("flag, value", [
    ("--bogus", None), ("--points", "3x"),
    # a run takes no step, tangent count or tolerance from the command line
    ("--tangent-pairs", "8"), ("--fd-step", "1e-5"), ("--tol-exact", "1e-9"), ("--tol-fd", "1e-5"),
])
def test_unparsable_flags_are_exit_3(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--kind", "I:1,1", flag] + ([value] if value else []))
    assert info.value.code == 3
    assert ("unrecognized arguments" in capsys.readouterr().err) == (flag != "--points")


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


@pytest.mark.parametrize("point", ["not json", "{}", "[1,2]", '[[1,2,3]]', "[true]",
                                   "[NaN]", "[Infinity]", "[1e400]", "[[0.1,null]]",
                                   '[{"re":0.1}]', "[1" + "0" * 400 + "]"])
def test_psi_bad_point_exit_3(capsys, point):
    # an entry goes through errors.as_real, so a JSON integer beyond the float
    # range is a config error, not an escaped OverflowError
    code, _, err = run_cli(capsys, "psi", "--kind", "I:1,1", "--point", point)
    assert code == 3
    assert err != "" and "Traceback" not in err


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


def test_sample_draws_from_the_seeds_own_philox_stream(capsys):
    from hjts.kinds import parse_kind
    code, out, _ = run_cli(capsys, "sample", "--kind", "III:2", "--count", "3", "--seed", "7")
    assert code == 0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    kind = parse_kind("III:2")
    expected = [sample_domain(kind, rng).coords for _ in range(3)]
    assert json.loads(out)["points"] == [[[c.real, c.imag] for c in p] for p in expected]


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


@pytest.mark.parametrize("flag", [
    ("--count", "0"),
    ("--boundary-cap", "1.5"),
    ("--boundary-cap", "0"),
    ("--boundary-cap", "-0.5"),
    ("--boundary-cap", "nan"),
    ("--seed", "-1"),
    ("--seed", str(2 ** 64)),
], ids=lambda flag: " ".join(flag))
def test_sample_bad_count_exit_3(capsys, flag):
    code, out, err = run_cli(capsys, "sample", "--kind", "II:4", *flag)
    assert code == 3
    assert out == ""
    assert flag[0][2:].replace("-", "_") in err.replace("-", "_")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# installed entry point

def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "hjts", "psi", "--kind", "I:1,1", "--point", "[0.6]"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["psi"][0][0] == pytest.approx(0.75, abs=1e-12)
