"""Verification harness: sampling, suite orchestration, report determinism."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import hjts.duality
import hjts.geometry
import hjts.harness
import hjts.kinds as K
from hjts.errors import ConsistencyError, ContractError
from hjts.geometry import check_symplectic_duality
from hjts.harness import (
    DEFAULT_KINDS,
    SUITE_NAMES,
    SuiteConfig,
    random_isotropy,
    run_suite,
    sample_domain,
)
from hjts.jts import in_domain, isotropy_action, m1_norm, zero
from hjts.spectral import spectral_values

FAST_KINDS = (K.TypeI(1, 1), K.TypeIV(3), K.Product((K.TypeI(1, 1), K.TypeIV(3))))
FAST_SUITES = ("jordan", "spectral", "duality", "equivariance", "hereditary")


def strip_wall(text):
    return re.sub(r'"wall_time_s": [0-9.eE+-]+', '"wall_time_s": X', text)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SuiteConfig(kinds=FAST_KINDS, seed=11, points=3, suites=FAST_SUITES))


# ---------------------------------------------------------------------------
# sampling

@pytest.mark.parametrize("kind", list(DEFAULT_KINDS))
def test_sample_domain_caps_and_membership(kind):
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = sample_domain(kind, rng, 0.7)
        lam1 = spectral_values(z)[0]
        assert 0.0 < lam1 <= 0.7 + 1e-12
        assert in_domain(z)


@pytest.mark.parametrize("cap", [0.0, 1.0, math.nan, "0.5", None, 0.5 + 0j])
def test_sample_domain_rejects_a_cap_outside_the_open_interval(cap):
    with pytest.raises(ContractError, match="boundary_cap"):
        sample_domain(K.TypeI(2, 2), np.random.default_rng(0), cap)
    sample_domain(K.TypeI(2, 2), np.random.default_rng(0), np.float64(0.5))


def test_sample_domain_deterministic():
    a = sample_domain(K.TypeII(4), np.random.default_rng(42), 0.9)
    b = sample_domain(K.TypeII(4), np.random.default_rng(42), 0.9)
    assert np.array_equal(a.coords, b.coords)


def test_random_isotropy_fixes_origin():
    rng = np.random.default_rng(1)
    for kind in DEFAULT_KINDS:
        params = random_isotropy(kind, rng)
        assert m1_norm(isotropy_action(params, zero(kind))) == 0.0


# ---------------------------------------------------------------------------
# configuration

def test_config_defaults():
    cfg = SuiteConfig()
    assert cfg.kinds == DEFAULT_KINDS
    assert cfg.suites == SUITE_NAMES
    assert cfg.seed == 0 and cfg.points == 100
    assert cfg.boundary_cap == 0.95


def test_config_to_dict_has_one_key_per_field():
    doc = SuiteConfig().to_dict()
    assert sorted(doc) == sorted(field.name for field in dataclasses.fields(SuiteConfig))
    assert doc["kinds"] == [K.format_kind(kind) for kind in DEFAULT_KINDS]
    assert doc["suites"] == list(SUITE_NAMES)


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(seed=2**64), dict(seed=1.5), dict(seed=True),
    dict(seed=None), dict(seed="0"), dict(seed=math.nan),
    dict(points=0), dict(points=2.0), dict(points=-1), dict(points=True), dict(points=None),
    dict(boundary_cap=0.0), dict(boundary_cap=1.0), dict(boundary_cap="0.5"),
    dict(boundary_cap=None), dict(boundary_cap=0.5 + 0j),
    dict(boundary_cap=-0.5), dict(boundary_cap=math.nan), dict(boundary_cap=math.inf),
    dict(boundary_cap=True),
    dict(suites=("jordan", "nope")), dict(suites=("jordan", None)),
    # values that would fail only mid-run
    dict(kinds=("I:1,1",), suites=("jordan",)),
    dict(kinds=(K.TypeI(1, 1), None), suites=("jordan",)),
    # a repeat would report two cells under one (kind, suite) label
    dict(kinds=(K.TypeI(1, 1), K.TypeIV(3), K.TypeI(1, 1)), suites=("jordan",)),
    dict(suites=("jordan", "duality", "jordan")),
])
def test_config_validation(bad):
    with pytest.raises(ContractError):
        SuiteConfig(**{"kinds": FAST_KINDS, **bad})


@pytest.mark.parametrize("good", [
    dict(boundary_cap=np.float32(0.5)), dict(boundary_cap=np.float64(0.5)),
    dict(boundary_cap=np.float16(0.5)),
    dict(points=np.int64(3)), dict(points=np.uint8(3)),
    dict(seed=np.uint64(2 ** 64 - 1)), dict(seed=np.int64(0)),
    dict(seed=np.int32(5), points=np.int16(2), boundary_cap=np.float32(0.25)),
], ids=lambda good: "-".join(f"{k}={type(v).__name__}" for k, v in good.items()))
def test_config_validation_accepts_numpy_scalars_as_python_numbers(good):
    cfg = SuiteConfig(**{"kinds": FAST_KINDS, **good})
    for name, value in good.items():
        stored = getattr(cfg, name)
        assert type(stored) is (int if name in ("seed", "points") else float)
        assert stored == float(value) if type(stored) is float else stored == int(value)


@pytest.mark.parametrize("call, knob", [
    *((SuiteConfig, knob) for knob in ("tangent_pairs", "fd_step", "tol_exact", "tol_fd")),
    (lambda **knob: check_symplectic_duality(zero(K.TypeI(1, 1)), **knob), "tangent_pairs"),
], ids=["SuiteConfig.tangent_pairs", "SuiteConfig.fd_step", "SuiteConfig.tol_exact",
        "SuiteConfig.tol_fd", "check_symplectic_duality.tangent_pairs"])
def test_a_run_takes_no_step_tangent_count_or_tolerance(call, knob):
    # each suite's tolerance is its _SUITES row, the lemma suites run at the
    # default step and the symplectic check always draws 8 tangent pairs
    with pytest.raises(TypeError, match=knob):
        call(**{knob: 1})


def test_numpy_scalar_config_round_trips_through_json():
    numpy = SuiteConfig(kinds=(K.TypeI(np.int64(1), np.uint64(2)), K.TypeIV(np.int32(3))),
                        seed=np.uint64(9), points=np.int64(2), boundary_cap=np.float32(0.5),
                        suites=("spectral", "symplectic", "lemma_a1"))
    text = run_suite(numpy).to_json()
    config = json.loads(text)["config"]
    assert config["boundary_cap"] == float(np.float32(0.5)) and config["seed"] == 9
    # the same run from builtin numbers writes the same report
    builtin = SuiteConfig(kinds=(K.TypeI(1, 2), K.TypeIV(3)), seed=9, points=2,
                          boundary_cap=float(np.float32(0.5)),
                          suites=("spectral", "symplectic", "lemma_a1"))
    assert strip_wall(run_suite(builtin).to_json()) == strip_wall(text)


def test_pullback_suites_pass_near_the_boundary():
    # at cap 0.999 the central-difference Jacobian of psi read 0.555 on I:1,3
    # (II:4, III:3 and IV:4 failed too); the exact differential stays at roundoff
    report = run_suite(SuiteConfig(points=50, seed=0, boundary_cap=0.999,
                                   suites=("symplectic", "volume")))
    assert report.all_pass
    assert max(r.max_error for r in report.results) < 1e-9


def test_every_suite_passes_at_cap_0_999():
    # beta_exact once refused a cap of 0.99 or more; no suite binds the cap now,
    # and the three lemma suites read roundoff at lambda_1 up to 0.999
    report = run_suite(SuiteConfig(points=20, seed=0, boundary_cap=0.999))
    assert report.all_pass
    assert {(r.kind, r.suite) for r in report.results} == {
        (K.format_kind(kind), suite) for kind in DEFAULT_KINDS for suite in SUITE_NAMES}
    assert max(r.max_error for r in report.results
               if r.suite in ("lemma_a1", "lemma_a2", "beta_exact")) < 1e-12


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_step_rules_bind_exactly_their_suites(monkeypatch, suite):
    # no suite takes a step, so the step rule binds none: every suite is
    # closed-form (psi's differential and the lemma checks' left-hand sides are
    # exact), and no step reaches the finite-difference oracles' rule in a run
    steps = []
    fd_step = hjts.geometry._fd_step
    monkeypatch.setattr(hjts.geometry, "_fd_step",
                        lambda norm, h: steps.append(h) or fd_step(norm, h))
    report = run_suite(SuiteConfig(points=2, suites=(suite,)))
    assert steps == [] and report.all_pass


def test_each_suite_has_its_tolerance():
    exact, fd = hjts.harness._EXACT, hjts.harness._FD
    assert (exact, fd) == (1e-9, 1e-5)
    expected = {"jordan": 1e-10, "spectral": 1e-8, "duality": exact, "equivariance": exact,
                "hereditary": exact, "volume": 10.0 * fd}  # the report holds this float
    expected = {suite: expected.get(suite, fd) for suite in SUITE_NAMES}
    assert {name: row.tolerance for name, row in hjts.harness._SUITES.items()} == expected
    report = run_suite(SuiteConfig(kinds=(K.TypeI(1, 1),), points=1))
    assert {r.suite: r.tolerance for r in report.results} == expected
    assert report.all_pass


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_cell_passes_up_to_its_suite_tolerance(monkeypatch, suite, above):
    tolerance = hjts.harness._SUITES[suite].tolerance
    error = math.nextafter(tolerance, math.inf) if above else tolerance
    monkeypatch.setitem(hjts.harness._SUITE_EVALS, suite,
                        lambda kind, config, rng, sample_index: error)
    report = run_suite(SuiteConfig(kinds=(K.TypeI(1, 1),), points=2, suites=(suite,)))
    (cell,) = report.results
    assert (cell.max_error, cell.tolerance) == (error, tolerance)
    assert cell.passed is report.all_pass is (not above)


def test_suite_names_and_the_sample_seam_share_one_order():
    # a suite's place in SUITE_NAMES is its spawn-key index, so the order is part of every report
    assert tuple(hjts.harness._SUITE_EVALS) == SUITE_NAMES == (
        "jordan", "spectral", "duality", "equivariance", "hereditary",
        "symplectic", "volume", "lemma_a1", "lemma_a2", "beta_exact")


def test_config_accepts_lists():
    cfg = SuiteConfig(kinds=[K.TypeI(1, 1)], suites=["jordan"])
    assert cfg.kinds == (K.TypeI(1, 1),)
    assert cfg.suites == ("jordan",)


# ---------------------------------------------------------------------------
# running

def test_small_run_passes(small_report):
    assert small_report.all_pass
    assert len(small_report.results) == len(FAST_KINDS) * len(FAST_SUITES)
    for r in small_report.results:
        assert r.passed == (r.max_error <= r.tolerance)


def test_hereditary_skipped_for_spin(small_report):
    by = {(r.kind, r.suite): r for r in small_report.results}
    assert by[("IV:3", "hereditary")].samples == 0
    assert by[("IV:3", "hereditary")].status == "skipped"
    assert by[("prod(I:1,1;IV:3)", "hereditary")].status == "skipped"
    assert by[("I:1,1", "hereditary")].samples == 3
    assert by[("I:1,1", "hereditary")].status == "ok"


@pytest.mark.parametrize("kind, target", [
    *zip(map(K.format_kind, DEFAULT_KINDS),
         ["I:2,2", "I:3,3", "I:2,4", "I:4,4", "I:3,3", None, None]),
    ("prod(I:1,2;III:2)", "I:3,4"),
    ("prod(I:1,1)", "I:1,1"),  # a one-factor product is not type I itself
    ("IV:8", None),
])
def test_hereditary_target_of_each_kind(kind, target):
    got = hjts.harness._hereditary_target(K.parse_kind(kind))
    assert (None if got is None else K.format_kind(got)) == target


def test_report_is_deterministic(small_report):
    again = run_suite(SuiteConfig(kinds=FAST_KINDS, seed=11, points=3, suites=FAST_SUITES))
    assert strip_wall(again.to_json()) == strip_wall(small_report.to_json())


def test_seed_changes_the_numbers(small_report):
    other = run_suite(SuiteConfig(kinds=FAST_KINDS, seed=12, points=3, suites=FAST_SUITES))
    assert strip_wall(other.to_json()) != strip_wall(small_report.to_json())


def test_report_schema(small_report):
    doc = json.loads(small_report.to_json())
    assert doc["schema"] == "hjts-report/2"
    assert doc["rng"] == "philox4x64"
    assert doc["seed"] == 11
    assert doc["all_pass"] is True
    assert doc["consistency_failure"] is None
    assert doc["config"]["kinds"] == ["I:1,1", "IV:3", "prod(I:1,1;IV:3)"]
    for row in doc["results"]:
        assert set(row) == {"kind", "suite", "samples", "max_error",
                            "tolerance", "pass", "status"}
    # canonical ordering by (kind, suite)
    keys = [(row["kind"], row["suite"]) for row in doc["results"]]
    assert keys == sorted(keys)


def test_empty_suites_pass():
    report = run_suite(SuiteConfig(kinds=FAST_KINDS, suites=()))
    assert report.all_pass
    assert report.results == ()


def test_consistency_error_aborts_with_point(monkeypatch):
    monkeypatch.setattr(hjts.duality, "ROUTE_AGREEMENT_LIMIT", 0.0)
    report = run_suite(SuiteConfig(kinds=(K.TypeI(2, 2),), points=4,
                                   suites=("jordan", "duality", "equivariance")))
    assert not report.all_pass
    failure = report.consistency_failure
    assert failure["kind"] == "I:2,2"
    assert failure["suite"] == "duality"
    assert failure["sample_index"] == 0
    assert len(failure["point"]) == 4  # the offending element, re-readable
    doc = json.loads(report.to_json())  # still valid JSON (inf -> null)
    rows = {r["suite"]: r for r in doc["results"]}
    assert rows["duality"]["status"] == "consistency-error"
    assert rows["duality"]["max_error"] is None
    assert rows["duality"]["pass"] is False
    assert rows["jordan"]["pass"] is True    # completed before the abort
    assert "equivariance" not in rows        # never reached


def test_spectral_evaluation_keeps_a_nan_residual(monkeypatch):
    # det B = N^g is the last residual the spectral sample takes
    monkeypatch.setattr(hjts.harness, "det", lambda m: complex(math.nan, 0.0))
    evaluate = hjts.harness._SUITE_EVALS["spectral"]
    assert math.isnan(evaluate(K.TypeI(2, 2), SuiteConfig(), np.random.default_rng(0), 0))


@pytest.fixture
def fresh_genus_cache():
    hjts.harness._checked_genus.cache_clear()
    yield
    hjts.harness._checked_genus.cache_clear()


def test_spectral_suite_computes_each_genus_once(monkeypatch, fresh_genus_cache):
    calls = []
    real_genus = hjts.harness.genus
    monkeypatch.setattr(hjts.harness, "genus", lambda kind: calls.append(kind) or real_genus(kind))
    report = run_suite(SuiteConfig(kinds=FAST_KINDS, seed=11, points=3, suites=("spectral",)))
    assert report.all_pass
    # I:1,1 and IV:3, each also a factor of the product
    assert sorted(map(K.format_kind, calls)) == ["I:1,1", "IV:3"]


def test_genus_consistency_error_carries_each_samples_point(monkeypatch, fresh_genus_cache):
    def off_integer(kind):
        raise ConsistencyError("genus of I:2,2 is not an integer: 4.5")

    monkeypatch.setattr(hjts.harness, "genus", off_integer)
    report = run_suite(SuiteConfig(kinds=(K.TypeI(2, 2),), points=2, suites=("spectral",)))
    failure = report.consistency_failure
    assert failure["suite"] == "spectral" and failure["sample_index"] == 0
    assert "not an integer" in failure["message"]
    assert len(failure["point"]) == 4
    # an error is never cached: the next run raises again on its own sample
    again = run_suite(SuiteConfig(kinds=(K.TypeI(2, 2),), seed=1, points=2, suites=("spectral",)))
    assert again.consistency_failure["point"] != failure["point"]
