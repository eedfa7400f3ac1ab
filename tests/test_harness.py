"""Verification harness: sampling, suite orchestration, report determinism."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import hjts.duality
import hjts.harness
import hjts.kinds as K
from hjts.errors import ConsistencyError, ContractError
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
    assert cfg.points == 100 and cfg.tangent_pairs == 8
    assert cfg.tol_exact == 1e-9 and cfg.tol_fd == 1e-5
    assert cfg.boundary_cap == 0.95


def test_config_to_dict_has_one_key_per_field():
    doc = SuiteConfig().to_dict()
    assert sorted(doc) == sorted(field.name for field in dataclasses.fields(SuiteConfig))
    assert doc["kinds"] == [K.format_kind(kind) for kind in DEFAULT_KINDS]
    assert doc["suites"] == list(SUITE_NAMES)


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(seed=2**64), dict(seed=1.5), dict(seed=True),
    dict(points=0), dict(points=2.0), dict(tangent_pairs=-2),
    dict(tol_exact=0.0), dict(tol_fd=-1e-5), dict(fd_step=0.0),
    dict(boundary_cap=0.0), dict(boundary_cap=1.0), dict(boundary_cap="0.5"),
    dict(boundary_cap=None), dict(boundary_cap=0.5 + 0j),
    dict(suites=("jordan", "nope")),
    # an infinite tolerance passes every cell and writes the non-JSON token
    # Infinity; the step is checked with no finite-difference suite selected
    dict(tol_exact=math.inf), dict(tol_fd=math.inf), dict(tol_fd=math.nan),
    dict(fd_step=math.inf, suites=("jordan", "duality")),
    # values that would fail only mid-run
    dict(tol_exact="1e-9"), dict(kinds=("I:1,1",), suites=("jordan",)),
    dict(kinds=(K.TypeI(1, 1), None), suites=("jordan",)),
    # a repeat would report two cells under one (kind, suite) label
    dict(kinds=(K.TypeI(1, 1), K.TypeIV(3), K.TypeI(1, 1)), suites=("jordan",)),
    dict(suites=("jordan", "duality", "jordan")),
])
def test_config_validation(bad):
    with pytest.raises(ContractError):
        SuiteConfig(**{"kinds": FAST_KINDS, **bad})


@pytest.mark.parametrize("good", [
    dict(fd_step=np.float32(1e-3)), dict(boundary_cap=np.float32(0.5)),
    dict(points=np.int64(3)), dict(seed=np.uint64(2 ** 64 - 1)), dict(tangent_pairs=np.int8(2)),
    dict(tol_exact=np.float32(1e-9)), dict(tol_fd=np.float64(1e-5)), dict(tol_exact=1),
], ids=lambda good: "-".join(f"{k}={type(v).__name__}" for k, v in good.items()))
def test_config_validation_accepts_numpy_scalars_as_python_numbers(good):
    cfg = SuiteConfig(**{"kinds": FAST_KINDS, **good})
    for name, value in good.items():
        stored = getattr(cfg, name)
        assert type(stored) is (int if name in ("seed", "points", "tangent_pairs") else float)
        assert stored == float(value) if type(stored) is float else stored == int(value)


def test_numpy_scalar_config_round_trips_through_json():
    numpy = SuiteConfig(kinds=(K.TypeI(np.int64(1), np.uint64(2)), K.TypeIV(np.int32(3))),
                        seed=np.uint64(9), points=np.int64(2), tangent_pairs=np.int64(2),
                        tol_exact=np.float32(1e-9), tol_fd=np.float64(1e-5),
                        fd_step=np.float32(1e-3), boundary_cap=np.float32(0.5),
                        suites=("spectral", "symplectic", "lemma_a1"))
    text = run_suite(numpy).to_json()
    config = json.loads(text)["config"]
    assert config["fd_step"] == float(np.float32(1e-3)) and config["seed"] == 9
    # the same run from builtin numbers writes the same report
    builtin = SuiteConfig(kinds=(K.TypeI(1, 2), K.TypeIV(3)), seed=9, points=2, tangent_pairs=2,
                          tol_exact=float(np.float32(1e-9)), tol_fd=1e-5,
                          fd_step=float(np.float32(1e-3)), boundary_cap=float(np.float32(0.5)),
                          suites=("spectral", "symplectic", "lemma_a1"))
    assert strip_wall(run_suite(builtin).to_json()) == strip_wall(text)


@pytest.mark.parametrize("step", [1e-8, 0.05])
def test_config_rejects_fd_step_outside_the_step_range(step):
    with pytest.raises(ContractError, match=r"fd_step .* outside \[1e-7, 1e-2\]"):
        SuiteConfig(kinds=FAST_KINDS, fd_step=step, suites=("lemma_a1",))


def test_pullback_suites_run_any_step_and_read_none():
    # psi's differential is exact: a 1e-2 step at the default cap runs, and its
    # report differs from the default step's only in the echoed fd_step
    reports = [json.loads(run_suite(SuiteConfig(kinds=FAST_KINDS, points=3, fd_step=step,
                                                suites=("symplectic", "volume"))).to_json())
               for step in (1e-2, 1e-5)]
    for doc, step in zip(reports, (1e-2, 1e-5)):
        assert doc["config"].pop("fd_step") == step
        del doc["wall_time_s"]
    assert reports[0] == reports[1]


def test_pullback_suites_pass_near_the_boundary():
    # at cap 0.999 the central-difference Jacobian of psi read 0.555 on I:1,3
    # (II:4, III:3 and IV:4 failed too); the exact differential stays at roundoff
    report = run_suite(SuiteConfig(points=50, seed=0, boundary_cap=0.999,
                                   suites=("symplectic", "volume")))
    assert report.all_pass
    assert max(r.max_error for r in report.results) < 1e-9


def test_config_accepts_fd_step_1e_3():
    cfg = SuiteConfig(fd_step=1e-3)
    assert cfg.fd_step == 1e-3


@pytest.mark.parametrize("suite", ["lemma_a1", "lemma_a2", "beta_exact"])
def test_fd_step_range_binds_every_finite_difference_suite(suite):
    with pytest.raises(ContractError, match=r"fd_step 0.05 lies outside \[1e-7, 1e-2\]"):
        SuiteConfig(kinds=FAST_KINDS, fd_step=0.05, suites=FAST_SUITES + (suite,))
    # the range's end is accepted
    SuiteConfig(kinds=FAST_KINDS, fd_step=1e-2, suites=(suite,))


def test_config_rejects_a_cap_beta_exact_would_refuse():
    # beta_exact refuses a sample with lambda_1 >= 0.99, so a cap there is a config error
    for cap in (0.99, 0.999):
        with pytest.raises(ContractError, match=rf"boundary_cap {cap} .* beta_exact"):
            SuiteConfig(kinds=FAST_KINDS, boundary_cap=cap, suites=FAST_SUITES + ("beta_exact",))
    SuiteConfig(kinds=FAST_KINDS, boundary_cap=0.989, suites=("beta_exact",))
    SuiteConfig(kinds=FAST_KINDS, boundary_cap=0.999, suites=("lemma_a1", "lemma_a2"))


FD_SUITES = {"lemma_a1", "lemma_a2", "beta_exact"}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_step_rules_bind_exactly_their_suites(suite):
    # 0.5 is outside the step range
    if suite in FD_SUITES:
        with pytest.raises(ContractError, match="fd_step"):
            SuiteConfig(kinds=FAST_KINDS, fd_step=0.5, suites=(suite,))
    else:
        SuiteConfig(kinds=FAST_KINDS, fd_step=0.5, suites=(suite,))


def test_each_suite_has_its_tolerance():
    report = run_suite(SuiteConfig(kinds=(K.TypeI(1, 1),), points=1,
                                   tol_exact=2e-9, tol_fd=3e-5))
    expected = {"jordan": 1e-10, "spectral": 1e-8, "duality": 2e-9, "equivariance": 2e-9,
                "hereditary": 2e-9, "volume": 10.0 * 3e-5}  # the report holds this float
    assert {r.suite: r.tolerance for r in report.results} == \
        {suite: expected.get(suite, 3e-5) for suite in SUITE_NAMES}
    assert report.all_pass


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
    assert doc["schema"] == "hjts-report/1"
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
