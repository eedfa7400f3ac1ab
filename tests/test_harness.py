"""Verification harness: sampling, suite orchestration, report determinism."""

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


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(seed=2**64), dict(seed=1.5), dict(seed=True),
    dict(points=0), dict(points=2.0), dict(tangent_pairs=-2),
    dict(tol_exact=0.0), dict(tol_fd=-1e-5), dict(fd_step=0.0),
    dict(boundary_cap=0.0), dict(boundary_cap=1.0),
    dict(suites=("jordan", "nope")),
    # an infinite tolerance passes every cell and writes the non-JSON token
    # Infinity; the step is checked with no finite-difference suite selected
    dict(tol_exact=math.inf), dict(tol_fd=math.inf), dict(tol_fd=math.nan),
    dict(fd_step=math.inf, suites=("jordan", "duality")),
    # values that would fail only mid-run
    dict(tol_exact="1e-9"), dict(kinds=("I:1,1",), suites=("jordan",)),
    dict(kinds=(K.TypeI(1, 1), None), suites=("jordan",)),
])
def test_config_validation(bad):
    with pytest.raises(ContractError):
        SuiteConfig(**{"kinds": FAST_KINDS, **bad})


@pytest.mark.parametrize("step", [1e-8, 0.05])
def test_config_rejects_fd_step_outside_the_hessian_range(step):
    with pytest.raises(ContractError, match=r"fd_step .* outside \[1e-7, 1e-2\]"):
        SuiteConfig(kinds=FAST_KINDS, fd_step=step, suites=("volume",))


def test_config_rejects_fd_step_too_large_for_the_cap():
    # at lambda_1 = 0.95 a 1e-2 step leaves no ten-step margin to the boundary
    with pytest.raises(ContractError) as info:
        SuiteConfig(kinds=FAST_KINDS, fd_step=1e-2, suites=("symplectic",))
    assert "0.01" in str(info.value) and "0.95" in str(info.value)
    # a lower cap makes room for the same step
    SuiteConfig(kinds=FAST_KINDS, fd_step=1e-2, boundary_cap=0.5, suites=("symplectic",))


def test_config_accepts_fd_step_1e_3():
    cfg = SuiteConfig(fd_step=1e-3)
    assert cfg.fd_step == 1e-3


@pytest.mark.parametrize("suite", ["lemma_a1", "lemma_a2", "beta_exact"])
def test_fd_step_range_binds_every_finite_difference_suite(suite):
    with pytest.raises(ContractError, match=r"fd_step 0.05 lies outside \[1e-7, 1e-2\]"):
        SuiteConfig(kinds=FAST_KINDS, fd_step=0.05, suites=FAST_SUITES + (suite,))
    # the boundary-reach check stays with the Hessian suites
    SuiteConfig(kinds=FAST_KINDS, fd_step=1e-2, suites=(suite,))


def test_config_rejects_a_cap_beta_exact_would_refuse():
    # beta_exact refuses a sample with lambda_1 >= 0.99, so a cap there is a config error
    for cap in (0.99, 0.999):
        with pytest.raises(ContractError, match=rf"boundary_cap {cap} .* beta_exact"):
            SuiteConfig(kinds=FAST_KINDS, boundary_cap=cap, suites=FAST_SUITES + ("beta_exact",))
    SuiteConfig(kinds=FAST_KINDS, boundary_cap=0.989, suites=("beta_exact",))
    SuiteConfig(kinds=FAST_KINDS, boundary_cap=0.999, suites=("lemma_a1", "lemma_a2"))


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
