"""Tests of the benchmark's tracer and per-sample seam.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import Tracer, hjts_modules  # noqa: E402

hjts = run.load_hjts()


def bindings() -> dict:
    """(module, attribute) -> bound object, over every hjts.* namespace."""
    out = {(m.__name__, attr): value
           for m in hjts_modules() for attr, value in vars(m).items()}
    out[("hjts.jts.Element", "__post_init__")] = hjts.jts.Element.__dict__["__post_init__"]
    return out


def test_install_leaves_no_unwrapped_original():
    tracer = Tracer()
    originals = [fn for _, _, fn in tracer.originals().values()]
    with tracer:
        leftover = [key for key, value in bindings().items()
                    if any(value is fn for fn in originals)]
        patched = len(tracer._patched)
        wrapped_post_init = hjts.jts.Element.__dict__["__post_init__"]
    assert leftover == []
    # eigh alone is bound in linalg, spectral and harness: patching only the
    # defining modules would patch one name per function
    assert patched > len(originals) + 1
    assert wrapped_post_init.__wrapped__ is hjts.jts.Element.__dict__["__post_init__"]


def test_uninstall_restores_every_original():
    before = bindings()
    with Tracer():
        during = bindings()
    after = bindings()
    assert any(during[key] is not before[key] for key in before)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_psi_route_spread_records_one_psi_span_per_route():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    z = hjts.harness.sample_domain(hjts.TypeI(2, 2), rng)
    with Tracer() as tracer:
        hjts.duality.psi_route_spread(z)
    psi_spans = [(i, span) for i, span in enumerate(tracer.spans)
                 if span[0].startswith("duality.psi.")]
    routes = sorted(route.value for route in hjts.DualityRoute)
    assert sorted(span[0] for _, span in psi_spans) == [f"duality.psi.{r}" for r in routes]
    expected_child = {
        "duality.psi.bergman-quarter": "linalg.hermitian_power",
        "duality.psi.box-half": "linalg.hermitian_power",
        "duality.psi.spectral": "spectral.spectral_decompose",
    }
    for index, span in psi_spans:
        children = {child[0] for child in tracer.spans if child[3] == index}
        assert expected_child[span[0]] in children, (span[0], children)
    summary = tracer.summary()
    assert all(own >= 0.0 for _, own in summary.values())
    assert summary["duality.psi.box-half"][0] == 1


def test_seam_refuses_a_harness_whose_evals_drifted():
    names = hjts.harness.SUITE_NAMES
    evals = {name: None for name in names[:-1]}
    with pytest.raises(run.BenchmarkError, match="per-sample seam"):
        run.SampleSeam(SimpleNamespace(_SUITE_EVALS=evals, SUITE_NAMES=names))


def test_report_check_refuses_samples_the_seam_did_not_time():
    seam = run.SampleSeam(hjts.harness)  # never entered, so it times nothing
    argv = ["verify", "--kind", "I:1,1", "--suites", "jordan", "--points", "2"]
    with pytest.raises(run.BenchmarkError, match="seam missed"):
        run.run_report(hjts, seam, argv, 2)
