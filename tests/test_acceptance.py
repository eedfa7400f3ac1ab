"""End-to-end acceptance gate: nine numbered criteria, one line each.

Every criterion draws its own seeded samples (Philox streams, spawn-keyed per
kind) so the numbers here are reproducible run to run, and each test ends by
recording a single pass/fail line through the ``criterion`` fixture.
"""

import re
import time

import numpy as np
import pytest

import hjts.kinds as K
from hjts.duality import (
    check_equivariance,
    check_hereditary,
    psi,
    psi_inverse,
    psi_inverse_route_spread,
    psi_route_spread,
)
from hjts.geometry import check_beta_exactness, check_lemma_a1, check_lemma_a2
from hjts.harness import (
    DEFAULT_KINDS,
    SuiteConfig,
    random_isotropy,
    run_suite,
    sample_domain,
)
from hjts.jts import (
    Element,
    bergman_operator,
    d_operator,
    genus,
    jordan_residual,
    m1_form,
    triple_product,
)
from hjts.linalg import det, frobenius
from hjts.spectral import generic_norms, spectral_decompose
from hjts.geometry import check_volume_duality


def stream(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def gaussian(kind, rng, scale=1.0):
    n = K.ambient_dim(kind)
    return Element(kind, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def unit_direction(kind, rng):
    e = gaussian(kind, rng)
    return Element(kind, e.coords / e.norm())


# ---------------------------------------------------------------------------

def test_criterion_1_symplectic_duality(criterion):
    started = time.perf_counter()
    report = run_suite(SuiteConfig(
        kinds=DEFAULT_KINDS, seed=0, points=100,
        boundary_cap=0.95, suites=("symplectic",),
    ))
    elapsed = time.perf_counter() - started
    worst = max(r.max_error for r in report.results)
    ok = report.all_pass and worst <= 1e-10 and elapsed <= 60.0
    criterion(1, "symplectic duality, both pullback identities",
              ok, f"max {worst:.2e} <= 1e-10 over 700 points, {elapsed:.1f}s <= 60s")


def test_criterion_2_diffeomorphism(criterion):
    worst = 0.0
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 2)
        for _ in range(100):
            z = sample_domain(kind, rng, 0.95)
            back = psi_inverse(psi(z))
            worst = max(worst, frobenius(back.coords - z.coords) / max(1.0, z.norm()))
        for _ in range(100):
            u = gaussian(kind, rng, scale=2.0)
            forth = psi(psi_inverse(u))
            worst = max(worst, frobenius(forth.coords - u.coords) / max(1.0, u.norm()))
    criterion(2, "round trips are the identity both ways",
              worst <= 1e-9, f"max {worst:.2e} <= 1e-9, 1400 points")


def test_criterion_3_route_consistency(criterion):
    worst = 0.0
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 3)
        for _ in range(100):
            worst = max(worst, psi_route_spread(sample_domain(kind, rng, 0.95)))
        for _ in range(100):
            worst = max(worst, psi_inverse_route_spread(gaussian(kind, rng, scale=2.0)))
    golden = psi(Element(K.TypeI(1, 1), np.array([0.6], dtype=complex)))
    golden_err = abs(golden.coords[0] - 0.75)
    ok = worst <= 1e-9 and golden_err <= 1e-12
    criterion(3, "the three point-map formulas agree",
              ok, f"max spread {worst:.2e} <= 1e-9, |psi(0.6)-0.75| = {golden_err:.1e}")


def test_criterion_4_hereditary(criterion):
    cases = [
        (K.TypeI(1, 1), K.TypeI(2, 2)),
        (K.TypeIII(2), K.TypeI(2, 2)),
        (K.TypeII(4), K.TypeI(4, 4)),
    ]
    worst = 0.0
    for ci, (sub, super_) in enumerate(cases):
        rng = stream(0, ci, 4)
        for _ in range(50):
            worst = max(worst, check_hereditary(sub, super_, sample_domain(sub, rng, 0.95)))
    criterion(4, "point map commutes with sub-triple embeddings",
              worst <= 1e-9, f"max {worst:.2e} <= 1e-9, 150 points, 3 embeddings")


def test_criterion_5_equivariance(criterion):
    worst = 0.0
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 5)
        for _ in range(50):
            z = sample_domain(kind, rng, 0.95)
            worst = max(worst, check_equivariance(random_isotropy(kind, rng), z))
    criterion(5, "point map commutes with linear isotropies",
              worst <= 1e-9, f"max {worst:.2e} <= 1e-9, 50 per kind")


_EXPECTED_GENUS = {
    K.TypeI: lambda k: k.p + k.q,
    K.TypeII: lambda k: 2 * (k.n - 1),
    K.TypeIII: lambda k: k.n + 1,
    K.TypeIV: lambda k: k.n,
}


def _spectral_residual(z):
    dec = spectral_decompose(z)
    worst = frobenius(dec.reconstruct().coords - z.coords) / max(1.0, z.norm())
    for c in dec.frame:
        worst = max(worst, frobenius(triple_product(c, c, c).coords - 2.0 * c.coords))
    for i in range(len(dec.frame)):
        for j in range(i + 1, len(dec.frame)):
            worst = max(worst, abs(m1_form(dec.frame[i], dec.frame[j])))
            worst = max(worst, frobenius(d_operator(dec.frame[i], dec.frame[j]).matrix))
    return worst


def test_criterion_6_algebraic_backbone(criterion):
    worst_jordan = 0.0
    worst_spectral = 0.0
    worst_det = 0.0
    genus_ok = True
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 6)
        for _ in range(200):
            worst_jordan = max(worst_jordan,
                               jordan_residual(*(gaussian(kind, rng) for _ in range(5))))
        for _ in range(50):
            z = sample_domain(kind, rng, 0.95)
            worst_spectral = max(worst_spectral, _spectral_residual(z))
            for f, piece in zip(K.simple_factors(kind), K.split_coords(kind, z.coords)):
                zf = Element(f, piece)
                g = genus(f)
                genus_ok = genus_ok and (g == _EXPECTED_GENUS[type(f)](f))
                ref = generic_norms(zf)[0] ** g
                db = det(bergman_operator(zf, zf).matrix).real
                worst_det = max(worst_det, abs(db - ref) / max(1.0, abs(ref)))
    ok = worst_jordan <= 1e-10 and worst_spectral <= 1e-8 and worst_det <= 1e-8 and genus_ok
    criterion(6, "Jordan identity, spectral frames, det B = N^g, genus table",
              ok, f"jordan {worst_jordan:.1e}, spectral {worst_spectral:.1e}, "
                  f"det {worst_det:.1e}, genus {'ok' if genus_ok else 'MISMATCH'}")


def test_criterion_7_appendix_identities(criterion):
    worst_a1 = 0.0
    worst_a2 = 0.0
    worst_beta = 0.0
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 7)
        for _ in range(50):
            z = sample_domain(kind, rng, 0.95)
            worst_a1 = max(worst_a1, check_lemma_a1(z, unit_direction(kind, rng)))
        for _ in range(10):
            z = sample_domain(kind, rng, 0.95)
            worst_a2 = max(worst_a2, check_lemma_a2(z, unit_direction(kind, rng)))
        for _ in range(20):
            z = sample_domain(kind, rng, 0.9)
            worst_beta = max(worst_beta, check_beta_exactness(z, unit_direction(kind, rng)))
    ok = worst_a1 <= 1e-12 and worst_a2 <= 1e-12 and worst_beta <= 1e-12
    criterion(7, "derivative identities for the log-norm potentials",
              ok, f"first {worst_a1:.1e}, second {worst_a2:.1e}, "
                  f"exactness {worst_beta:.1e}, all <= 1e-12")


def test_criterion_8_volume(criterion):
    worst = 0.0
    for ki, kind in enumerate(DEFAULT_KINDS):
        rng = stream(0, ki, 8)
        for _ in range(20):
            worst = max(worst, check_volume_duality(sample_domain(kind, rng, 0.95)))
    criterion(8, "top-power (volume) comparison of the pulled-back forms",
              worst <= 1e-10, f"max {worst:.2e} <= 1e-10, 20 per kind")


def test_criterion_9_determinism(criterion):
    config = SuiteConfig(kinds=(K.TypeI(1, 1), K.TypeIV(3)), seed=7, points=3)
    first = run_suite(config).to_json()
    second = run_suite(config).to_json()
    scrub = lambda text: re.sub(r'"wall_time_s": [0-9.eE+-]+', '"wall_time_s": _', text)
    ok = scrub(first) == scrub(second)
    criterion(9, "reports are byte-identical modulo wall time", ok,
              f"{len(first)} bytes compared")
