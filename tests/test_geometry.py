"""Potentials, two-forms, pullbacks, and the derivative identities.

The one-disc numbers are hand-computable and pinned exactly:
at z = 0.6 the hyperbolic Hessian is 1/(1-0.36)^2 = 2.44140625 and the
differential of the point map is (1-0.36)^(-3/2) = 1.953125.
"""

import math

import numpy as np
import pytest

import hjts.kinds as K
from hjts.duality import psi
from hjts.errors import ContractError, DomainError
from hjts.geometry import (
    PotentialId,
    check_beta_exactness,
    check_flat_dbar_pullback,
    check_lemma_a1,
    check_lemma_a2,
    check_symplectic_duality,
    check_volume_duality,
    complex_hessian,
    kahler_matrix,
    potential,
    pullback_eval,
    real_jacobian,
)
from hjts.harness import DEFAULT_KINDS, sample_domain
from hjts.jts import Element, bergman_operator, genus, zero
from hjts.linalg import det
from hjts.spectral import log_generic_norm_minus, log_generic_norm_plus

SIMPLE_KINDS = [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeII(4), K.TypeIII(3), K.TypeIV(3)]
ALL_KINDS = SIMPLE_KINDS + [K.TypeI(1, 3), K.TypeIV(5),
                            K.Product((K.TypeI(1, 1), K.TypeIV(3)))]


def interior(kind, seed, cap=0.8):
    rng = np.random.default_rng(seed)
    return sample_domain(kind, rng, cap)


def unit(kind, seed):
    rng = np.random.default_rng(seed)
    n = K.ambient_dim(kind)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Element(kind, v / np.sqrt(np.sum(np.abs(v) ** 2)))


# ---------------------------------------------------------------------------
# potentials

def test_potential_values():
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([0.6], dtype=complex))
    assert potential(PotentialId.FLAT, z) == pytest.approx(0.36)
    assert potential(PotentialId.HYPERBOLIC, z) == pytest.approx(-math.log(0.64))
    assert potential(PotentialId.DUAL_FS, z) == pytest.approx(math.log(1.36))


def test_potentials_vanish_at_zero():
    for kind in (K.TypeII(4), K.TypeIV(3)):
        for pid in PotentialId:
            assert potential(pid, zero(kind)) == pytest.approx(0.0)


def test_potential_matches_log_norm_routes():
    z = interior(K.TypeIII(3), seed=2)
    assert potential(PotentialId.HYPERBOLIC, z) == pytest.approx(-log_generic_norm_minus(z))
    assert potential(PotentialId.DUAL_FS, z) == pytest.approx(log_generic_norm_plus(z))


# ---------------------------------------------------------------------------
# Hessians

def test_disc_hyperbolic_hessian_golden():
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([0.6], dtype=complex))
    omega = kahler_matrix(PotentialId.HYPERBOLIC, z)
    assert omega.hessian[0, 0].real == pytest.approx(2.44140625, rel=1e-6)
    assert abs(omega.hessian[0, 0].imag) < 1e-8
    # two-form value on the (1, i) pair: H / pi
    assert omega.evaluate(np.array([1.0 + 0j]), np.array([1j])) == \
        pytest.approx(2.44140625 / math.pi, rel=1e-6)


def test_flat_form_is_exact_identity():
    z = interior(K.TypeII(4), seed=4)
    omega = kahler_matrix(PotentialId.FLAT, z)
    assert np.array_equal(omega.hessian, np.eye(K.ambient_dim(z.kind)))
    # and the finite-difference route agrees with it
    fd = complex_hessian(lambda e: potential(PotentialId.FLAT, e), z, 1e-5)
    assert np.allclose(fd, omega.hessian, atol=1e-6)


@pytest.mark.parametrize("pid", [PotentialId.HYPERBOLIC, PotentialId.DUAL_FS])
def test_hessians_positive_definite(pid):
    for kind in (K.TypeI(2, 2), K.TypeIV(4)):
        z = interior(kind, seed=5, cap=0.7)
        h = kahler_matrix(pid, z).hessian
        assert np.allclose(h, h.conj().T)
        assert np.linalg.eigvalsh(h).min() > 0.0


def test_two_form_real_matrix_structure():
    z = interior(K.TypeIII(2), seed=6)
    s = kahler_matrix(PotentialId.HYPERBOLIC, z).real_matrix()
    assert s.dtype == np.float64
    assert np.allclose(s, -s.T, atol=1e-12)   # antisymmetry = it is a 2-form


def test_batched_stencil_hessian_equals_per_element_hessian():
    # kahler_matrix evaluates the whole stencil in one log-norm call;
    # complex_hessian evaluates it one Element at a time through the same core
    for index, kind in enumerate(DEFAULT_KINDS):
        z = interior(kind, seed=50 + index, cap=0.95)
        for pid in (PotentialId.HYPERBOLIC, PotentialId.DUAL_FS):
            batched = kahler_matrix(pid, z, 1e-5).hessian
            per_element = complex_hessian(lambda e: potential(pid, e), z, 1e-5)
            assert batched.tobytes() == per_element.tobytes(), (kind, pid)


@pytest.mark.parametrize("pid", list(PotentialId))
def test_real_matrix_equals_the_evaluate_loop(pid):
    for index, kind in enumerate(DEFAULT_KINDS):
        omega = kahler_matrix(pid, interior(kind, seed=60 + index))
        n = K.ambient_dim(kind)
        dirs = [d for j in range(n) for d in (np.eye(n)[j] + 0j, 1j * np.eye(n)[j])]
        loop = np.array([[omega.evaluate(u, v) for v in dirs] for u in dirs])
        assert np.array_equal(omega.real_matrix(), loop), (kind, pid)


def test_hessian_step_guard():
    z = interior(K.TypeI(1, 1), seed=7)
    with pytest.raises(ContractError):
        kahler_matrix(PotentialId.HYPERBOLIC, z, h=1e-8)
    with pytest.raises(ContractError):
        complex_hessian(lambda e: 0.0, z, 0.5)


def test_hyperbolic_hessian_boundary_margin():
    kind = K.TypeI(1, 1)
    close = Element(kind, np.array([1.0 - 1e-6], dtype=complex))
    with pytest.raises(DomainError):
        kahler_matrix(PotentialId.HYPERBOLIC, close)


def test_bergman_log_det_is_genus_times_metric():
    # d d-bar of -log det B(z, z) reproduces g copies of the hyperbolic form
    for kind in (K.TypeI(2, 2), K.TypeIII(2), K.TypeIV(3)):
        z = interior(kind, seed=8, cap=0.6)
        g = genus(kind)
        fd = complex_hessian(
            lambda e: -math.log(det(bergman_operator(e, e).matrix).real), z, 1e-5
        )
        metric = kahler_matrix(PotentialId.HYPERBOLIC, z).hessian
        assert np.allclose(fd, g * metric, atol=1e-4 * g * max(1.0, np.abs(metric).max()))


# ---------------------------------------------------------------------------
# the differential of the point map

def test_disc_jacobian_golden():
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([0.6], dtype=complex))
    jac = real_jacobian(psi, z)
    # radial derivative (1 - t^2)^(-3/2); tangential derivative (1 - t^2)^(-1/2)
    assert jac.matrix[0, 0] == pytest.approx(1.953125, rel=1e-6)
    assert jac.matrix[1, 1] == pytest.approx(1.25, rel=1e-6)
    assert abs(jac.matrix[0, 1]) < 1e-6 and abs(jac.matrix[1, 0]) < 1e-6


def test_disc_pullback_golden():
    # pulling the flat form back through psi at 0.6 gives the dual metric
    # density |dpsi_tangential|^2... on the (1, i) pair: 1.953125 * 1.25 / pi
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([0.6], dtype=complex))
    jac = real_jacobian(psi, z)
    omega_flat = kahler_matrix(PotentialId.FLAT, psi(z))
    val = pullback_eval(omega_flat, jac, np.array([1.0 + 0j]), np.array([1j]))
    assert val == pytest.approx(1.953125 * 1.25 / math.pi, rel=1e-5)


# ---------------------------------------------------------------------------
# the two pullback identities and volumes

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symplectic_duality(kind):
    z = interior(kind, seed=10 + K.ambient_dim(kind))
    err1, err2 = check_symplectic_duality(z, tangent_pairs=4)
    assert err1 < 1e-5
    assert err2 < 1e-5


@pytest.mark.parametrize("kind", SIMPLE_KINDS)
def test_volume_duality(kind):
    z = interior(kind, seed=20, cap=0.7)
    assert check_volume_duality(z) < 1e-4


def test_symplectic_rng_reproducible():
    z = interior(K.TypeI(2, 2), seed=30)
    a = check_symplectic_duality(z, rng=np.random.default_rng(1))
    b = check_symplectic_duality(z, rng=np.random.default_rng(1))
    assert a == b


# ---------------------------------------------------------------------------
# derivative identities

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lemma_a1(kind):
    z = interior(kind, seed=40, cap=0.8)
    w = unit(kind, seed=41)
    assert check_lemma_a1(z, w) < 1e-5


def test_lemma_a1_rejects_outside():
    kind = K.TypeI(1, 1)
    outside = Element(kind, np.array([1.2], dtype=complex))
    with pytest.raises(DomainError):
        check_lemma_a1(outside, unit(kind, 1))


def test_direction_kind_mismatch():
    z = interior(K.TypeI(2, 2), seed=1)
    w = unit(K.TypeIII(2), seed=2)
    with pytest.raises(ContractError):
        check_lemma_a1(z, w)


@pytest.mark.parametrize("kind", [K.TypeI(2, 2), K.TypeII(4), K.TypeIV(4),
                                  K.Product((K.TypeI(1, 1), K.TypeIV(3)))])
def test_lemma_a2_grid(kind):
    z = interior(kind, seed=50, cap=0.8)
    w = unit(kind, seed=51)
    for p in (0, 1, 2):
        for k in (0, 1, 2):
            assert check_lemma_a2(z, w, p, k) < 1e-5


def test_lemma_a2_validates_orders():
    z = interior(K.TypeI(1, 1), seed=1)
    w = unit(K.TypeI(1, 1), seed=2)
    for p, k in ((-1, 0), (0, 4), (True, 1), (0.5, 1)):
        with pytest.raises(ContractError):
            check_lemma_a2(z, w, p, k)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_beta_exactness(kind):
    z = interior(kind, seed=60, cap=0.8)
    w = unit(kind, seed=61)
    assert check_beta_exactness(z, w) < 1e-5


def test_beta_exactness_small_scale_series_branch():
    # tiny points route the weight function through its power series
    kind = K.TypeIII(3)
    rng = np.random.default_rng(62)
    z = Element(kind, 0.03 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
    assert check_beta_exactness(z, unit(kind, 63)) < 1e-6


@pytest.mark.parametrize("kind", [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeIII(2), K.TypeIV(3)])
def test_flat_dbar_pullback(kind):
    # the composite d-bar identity behind the first pullback equality
    z = interior(kind, seed=70, cap=0.7)
    w = unit(kind, seed=71)
    assert check_flat_dbar_pullback(z, w) < 1e-4


def test_disc_flat_dbar_scalar_value():
    # scalar check of the same identity: t/(1-t^2)^2 = t/(1-t^2) + t^3/(1-t^2)^2
    t = 0.6
    lhs = t / (1 - t * t) ** 2
    rhs = t / (1 - t * t) + 0.5 * (2 * t**3 / (1 - t * t) ** 2)
    assert lhs == pytest.approx(rhs, abs=1e-15)
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([t], dtype=complex))
    w = Element(kind, np.array([1.0 + 0j]))
    assert check_flat_dbar_pullback(z, w) < 1e-6
