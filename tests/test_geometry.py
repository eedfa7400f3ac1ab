"""Potentials, two-forms, pullbacks, and the derivative identities.

The one-disc numbers are hand-computable and pinned exactly:
at z = 0.6 the hyperbolic Hessian is 1/(1-0.36)^2 = 2.44140625 and the
radial derivative of the point map is (1-0.36)^(-3/2) = 1.953125.
"""

import inspect
import math
import re
from functools import partial

import numpy as np
import pytest

import hjts.geometry
import hjts.kinds as K
import hjts.spectral
from hjts.duality import DualityRoute, _psi_differential_rows, psi, psi_rows
from hjts.errors import ContractError, DomainError
from hjts.geometry import (
    PotentialId,
    RealJacobian,
    _BETA_LAMBDA_MAX,
    _central,
    _dbox_z,
    _fd_step,
    _form_hessians,
    _g,
    _pullback_pairs,
    _to_real,
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
from hjts.jts import (Element, _box_apply, bergman_operator, box_operator, d_operator,
                      genus, zero)
from hjts.linalg import det, frobenius, solve
from hjts.spectral import log_generic_norm_minus, log_generic_norm_plus, spectral_values

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


def exact_jacobian(z):
    """psi's exact real Jacobian at z, from its derivatives along the 2N real
    directions e_j, i e_j (interleaved): column a holds direction a's."""
    n = z.coords.size
    dirs = np.repeat(np.eye(n, dtype=complex), 2, axis=0)
    dirs[1::2] *= 1j
    [_], [diff] = _psi_differential_rows(z.kind, z.coords[None, :], dirs)
    jac = np.empty((2 * n, 2 * n))
    jac[0::2], jac[1::2] = diff.real.T, diff.imag.T
    return RealJacobian(jac)


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
    assert omega.hessian[0, 0] == 2.44140625  # the closed form, to the last bit
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


# the default kinds, then a tall and an odd kind, each with its own seed
_HESSIAN_ORACLE_KINDS = DEFAULT_KINDS + (K.TypeI(3, 2), K.TypeII(5))


@pytest.mark.parametrize("cap", [0.5, 0.95])
@pytest.mark.parametrize("pid", [PotentialId.HYPERBOLIC, PotentialId.DUAL_FS])
@pytest.mark.parametrize("kind", _HESSIAN_ORACLE_KINDS, ids=K.format_kind)
def test_exact_forms_match_the_finite_difference_hessian(kind, pid, cap):
    # oracle: the second-difference stencil of the potential itself
    z = interior(kind, seed=50 + _HESSIAN_ORACLE_KINDS.index(kind), cap=cap)
    exact = kahler_matrix(pid, z).hessian
    measured = complex_hessian(partial(potential, pid), z, 1e-5)
    assert np.abs(exact - measured).max() <= 5e-6 * np.abs(exact).max()


@pytest.mark.parametrize("pid", [PotentialId.HYPERBOLIC, PotentialId.DUAL_FS])
@pytest.mark.parametrize("kind", DEFAULT_KINDS + (K.TypeI(3, 2), K.TypeII(5)),
                         ids=K.format_kind)
def test_exact_forms_are_the_transposed_inverse_bergman_operator(kind, pid):
    # -log N at z has Hessian (B(z, z)^-1)^T, log N* has (B(z, -z)^-1)^T; a tall
    # type I takes its larger inverse from the other side
    sign = -1.0 if pid is PotentialId.HYPERBOLIC else 1.0
    z = interior(kind, seed=55, cap=0.95)
    bergman = bergman_operator(z, Element(kind, -sign * z.coords)).matrix
    expected = solve(bergman, np.eye(K.ambient_dim(kind))).T
    exact = kahler_matrix(pid, z).hessian
    assert np.abs(exact - expected).max() <= 1e-12 * np.abs(exact).max()


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
        complex_hessian(lambda e: 0.0, z, 0.5)


# Every public function with a step h, called at (z, w) with step h, keyed by
# its name (and the potential).  A new driver with a step must be listed here,
# or the coverage test below fails.
_STEP_DRIVERS = {
    "complex_hessian":
        lambda z, w, h: complex_hessian(lambda e: potential(PotentialId.DUAL_FS, e), z, h),
    "real_jacobian": lambda z, w, h: real_jacobian(psi_rows, z, h),
    "check_lemma_a1": lambda z, w, h: check_lemma_a1(z, w, h),
    "check_lemma_a2": lambda z, w, h: check_lemma_a2(z, w, h),
    "check_beta_exactness": lambda z, w, h: check_beta_exactness(z, w, h),
}


def test_step_drivers_cover_every_function_with_a_step():
    with_step = {name for name in hjts.geometry.__all__
                 if inspect.isfunction(fn := getattr(hjts.geometry, name))
                 and "h" in inspect.signature(fn).parameters}
    assert with_step == set(_STEP_DRIVERS)


@pytest.fixture(scope="module")
def step_point():
    z = interior(K.TypeI(2, 2), seed=70, cap=0.5)
    assert spectral_values(z)[0] <= 0.5
    return z, unit(K.TypeI(2, 2), seed=71)


@pytest.mark.parametrize("h", [0.0, math.nan, -1e-5, 0.5, "1e-5", None, 1e-5 + 0j])
@pytest.mark.parametrize("call", _STEP_DRIVERS.values(), ids=_STEP_DRIVERS.keys())
def test_step_outside_the_range_is_a_contract_error(step_point, call, h):
    # a step that is not a real number is outside the range too
    with pytest.raises(ContractError, match=r"fd_step .* outside \[1e-7, 1e-2\]"):
        call(*step_point, h)


@pytest.mark.parametrize("h", [1e-7, 1e-2, np.float64(1e-5), np.float32(1e-3)])
@pytest.mark.parametrize("call", _STEP_DRIVERS.values(), ids=_STEP_DRIVERS.keys())
def test_steps_at_the_range_ends_are_accepted(step_point, call, h):
    call(*step_point, h)


def test_a_float32_step_is_used_as_a_float64():
    # the step is a builtin float, so the Hessian's 4 step^2 is formed in float64
    for norm in (0.7, 2.5):
        step = _fd_step(norm, np.float32(1e-3))
        assert type(step) is float and step == float(np.float32(1e-3)) * max(1.0, norm)


def test_hyperbolic_form_needs_an_interior_point():
    # no margin: 1e-6 inside the boundary is still inside; on or past it is not
    kind = K.TypeI(1, 1)
    t = 1.0 - 1e-6
    close = kahler_matrix(PotentialId.HYPERBOLIC, Element(kind, np.array([t], dtype=complex)))
    assert close.hessian[0, 0] == pytest.approx(1.0 / (1.0 - t * t) ** 2, rel=1e-9)
    for radius in (1.0, 1.5):
        for phase in (1.0, 1j, np.exp(0.3j)):
            outside = Element(kind, np.array([radius * phase], dtype=complex))
            with pytest.raises(DomainError):
                kahler_matrix(PotentialId.HYPERBOLIC, outside)
            # the dual form is defined everywhere
            dual = kahler_matrix(PotentialId.DUAL_FS, outside).hessian[0, 0]
            assert dual.real == pytest.approx(1.0 / (1.0 + radius ** 2) ** 2, rel=1e-12)
    for other in (K.TypeI(2, 2), K.TypeII(4), K.TypeIII(3), K.TypeIV(4)):
        z = interior(other, seed=56)
        past = Element(other, 1.01 * z.coords / spectral_values(z)[0])  # largest value 1.01
        with pytest.raises(DomainError):
            kahler_matrix(PotentialId.HYPERBOLIC, past)


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
    jac = real_jacobian(psi_rows, z)
    # radial derivative (1 - t^2)^(-3/2); tangential derivative (1 - t^2)^(-1/2)
    assert jac.matrix[0, 0] == pytest.approx(1.953125, rel=1e-6)
    assert jac.matrix[1, 1] == pytest.approx(1.25, rel=1e-6)
    assert abs(jac.matrix[0, 1]) < 1e-6 and abs(jac.matrix[1, 0]) < 1e-6


def test_disc_exact_differential_golden():
    jac = exact_jacobian(Element(K.TypeI(1, 1), np.array([0.6], dtype=complex))).matrix
    assert jac[0, 0] == pytest.approx(1.953125, rel=1e-15)
    assert jac[1, 1] == pytest.approx(1.25, rel=1e-15)
    assert jac[0, 1] == 0.0 and jac[1, 0] == 0.0


_DIFFERENTIAL_KINDS = DEFAULT_KINDS + (K.TypeI(3, 2), K.TypeII(5))


@pytest.mark.parametrize("cap", [0.5, 0.95])
@pytest.mark.parametrize("kind", _DIFFERENTIAL_KINDS, ids=K.format_kind)
def test_exact_differential_matches_the_finite_difference_jacobian(kind, cap):
    # oracle: central differences of psi_rows itself, whose error is the stencil's
    for seed in (60, 61, 62):
        z = interior(kind, seed=seed, cap=cap)
        exact = exact_jacobian(z).matrix
        measured = real_jacobian(psi_rows, z).matrix
        assert np.abs(exact - measured).max() <= 2e-6 * np.abs(exact).max()


@pytest.mark.parametrize("cap", [0.5, 0.95])
@pytest.mark.parametrize("kind", [K.TypeI(4, 4), K.TypeII(6), K.TypeIII(4), K.TypeIV(8)],
                         ids=K.format_kind)
def test_exact_differential_on_larger_kinds(kind, cap):
    # rank 3 and 4 Gram spectra: more divided differences per row than the defaults
    z = interior(kind, seed=60, cap=cap)
    exact = exact_jacobian(z).matrix
    measured = real_jacobian(psi_rows, z).matrix
    assert np.abs(exact - measured).max() <= 2e-6 * np.abs(exact).max()
    # and both pullback identities read roundoff through it
    err1, err2 = check_symplectic_duality(z)
    assert err1 < 1e-12 and err2 < 1e-12
    assert check_volume_duality(z) < 1e-12


@pytest.mark.parametrize("kind", _DIFFERENTIAL_KINDS, ids=K.format_kind)
def test_exact_differential_images_are_psi_rows_bytes(kind):
    rows = np.stack([interior(kind, seed=seed, cap=0.95).coords for seed in (63, 64, 65)])
    dirs = np.stack([unit(kind, seed=seed).coords for seed in (66, 67)])
    images, derivs = _psi_differential_rows(kind, rows, dirs)
    assert images.tobytes() == psi_rows(kind, rows).tobytes()
    assert derivs.shape == (3, 2, K.ambient_dim(kind))
    # each row's derivatives are its own: the same bytes on their own
    for k in range(3):
        alone = _psi_differential_rows(kind, rows[k:k + 1], dirs)
        assert alone[0].tobytes() == images[k:k + 1].tobytes()
        assert alone[1].tobytes() == derivs[k:k + 1].tobytes()


@pytest.mark.parametrize("kind", _DIFFERENTIAL_KINDS, ids=K.format_kind)
def test_exact_differential_refuses_what_psi_rows_refuses(kind):
    z = interior(kind, seed=68)
    lam1 = spectral_values(z)[0]
    rows = np.stack([z.coords, 1.001 * z.coords / lam1])  # the second row lies outside
    dirs = unit(kind, seed=69).coords[None, :]
    with pytest.raises(DomainError) as from_rows:
        psi_rows(kind, rows)
    with pytest.raises(DomainError) as from_differential:
        _psi_differential_rows(kind, rows, dirs)
    assert str(from_differential.value) == str(from_rows.value)
    with pytest.raises(ContractError):
        _psi_differential_rows(kind, rows[:1], dirs[:, :-1])
    with pytest.raises(ContractError):
        _psi_differential_rows(kind, rows[:1], np.full_like(dirs, np.nan))


@pytest.mark.parametrize("kind", _DIFFERENTIAL_KINDS, ids=K.format_kind)
def test_exact_differential_at_the_origin_is_the_identity(kind):
    n = K.ambient_dim(kind)
    jac = exact_jacobian(zero(kind)).matrix
    assert np.abs(jac - np.eye(2 * n)).max() <= 1e-15


def _degenerate_points():
    """Points whose Gram matrix has a repeated or a unit eigenvalue (a repeated
    or a zero spectral value), or a spin factor with q = x.x = 0."""
    rng = np.random.default_rng(70)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for n in (2, 2))
    repeated = 0.7 * u @ np.diag([1.0, 1.0]) @ v  # I:2,2, both values 0.7
    col, row = (w / np.linalg.norm(w) for w in (rng.standard_normal(3) + 1j * rng.standard_normal(3),
                                               rng.standard_normal(2) + 1j * rng.standard_normal(2)))
    rank_one = 0.8 * np.outer(col, row.conj())  # tall I:3,2, values (0.8, 0)
    isotropic = 0.6 * np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2.0)  # x.x = 0: values (0.85, 0)
    return {
        "I:2,2 repeated": Element(K.TypeI(2, 2), K.matrix_to_coords(K.TypeI(2, 2), repeated)),
        "I:3,2 rank one": Element(K.TypeI(3, 2), K.matrix_to_coords(K.TypeI(3, 2), rank_one)),
        "II:4 paired": interior(K.TypeII(4), seed=71, cap=0.9),
        "IV:4 q = 0": Element(K.TypeIV(4), K.ambient_to_coords(K.TypeIV(4), isotropic)),
    }


@pytest.mark.parametrize("label", list(_degenerate_points()))
def test_exact_differential_at_degenerate_spectra(label):
    # the divided differences take their derivative limit at repeated Gram eigenvalues
    z = _degenerate_points()[label]
    exact = exact_jacobian(z).matrix
    assert np.isfinite(exact).all()
    measured = real_jacobian(psi_rows, z).matrix
    assert np.abs(exact - measured).max() <= 2e-6 * np.abs(exact).max()


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_batched_jacobian_equals_per_row_psi(kind):
    z = interior(kind, seed=51, cap=0.95)
    n = K.ambient_dim(kind)
    step = 1e-5 * max(1.0, z.norm())
    expected = np.empty((2 * n, 2 * n))
    for col in range(2 * n):  # real directions e_j, i e_j, interleaved
        d = np.eye(n, dtype=complex)[col // 2] * (1j if col % 2 else 1.0)
        forward = psi(Element(kind, z.coords + step * d)).coords
        backward = psi(Element(kind, z.coords - step * d)).coords
        diff = (forward - backward) / (2.0 * step)
        expected[0::2, col] = diff.real
        expected[1::2, col] = diff.imag
    assert np.array_equal(real_jacobian(psi_rows, z).matrix, expected)


@pytest.mark.parametrize("kind", [K.TypeI(2, 2), K.TypeII(4), K.TypeIII(3), K.TypeIV(4),
                                  K.Product((K.TypeI(1, 1), K.TypeIV(3)))],
                         ids=K.format_kind)
def test_jacobian_stencil_row_outside_the_domain_raises(kind):
    z = interior(kind, seed=52)
    lam1 = spectral_values(z)[0]
    edge = Element(kind, z.coords * ((1.0 - 1e-7) / lam1))  # a step of 1e-5 crosses
    with pytest.raises(DomainError):
        real_jacobian(psi_rows, edge)


def test_jacobian_rejects_non_finite_rows():
    z = interior(K.TypeI(2, 2), seed=53)
    with pytest.raises(ContractError, match="finite"):
        real_jacobian(lambda kind, rows: np.full_like(rows, np.nan), z)


def test_disc_pullback_golden():
    # pulling the flat form back through psi at 0.6 gives the dual metric
    # density |dpsi_tangential|^2... on the (1, i) pair: 1.953125 * 1.25 / pi
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([0.6], dtype=complex))
    jac = real_jacobian(psi_rows, z)
    omega_flat = kahler_matrix(PotentialId.FLAT, psi(z))
    val = pullback_eval(omega_flat, jac, np.array([1.0 + 0j]), np.array([1j]))
    assert val == pytest.approx(1.953125 * 1.25 / math.pi, rel=1e-5)


# ---------------------------------------------------------------------------
# the two pullback identities and volumes

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symplectic_duality(kind):
    z = interior(kind, seed=10 + K.ambient_dim(kind))
    err1, err2 = check_symplectic_duality(z)
    assert err1 < 1e-12
    assert err2 < 1e-12


@pytest.mark.parametrize("kind", SIMPLE_KINDS)
def test_volume_duality(kind):
    z = interior(kind, seed=20, cap=0.7)
    assert check_volume_duality(z) < 1e-12


def test_symplectic_rng_reproducible():
    z = interior(K.TypeI(2, 2), seed=30)
    a = check_symplectic_duality(z, rng=np.random.default_rng(1))
    b = check_symplectic_duality(z, rng=np.random.default_rng(1))
    assert a == b
    # without a generator the check draws from a fresh default_rng(7)
    assert check_symplectic_duality(z) == check_symplectic_duality(z, rng=np.random.default_rng(7))


def _public_form_pairs(z):
    """(form at psi(z), native form at z) of both identities from the public
    sampling API, and the exact Jacobian of psi at z."""
    image = psi(z)
    forms = [
        (kahler_matrix(PotentialId.DUAL_FS, image), kahler_matrix(PotentialId.FLAT, z)),
        (kahler_matrix(PotentialId.FLAT, image), kahler_matrix(PotentialId.HYPERBOLIC, z)),
    ]
    return forms, exact_jacobian(z)


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_symplectic_check_equals_the_per_pair_form_loop(kind):
    # oracle: pullback_eval and evaluate on each tangent pair, drawn u then v
    # from the same rng; the two agree to 1e-12 of the largest form value
    z = interior(kind, seed=40)
    got = check_symplectic_duality(z, rng=np.random.default_rng(3))
    forms, jac = _public_form_pairs(z)
    rng = np.random.default_rng(3)
    n = z.coords.size
    errs, scale = [0.0, 0.0], 0.0
    for _ in range(8):
        u, v = (w / np.linalg.norm(w) for w in
                (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)))
        for i, (at_image, native) in enumerate(forms):
            pulled, expected = pullback_eval(at_image, jac, u, v), native.evaluate(u, v)
            errs[i] = max(errs[i], abs(pulled - expected))
            scale = max(scale, abs(pulled), abs(expected))
    assert max(errs) > 0.0
    assert np.allclose(got, errs, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_volume_check_equals_the_public_determinant_comparison(kind):
    z = interior(kind, seed=41, cap=0.7)
    forms, jac = _public_form_pairs(z)
    j = jac.matrix
    worst = 0.0
    for at_image, native in forms:
        d_pulled = det(j.T @ at_image.real_matrix() @ j).real
        d_native = det(native.real_matrix()).real
        worst = max(worst, abs(d_pulled - d_native) / max(abs(d_native), np.finfo(float).tiny))
    assert check_volume_duality(z) == worst


@pytest.mark.parametrize("pair", [0, 1], ids=["dual-pullback", "flat-pullback"])
def test_volume_check_keeps_a_nan_determinant(pair, monkeypatch):
    real_det = hjts.geometry.det

    def nan_in_pair(stack):
        dets = real_det(stack)
        dets[2 * pair] = complex(math.nan, 0.0)
        return dets
    monkeypatch.setattr(hjts.geometry, "det", nan_in_pair)
    assert math.isnan(check_volume_duality(interior(K.TypeI(2, 2), seed=43, cap=0.7)))


def _count_calls(monkeypatch, name, *modules):
    """Count calls of ``name`` through each module's binding of it."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_pullback_checks_map_rows_once_and_take_one_determinant(kind, monkeypatch):
    # psi_rows is counted in duality too, so a psi(z) call would show
    z = interior(kind, seed=42, cap=0.7)
    rows = _count_calls(monkeypatch, "_psi_differential_rows", hjts.geometry)
    plain = _count_calls(monkeypatch, "psi_rows", hjts.duality)
    dets = _count_calls(monkeypatch, "det", hjts.geometry)
    check_symplectic_duality(z)
    assert (len(rows), len(plain), len(dets)) == (1, 0, 0)
    check_volume_duality(z)
    assert (len(rows), len(plain), len(dets)) == (2, 0, 1)


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_pullback_forms_share_one_solve_per_factor_and_equal_the_public_forms(kind, monkeypatch):
    # the hyperbolic form at z and the dual one at psi(z) share one stacked
    # solve per matrix factor, and each reads bit for bit what kahler_matrix returns;
    # the solves are counted where the per-family forms bind solve
    z = interior(kind, seed=44, cap=0.95)
    image = psi(z)
    solves = _count_calls(monkeypatch, "solve", hjts.spectral)
    _pullback_pairs(z)
    assert len(solves) == sum(not isinstance(f, K.TypeIV) for f in K.simple_factors(kind))
    hyp, dual = _form_hessians(kind, np.stack([z.coords, image.coords]), (-1.0, 1.0))
    assert hyp.tobytes() == kahler_matrix(PotentialId.HYPERBOLIC, z).hessian.tobytes()
    assert dual.tobytes() == kahler_matrix(PotentialId.DUAL_FS, image).hessian.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS + [K.TypeI(4, 4)], ids=K.format_kind)
def test_symplectic_tangents_equal_the_per_tangent_draws(kind):
    # oracle: each tangent drawn by two standard_normal(n) calls and scaled by
    # its norm; the errors agree bit for bit and the generators end level
    z = interior(kind, seed=43)
    n = z.coords.size
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = check_symplectic_duality(z, rng=rng)
    tangents = []
    for _ in range(16):
        w = oracle_rng.standard_normal(n) + 1j * oracle_rng.standard_normal(n)
        tangents.append(w / frobenius(w))
    x = _to_real(np.array(tangents))
    expected = tuple(float(np.max(np.abs(np.sum((x[0::2] @ (p - s)) * x[1::2], axis=1))))
                     for p, s in _pullback_pairs(z))
    assert got == expected
    assert rng.standard_normal() == oracle_rng.standard_normal()


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


def test_beta_exactness_rejects_near_boundary():
    kind = K.TypeI(1, 1)
    for lam in (_BETA_LAMBDA_MAX, 0.995):
        z = Element(kind, np.array([lam], dtype=complex))
        with pytest.raises(DomainError):
            check_beta_exactness(z, unit(kind, 1))


def test_flat_dbar_pullback_rejects_outside():
    kind = K.TypeI(1, 1)
    outside = Element(kind, np.array([1.2], dtype=complex))
    with pytest.raises(DomainError):
        check_flat_dbar_pullback(outside, unit(kind, 1))


# Every interior-point refusal, called at a point z with a unit direction w.
_INTERIOR_SITES = {
    "psi_rows": lambda z, w: psi_rows(z.kind, z.coords[None, :]),
    "_psi_differential_rows":
        lambda z, w: _psi_differential_rows(z.kind, z.coords[None, :], w.coords[None, :]),
    **{f"psi[{route.value}]": lambda z, w, route=route: psi(z, route)
       for route in DualityRoute},
    "kahler_matrix": lambda z, w: kahler_matrix(PotentialId.HYPERBOLIC, z),
    "check_lemma_a1": check_lemma_a1,
    "check_flat_dbar_pullback": check_flat_dbar_pullback,
}


# points whose largest spectral value is exactly 1: E_11 of a matrix, and a
# spin factor point whose x (``spectral._spin``) has |x|^2 = |x . x| = 1
_BOUNDARY_POINTS = [(K.TypeI(2, 2), [1, 0, 0, 0]), (K.TypeIV(4), [1, 1, 0, 0]),
                    (K.Product((K.TypeI(1, 1), K.TypeIV(3))), [1, 0, 0, 0])]


@pytest.mark.parametrize("kind, coords", _BOUNDARY_POINTS,
                         ids=[K.format_kind(k) for k, _ in _BOUNDARY_POINTS])
@pytest.mark.parametrize("site", _INTERIOR_SITES.values(), ids=_INTERIOR_SITES.keys())
def test_every_site_refuses_a_boundary_point_in_one_wording(site, kind, coords):
    boundary = Element(kind, np.array(coords, dtype=complex))
    with pytest.raises(DomainError, match=rf"needs an interior point of the "
                       rf"{re.escape(K.format_kind(kind))} domain \(largest spectral "
                       rf"value must be < 1\)"):
        site(boundary, unit(kind, seed=3))


@pytest.mark.parametrize("kind", [K.TypeI(2, 2), K.TypeIV(4)], ids=K.format_kind)
def test_domain_tests_take_one_log_norm_call_per_stack(kind, monkeypatch):
    # counted through every module binding of log_norm_rows, so a second
    # domain test (by in_domain, or by a check of its own) would show
    z, w = interior(kind, seed=45, cap=0.7), unit(kind, seed=46)
    calls = _count_calls(monkeypatch, "log_norm_rows", *(
        m for m in (hjts.spectral, hjts.duality, hjts.geometry) if hasattr(m, "log_norm_rows")))
    check_flat_dbar_pullback(z, w)
    assert len(calls) == 1
    psi_rows(kind, np.stack([z.coords, 0.5 * z.coords]))
    assert len(calls) == 2
    _psi_differential_rows(kind, np.stack([z.coords, 0.5 * z.coords]), w.coords[None, :])
    assert len(calls) == 3


_DIRECTION_CHECKS = (check_lemma_a1, check_lemma_a2, check_beta_exactness,
                     check_flat_dbar_pullback)


@pytest.mark.parametrize("check", _DIRECTION_CHECKS, ids=lambda fn: fn.__name__)
def test_direction_kind_mismatch(check):
    z = interior(K.TypeI(2, 2), seed=1)
    w = unit(K.TypeIII(2), seed=2)
    with pytest.raises(ContractError):
        check(z, w)


def _lemma_a2_one(z, direction, p, k, h):
    """The identity at one (p, k), every term computed on its own: one central
    difference of (r box r)^k z and one left slot per call."""
    w = direction.coords
    kind, c = z.kind, z.coords
    left_slot = _box_apply(kind, c, p, c)
    [d_power_z] = _central(lambda rows: np.array([_box_apply(kind, r, k, c) for r in rows]),
                           z, w[None, :], h)
    lhs = complex(np.sum(left_slot * d_power_z.conj()))
    if k == 0:
        rhs = 0.0 + 0.0j
    else:
        inner = _box_apply(kind, c, k - 1, _dbox_z(kind, c, w))
        rhs = k * complex(np.sum(left_slot * inner.conj()))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_lemma_a2_grid(kind):
    # one pass over the (p, k) grid gives bit for bit the worst per-(p, k) residual.
    # The identity is polynomial in z, so it holds off the domain too; at 3z the
    # p = 2 terms attain the worst residual on some kinds (I:1,1 at both steps).
    z = interior(kind, seed=50, cap=0.8)
    w = unit(kind, seed=51)
    for point in (z, Element(kind, 3.0 * z.coords)):
        for h in (1e-5, 1e-3):
            worst = check_lemma_a2(point, w, h)
            assert worst == max(_lemma_a2_one(point, w, p, k, h)
                                for p in (0, 1, 2) for k in (0, 1, 2))
            assert worst < 1e-5


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_applied_box_matches_built_operators(kind):
    # the lemma checks apply z box z and d(z box z)(w) z without building them
    z = interior(kind, seed=52)
    w = unit(kind, seed=53)
    v = unit(kind, seed=54).coords
    box = box_operator(z).matrix
    built = v
    for k in range(4):
        applied = _box_apply(kind, z.coords, k, v)
        assert np.linalg.norm(applied - built) <= 1e-13 * np.linalg.norm(built)
        built = box @ built
    dbox = 0.5 * (d_operator(w, z).matrix + d_operator(z, w).matrix) @ z.coords
    assert np.linalg.norm(_dbox_z(kind, z.coords, w.coords) - dbox) \
        <= 1e-13 * np.linalg.norm(dbox)


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


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("t", [1e-4, 0.005, 0.0099, 0.01, 0.0101, 0.02, 0.05])
def test_weight_function_matches_its_series_across_the_switch(sign, t):
    # _g switches from an 8-term series to the closed form at t = 0.01; both
    # sides must match sum_{j>=1} j/(j+1) (-sign t)^(j-1) t taken to 60 terms
    series = sum(j / (j + 1.0) * (-sign * t) ** (j - 1) * t for j in range(1, 61))
    assert _g(t, sign) == pytest.approx(series, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kind", [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeIII(2), K.TypeIV(3)])
def test_flat_dbar_pullback(kind):
    # the composite d-bar identity behind the first pullback equality
    z = interior(kind, seed=70, cap=0.7)
    w = unit(kind, seed=71)
    assert check_flat_dbar_pullback(z, w) < 1e-12


def test_disc_flat_dbar_scalar_value():
    # scalar check of the same identity: t/(1-t^2)^2 = t/(1-t^2) + t^3/(1-t^2)^2
    t = 0.6
    lhs = t / (1 - t * t) ** 2
    rhs = t / (1 - t * t) + 0.5 * (2 * t**3 / (1 - t * t) ** 2)
    assert lhs == pytest.approx(rhs, abs=1e-15)
    kind = K.TypeI(1, 1)
    z = Element(kind, np.array([t], dtype=complex))
    w = Element(kind, np.array([1.0 + 0j]))
    assert check_flat_dbar_pullback(z, w) < 1e-15
