"""Spectral decomposition, generic norms, and the odd functional calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjts.kinds as K
from hjts.errors import ContractError, DomainError, SingularityError
from hjts.jts import (
    Element,
    bergman_operator,
    box_operator,
    d_operator,
    genus,
    m1_form,
    m1_norm,
    triple_product,
    zero,
)
from hjts.linalg import det, frobenius
from hjts.spectral import (
    generic_norms,
    log_generic_norm_minus,
    log_generic_norm_plus,
    log_norm_rows,
    odd_power,
    quasi_inverse,
    spectral_decompose,
    spectral_values,
)

ALL_KINDS = [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeI(2, 3), K.TypeII(4), K.TypeII(5),
             K.TypeIII(3), K.TypeIV(3), K.TypeIV(5),
             K.Product((K.TypeI(1, 1), K.TypeIV(3)))]


def rnd(kind, rng, scale=1.0):
    n = K.ambient_dim(kind)
    return Element(kind, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def decomposition_residuals(z):
    """(reconstruction, tripotent, orthogonality, eigen) worst-case residual."""
    dec = spectral_decompose(z)
    worst = frobenius(dec.reconstruct().coords - z.coords) / max(1.0, z.norm())
    box = box_operator(z).matrix
    for lam, c in zip(dec.values, dec.frame):
        worst = max(worst, frobenius(triple_product(c, c, c).coords - 2.0 * c.coords))
        worst = max(worst, frobenius(box @ c.coords - lam**2 * c.coords))
        worst = max(worst, abs(m1_form(c, c) - 1.0))
    for i in range(len(dec.frame)):
        for j in range(i + 1, len(dec.frame)):
            worst = max(worst, abs(m1_form(dec.frame[i], dec.frame[j])))
            worst = max(worst, frobenius(d_operator(dec.frame[i], dec.frame[j]).matrix))
    return worst


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decompose_random(kind):
    rng = np.random.default_rng(K.ambient_dim(kind) + 100)
    for scale in (0.3, 1.0, 4.0):
        z = rnd(kind, rng, scale)
        dec = spectral_decompose(z)
        assert len(dec.frame) == K.rank(kind)
        assert list(dec.values) == sorted(dec.values, reverse=True)
        assert dec.values[-1] >= 0.0
        assert decomposition_residuals(z) < 1e-8
        assert np.allclose(spectral_values(z), dec.values, atol=1e-10)


def test_zero_decomposes_to_zero_values():
    for kind in (K.TypeI(2, 2), K.TypeIV(3)):
        dec = spectral_decompose(zero(kind))
        assert np.all(dec.values == 0.0)
        assert decomposition_residuals(zero(kind)) < 1e-12


# hand-checkable goldens ----------------------------------------------------

def test_diagonal_matrix_values():
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([0.8, 0, 0, 0.25], dtype=complex))
    assert np.allclose(spectral_values(z), [0.8, 0.25])


def test_symmetric_identity_multiple():
    # diag(s, s, s) as a symmetric 3x3: coordinates are at slots 0, 3, 5
    kind = K.TypeIII(3)
    coords = np.zeros(6, dtype=complex)
    coords[[0, 3, 5]] = 0.5
    assert np.allclose(spectral_values(Element(kind, coords)), [0.5, 0.5, 0.5])


def test_spin_factor_values_closed_form():
    # lambda_pm^2 = <a,a> +/- sqrt(<a,a>^2 - |sum a^2|^2) in the ambient picture
    kind = K.TypeIV(3)
    rng = np.random.default_rng(3)
    z = rnd(kind, rng)
    amb = K.coords_to_ambient(kind, z.coords)
    a = float(np.sum(np.abs(amb) ** 2))
    qabs = abs(complex(np.sum(amb * amb)))
    disc = math.sqrt(max(a * a - qabs * qabs, 0.0))
    assert np.allclose(spectral_values(z) ** 2, [a + disc, a - disc], atol=1e-12)


def test_spin_frame_tripotents():
    # (e1 +/- i e2)/sqrt(2) in coordinates: the canonical rank-2 frame
    kind = K.TypeIV(3)
    plus = Element(kind, np.array([1.0, 1.0j, 0], dtype=complex) / np.sqrt(2.0))
    assert np.allclose(triple_product(plus, plus, plus).coords, 2.0 * plus.coords)
    assert np.allclose(spectral_values(plus), [1.0, 0.0], atol=1e-12)


def test_antisymmetric_doubling():
    # one antisymmetric 2x2 block in II:5 gives a single spectral value;
    # the Gram matrix carries it twice, the frame must carry it once
    kind = K.TypeII(5)
    coords = np.zeros(K.ambient_dim(kind), dtype=complex)
    coords[0] = 0.6  # entry (0, 1)
    z = Element(kind, coords)
    assert np.allclose(spectral_values(z), [0.6, 0.0])
    assert decomposition_residuals(z) < 1e-12


# engineered degeneracies ----------------------------------------------------

def test_equal_singular_values_type_i():
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([0.7, 0, 0, 0.7], dtype=complex))
    assert decomposition_residuals(z) < 1e-12


def test_near_degenerate_gap():
    rng = np.random.default_rng(8)
    for kind in (K.TypeI(2, 2), K.TypeIII(3), K.TypeII(4)):
        z = rnd(kind, rng)
        dec = spectral_decompose(z)
        # rebuild with two nearly equal leading values
        lam = dec.values.copy()
        lam[1] = lam[0] * (1.0 - 3e-10)
        coords = sum(l * c.coords for l, c in zip(lam, dec.frame))
        assert decomposition_residuals(Element(kind, coords)) < 1e-6


def test_rank_deficient_antisymmetric():
    # odd n forces a kernel; put in exactly one block to widen it
    kind = K.TypeII(5)
    rng = np.random.default_rng(9)
    coords = np.zeros(K.ambient_dim(kind), dtype=complex)
    coords[0] = 0.4 + 0.2j
    assert decomposition_residuals(Element(kind, coords)) < 1e-10


def test_tiny_singular_value_recovered():
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([0.9, 0, 0, 1e-7], dtype=complex))
    dec = spectral_decompose(z)
    assert dec.values[1] == pytest.approx(1e-7, rel=1e-6)
    assert decomposition_residuals(z) < 1e-9


# generic norms ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_det_bergman_equals_norm_to_genus(kind):
    rng = np.random.default_rng(77)
    z = rnd(kind, rng, 0.4 / math.sqrt(K.ambient_dim(kind)))
    factors = (
        zip(kind.factors, K.split_coords(kind, z.coords))
        if isinstance(kind, K.Product) else [(kind, z.coords)]
    )
    for f, piece in factors:
        zf = Element(f, piece)
        norm_minus, norm_plus = generic_norms(zf)
        g = genus(f)
        db = det(bergman_operator(zf, zf).matrix).real
        assert db == pytest.approx(norm_minus ** g, rel=1e-8)
        dual = det(bergman_operator(zf, Element(f, -zf.coords)).matrix).real
        assert dual == pytest.approx(norm_plus ** g, rel=1e-8)


def test_log_norm_routes_match_spectral():
    # the potentials use determinant identities; they must agree with the
    # product over spectral values to full precision
    rng = np.random.default_rng(78)
    for kind in ALL_KINDS:
        for scale in (0.1, 0.3):
            z = rnd(kind, rng, scale)
            lam_sq = spectral_values(z) ** 2
            if lam_sq[0] >= 1.0:
                continue
            assert log_generic_norm_minus(z) == pytest.approx(
                float(np.sum(np.log1p(-lam_sq))), abs=1e-12)
            assert log_generic_norm_plus(z) == pytest.approx(
                float(np.sum(np.log1p(lam_sq))), abs=1e-12)


def test_log_norm_minus_raises_outside():
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([1.2, 0, 0, 0.3], dtype=complex))
    with pytest.raises(DomainError):
        log_generic_norm_minus(z)
    # the dual potential exists everywhere
    assert log_generic_norm_plus(z) > 0.0


def test_log_norm_rejects_two_large_values():
    # N(z) > 0 does NOT mean interior: two values beyond 1 keep the product
    # positive, and the certificate must still refuse
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([1.5, 0, 0, 1.4], dtype=complex))
    assert generic_norms(z)[0] > 0.0
    with pytest.raises(DomainError):
        log_generic_norm_minus(z)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_log_norm_rows_equal_the_single_point_values(kind):
    rng = np.random.default_rng(17)
    points = []
    for lam1 in (0.1, 0.5, 0.9, 0.99):
        z = rnd(kind, rng)
        points.append(Element(kind, z.coords * (lam1 / spectral_values(z)[0])))
    rows = np.array([p.coords for p in points])
    minus = log_norm_rows(kind, rows, -1.0)
    plus = log_norm_rows(kind, rows, 1.0)
    assert np.array_equal(minus, [log_generic_norm_minus(p) for p in points])
    assert np.array_equal(plus, [log_generic_norm_plus(p) for p in points])


def test_log_norm_rows_raise_when_any_row_leaves_the_domain():
    kind = K.TypeI(2, 2)
    rows = np.array([[0.1, 0, 0, 0.2], [1.2, 0, 0, 0.3], [0.3, 0, 0, 0.1]], dtype=complex)
    with pytest.raises(DomainError):
        log_norm_rows(kind, rows, -1.0)
    assert np.all(log_norm_rows(kind, rows, 1.0) > 0.0)
    with pytest.raises(ContractError):
        log_norm_rows(kind, rows[0], -1.0)  # one point still needs a (1, N) array


# quasi-inverse & odd powers --------------------------------------------------

def test_quasi_inverse_spectral_form():
    rng = np.random.default_rng(5)
    for kind in (K.TypeI(2, 2), K.TypeII(4), K.TypeIV(4)):
        z = rnd(kind, rng, 0.2)
        dec = spectral_decompose(z)
        expected = sum((lam / (1.0 - lam**2)) * c.coords
                       for lam, c in zip(dec.values, dec.frame))
        assert np.allclose(quasi_inverse(z).coords, expected, atol=1e-10)


def test_quasi_inverse_pole():
    kind = K.TypeI(1, 1)
    with pytest.raises(SingularityError):
        quasi_inverse(Element(kind, np.array([1.0], dtype=complex)))


def test_odd_powers_are_spectral_powers():
    rng = np.random.default_rng(6)
    z = rnd(K.TypeIII(3), rng, 0.5)
    dec = spectral_decompose(z)
    for j in (0, 1, 2):
        expected = sum(lam ** (2 * j + 1) * c.coords
                       for lam, c in zip(dec.values, dec.frame))
        assert np.allclose(odd_power(z, j).coords, expected, atol=1e-10)
    with pytest.raises(ContractError):
        odd_power(z, -1)
    with pytest.raises(ContractError):
        odd_power(z, 1.5)


# properties ------------------------------------------------------------------

@st.composite
def kind_and_point(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    scale = draw(st.sampled_from([0.05, 0.5, 2.0]))
    rng = np.random.default_rng(seed)
    return rnd(kind, rng, scale)


@settings(max_examples=80, deadline=None)
@given(kind_and_point())
def test_decomposition_invariants_property(z):
    assert decomposition_residuals(z) < 1e-8


@settings(max_examples=40, deadline=None)
@given(kind_and_point())
def test_values_scale_linearly(z):
    lam = spectral_values(z)
    doubled = spectral_values(Element(z.kind, 2.0 * z.coords))
    assert np.allclose(doubled, 2.0 * lam, atol=1e-10 * max(1.0, lam[0]))
