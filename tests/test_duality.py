"""The bounded <-> unbounded point map: routes, round trips, naturality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjts.duality
import hjts.kinds as K
from hjts.duality import (
    DualityRoute,
    check_equivariance,
    check_hereditary,
    psi,
    psi_inverse,
    psi_inverse_route_spread,
    psi_route_spread,
    psi_rows,
)
from hjts.errors import ConsistencyError, ContractError, DomainError
from hjts.harness import DEFAULT_KINDS, random_isotropy, sample_domain
from hjts.jts import Element, isotropy_action, m1_norm, zero
from hjts.spectral import spectral_decompose
from hjts.linalg import frobenius

ALL_KINDS = [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeI(2, 3), K.TypeII(4), K.TypeII(5),
             K.TypeIII(3), K.TypeIV(3), K.TypeIV(5),
             K.Product((K.TypeI(1, 1), K.TypeIV(3)))]


def interior(kind, seed, cap=0.9):
    rng = np.random.default_rng(seed)
    return sample_domain(kind, rng, cap)


def gaussian(kind, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = K.ambient_dim(kind)
    return Element(kind, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


# ---------------------------------------------------------------------------
# scalar goldens (one-disc case is fully solvable by hand)

def test_disc_golden():
    kind = K.TypeI(1, 1)
    image = psi(Element(kind, np.array([0.6], dtype=complex)))
    assert image.coords[0] == pytest.approx(0.75, abs=1e-12)  # 0.6 / sqrt(0.64)
    back = psi_inverse(Element(kind, np.array([0.75], dtype=complex)))
    assert back.coords[0] == pytest.approx(0.6, abs=1e-12)   # 0.75 / sqrt(1.5625)


def test_zero_is_fixed():
    for kind in (K.TypeI(2, 2), K.TypeIV(3)):
        assert m1_norm(psi(zero(kind))) == 0.0
        assert m1_norm(psi_inverse(zero(kind))) == 0.0


def test_radial_monotone_on_disc():
    kind = K.TypeI(1, 1)
    ts = np.linspace(0.0, 0.99, 40)
    images = [psi(Element(kind, np.array([t], dtype=complex))).coords[0].real for t in ts]
    assert all(b > a for a, b in zip(images, images[1:]))
    assert np.allclose(images, ts / np.sqrt(1.0 - ts**2), atol=1e-12)


# ---------------------------------------------------------------------------
# routes

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_routes_agree(kind):
    z = interior(kind, seed=K.ambient_dim(kind))
    images = [psi(z, route) for route in DualityRoute]
    for a in images:
        for b in images:
            assert frobenius(a.coords - b.coords) < 1e-9 * max(1.0, m1_norm(a))
    assert psi_route_spread(z) < 1e-11
    u = gaussian(kind, seed=5, scale=2.0)
    backs = [psi_inverse(u, route) for route in DualityRoute]
    for a in backs:
        for b in backs:
            assert frobenius(a.coords - b.coords) < 1e-9 * max(1.0, m1_norm(a))
    assert psi_inverse_route_spread(u) < 1e-11


def test_route_enum_values():
    assert {r.value for r in DualityRoute} == {"bergman-quarter", "box-half", "spectral"}


def test_spread_raises_on_forced_disagreement(monkeypatch):
    z = interior(K.TypeI(2, 2), seed=1)
    monkeypatch.setattr(hjts.duality, "ROUTE_AGREEMENT_LIMIT", 0.0)
    with pytest.raises(ConsistencyError):
        psi_route_spread(z)


def test_inverse_spread_maps_through_the_module_psi_inverse_once_per_route(monkeypatch):
    # the spread must look psi_inverse up by its module name, so that a
    # wrapper installed there (a tracer, a probe) sees every route
    calls = []
    original = hjts.duality.psi_inverse

    def recorder(u, route=DualityRoute.BOX_HALF):
        calls.append(route)
        return original(u, route)

    monkeypatch.setattr(hjts.duality, "psi_inverse", recorder)
    psi_inverse_route_spread(gaussian(K.TypeI(2, 2), seed=3, scale=2.0))
    assert sorted(r.value for r in calls) == sorted(r.value for r in DualityRoute)


# ---------------------------------------------------------------------------
# the row map behind BOX_HALF

GRAM_KINDS = [K.TypeI(2, 3), K.TypeI(3, 2), K.TypeII(5), K.TypeIII(3), K.TypeIV(3),
              K.TypeIV(5), K.Product((K.TypeI(1, 1), K.TypeIV(3)))]


def spin_points(n):
    """Spin-factor coordinates at the degenerate points: q = 0, real x
    (lambda_1 = lambda_2) and 0, with x = coords / sqrt(2)."""
    isotropic = np.zeros(n, dtype=complex)
    isotropic[:2] = [0.4, 0.4j]  # q = sum x_j^2 = 0
    real = np.linspace(0.1, 0.3, n).astype(complex)
    return [np.sqrt(2.0) * isotropic, np.sqrt(2.0) * real, np.zeros(n, dtype=complex)]


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_box_half_is_row_zero_of_the_row_map(kind):
    z = interior(kind, seed=41)
    u = gaussian(kind, seed=42, scale=2.0)
    others = gaussian(kind, seed=43).coords
    assert np.array_equal(psi(z).coords, psi_rows(kind, np.stack([z.coords, 0.5 * z.coords]))[0])
    assert np.array_equal(psi_inverse(u).coords, psi_rows(kind, np.stack([u.coords, others]), 1.0)[0])


@pytest.mark.parametrize("kind", GRAM_KINDS, ids=K.format_kind)
def test_row_map_agrees_with_the_bergman_route(kind):
    points = [interior(kind, seed=s, cap=0.95) for s in range(4)]
    if isinstance(kind, K.TypeIV):
        points += [Element(kind, c) for c in spin_points(kind.n)]
    images = psi_rows(kind, np.stack([z.coords for z in points]))
    for z, image in zip(points, images):
        ref = psi(z, DualityRoute.BERGMAN_QUARTER).coords
        assert frobenius(image - ref) <= 1e-12 * max(1.0, z.norm())
    ambient = [gaussian(kind, seed=s, scale=2.0) for s in range(4)]
    if isinstance(kind, K.TypeIV):
        ambient += [Element(kind, 3.0 * c) for c in spin_points(kind.n)]
    backs = psi_rows(kind, np.stack([u.coords for u in ambient]), 1.0)
    for u, back in zip(ambient, backs):
        ref = psi_inverse(u, DualityRoute.BERGMAN_QUARTER).coords
        assert frobenius(back - ref) <= 1e-12 * max(1.0, u.norm())


@pytest.mark.parametrize("kind", [K.TypeI(2, 3), K.TypeII(4), K.TypeIII(3), K.TypeIV(4),
                                  K.Product((K.TypeI(1, 1), K.TypeIV(3)))],
                         ids=K.format_kind)
def test_row_map_rejects_a_stack_with_one_row_outside(kind):
    inside = [interior(kind, seed=s).coords for s in range(3)]
    lam1 = spectral_decompose(Element(kind, inside[1])).values[0]
    outside = inside[1] * (1.01 / lam1)
    with pytest.raises(DomainError, match="interior"):
        psi_rows(kind, np.stack([inside[0], outside, inside[2]]))
    psi_rows(kind, np.stack([inside[0], outside, inside[2]]), 1.0)  # psi_inverse: no domain


def test_row_map_shape_contract():
    with pytest.raises(ContractError):
        psi_rows(K.TypeI(2, 2), np.zeros(4, dtype=complex))
    with pytest.raises(ContractError):
        psi_rows(K.TypeI(2, 2), np.zeros((3, 5), dtype=complex))


# ---------------------------------------------------------------------------
# round trips

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trips(kind):
    z = interior(kind, seed=7 + K.ambient_dim(kind))
    back = psi_inverse(psi(z))
    assert frobenius(back.coords - z.coords) <= 1e-9 * max(1.0, z.norm())
    u = gaussian(kind, seed=11, scale=3.0)  # far outside any bounded picture
    forth = psi(psi_inverse(u))
    assert frobenius(forth.coords - u.coords) <= 1e-9 * max(1.0, u.norm())


def test_psi_needs_interior():
    kind = K.TypeI(2, 2)
    e11 = np.array([1.0, 0, 0, 0], dtype=complex)
    with pytest.raises(DomainError):
        psi(Element(kind, e11))
    with pytest.raises(DomainError):
        psi(Element(kind, 1.7 * e11))
    # psi_inverse has no such restriction
    psi_inverse(Element(kind, 10.0 * e11))


def test_spectral_covariance():
    # psi acts on spectral values as lambda -> lambda / sqrt(1 - lambda^2)
    # and keeps the frame
    z = interior(K.TypeIII(3), seed=3)
    dec = spectral_decompose(z)
    expected = sum((lam / np.sqrt(1.0 - lam**2)) * c.coords
                   for lam, c in zip(dec.values, dec.frame))
    assert np.allclose(psi(z).coords, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# naturality

@pytest.mark.parametrize("kind", [K.TypeI(2, 2), K.TypeII(4), K.TypeIII(2),
                                  K.TypeIV(4), K.Product((K.TypeI(1, 1), K.TypeIV(3)))])
def test_equivariance(kind):
    rng = np.random.default_rng(31)
    z = sample_domain(kind, rng, 0.9)
    params = random_isotropy(kind, rng)
    assert check_equivariance(params, z) < 1e-9
    lhs = psi(isotropy_action(params, z))
    rhs = isotropy_action(params, psi(z))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-9)


@pytest.mark.parametrize("sub,super_", [
    (K.TypeI(1, 1), K.TypeI(2, 2)),
    (K.TypeIII(2), K.TypeI(2, 2)),
    (K.TypeII(4), K.TypeI(4, 4)),
    (K.Product((K.TypeI(1, 1), K.TypeIII(2))), K.TypeI(3, 3)),
])
def test_hereditary(sub, super_):
    z = interior(sub, seed=13)
    assert check_hereditary(sub, super_, z) < 1e-9


def test_hereditary_kind_mismatch():
    z = interior(K.TypeI(1, 1), seed=1)
    with pytest.raises(ContractError):
        check_hereditary(K.TypeIII(2), K.TypeI(2, 2), z)


# ---------------------------------------------------------------------------
# property: round trip over arbitrary interior points

@st.composite
def interior_points(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    cap = draw(st.sampled_from([0.3, 0.8, 0.95]))
    rng = np.random.default_rng(seed)
    return sample_domain(kind, rng, cap)


@settings(max_examples=60, deadline=None)
@given(interior_points())
def test_round_trip_property(z):
    back = psi_inverse(psi(z))
    assert frobenius(back.coords - z.coords) <= 1e-9 * max(1.0, z.norm())
    assert psi_route_spread(z) < 1e-9
