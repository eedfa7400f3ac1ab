"""Spectral decomposition, generic norms, and the odd functional calculus."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjts.kinds as K
from hjts.duality import DualityRoute, psi, psi_inverse_route_spread, psi_route_spread, psi_rows
from hjts.errors import ContractError, DomainError, SingularityError
from hjts.geometry import PotentialId, kahler_matrix
from hjts.harness import DEFAULT_KINDS, sample_domain
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
from hjts.linalg import det, frobenius, takagi
from hjts.spectral import (
    _box_power_rows,
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


def antisymmetric_with_pairs(kind, pairs, seed):
    """Q diag(s_j [[0, 1], [-1, 0]]) Q^T for a random unitary Q, as an element."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((kind.n, kind.n))
                     + 1j * rng.standard_normal((kind.n, kind.n)))[0]
    blocks = np.zeros((kind.n, kind.n), dtype=complex)
    for j, s in enumerate(pairs):
        blocks[2 * j, 2 * j + 1], blocks[2 * j + 1, 2 * j] = s, -s
    return Element(kind, K.matrix_to_coords(kind, q @ blocks @ q.T))


@pytest.mark.parametrize("n", [5, 7])
def test_odd_type_ii_near_zero_is_not_a_defect(n):
    # Gaps below the 1e-9 cluster threshold chain the nonzero pairs into one
    # cluster; the unpaired kernel column of odd n must not join it.
    z = antisymmetric_with_pairs(K.TypeII(n), (1.8e-9, 0.9e-9), seed=n)
    dec = spectral_decompose(z)
    assert len(dec.frame) == n // 2
    assert frobenius(dec.reconstruct().coords - z.coords) < 1e-8
    assert psi(z, DualityRoute.SPECTRAL).norm() < 1e-8
    assert psi_route_spread(z) < 1e-8


def test_type_ii_dead_psi_falls_back_to_completion():
    # One cluster mixing 1e-9-sized pairs with a kernel pair: psi is
    # numerically dead on part of it, and the frame is finished by completion.
    z = antisymmetric_with_pairs(K.TypeII(6), (1.8e-9, 0.9e-9, 0.0), seed=6)
    dec = spectral_decompose(z)
    assert frobenius(dec.reconstruct().coords - z.coords) < 1e-8


def test_spin_frame_of_equal_values():
    # e^{i t} x with x real has lambda_1 = lambda_2: the rotated point has no
    # imaginary part, so the second frame direction comes from completion.
    kind = K.TypeIV(4)
    x = np.array([0.3, -0.2, 0.1, 0.25])
    z = Element(kind, np.exp(0.7j) * x)
    dec = spectral_decompose(z)
    assert dec.values[0] == pytest.approx(dec.values[1], abs=1e-15)
    assert decomposition_residuals(z) < 1e-14


def test_tiny_singular_value_recovered():
    kind = K.TypeI(2, 2)
    z = Element(kind, np.array([0.9, 0, 0, 1e-7], dtype=complex))
    dec = spectral_decompose(z)
    assert dec.values[1] == pytest.approx(1e-7, rel=1e-6)
    assert decomposition_residuals(z) < 1e-9


# degenerate spectra: repeated values, one zero value, the origin --------------

DEGENERATE_KINDS = (K.TypeI(2, 2), K.TypeI(2, 3), K.TypeII(4), K.TypeII(5), K.TypeIII(3),
                    K.TypeIV(4), K.Product((K.TypeI(1, 1), K.TypeIV(3))))
DEGENERATE_SPECTRA = {  # rank -> the spectral values, descending
    "repeated": lambda r: [0.6] * r,
    "one-zero": lambda r: list(np.linspace(0.7, 0.0, r)),
    "origin": lambda r: [0.0] * r,
}


def random_unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def with_values(kind, values, rng):
    """A point of ``kind`` with the given spectral values, factor by factor:
    U diag V (I), U (+ lambda J) U^T (II), U diag U^T (III), and for IV
    lambda_1 c_+ + lambda_2 c_- on a random real orthonormal pair and phase
    (one zero value there is an isotropic vector)."""
    pieces, at = [], 0
    for f in K.simple_factors(kind):
        vals, at = values[at:at + K.rank(f)], at + K.rank(f)
        if isinstance(f, K.TypeIV):
            u, v = np.linalg.qr(rng.standard_normal((f.n, 2)))[0].T
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            amb = phase * (vals[0] * (u + 1j * v) + vals[1] * (u - 1j * v)) / 2.0
            pieces.append(K.ambient_to_coords(f, amb))
            continue
        if isinstance(f, K.TypeI):
            d = np.zeros((f.p, f.q), dtype=complex)
            d[range(len(vals)), range(len(vals))] = vals
            mat = random_unitary(rng, f.p) @ d @ random_unitary(rng, f.q)
        else:
            d = np.zeros((f.n, f.n), dtype=complex)
            if isinstance(f, K.TypeII):
                for j, lam in enumerate(vals):
                    d[2 * j, 2 * j + 1], d[2 * j + 1, 2 * j] = lam, -lam
            else:
                d[range(f.n), range(f.n)] = vals
            q = random_unitary(rng, f.n)
            mat = q @ d @ q.T
        pieces.append(K.matrix_to_coords(f, mat))
    return Element(kind, K.join_coords(kind, pieces))


@pytest.mark.parametrize("case", DEGENERATE_SPECTRA)
@pytest.mark.parametrize("kind", DEGENERATE_KINDS, ids=K.format_kind)
def test_degenerate_spectra_keep_frames_and_route_spreads_at_roundoff(kind, case):
    rng = np.random.default_rng(K.ambient_dim(kind) + 700)
    z = with_values(kind, DEGENERATE_SPECTRA[case](K.rank(kind)), rng)
    dec = spectral_decompose(z)
    assert len(dec.frame) == K.rank(kind)
    assert frobenius(dec.reconstruct().coords - z.coords) <= 1e-13
    for c in dec.frame:
        assert frobenius(triple_product(c, c, c).coords - 2.0 * c.coords) <= 1e-13
    for i, ci in enumerate(dec.frame):
        for cj in dec.frame[i + 1:]:
            assert frobenius(d_operator(ci, cj).matrix) <= 1e-13
    assert psi_route_spread(z) <= 1e-13
    assert psi_inverse_route_spread(z) <= 1e-13


@pytest.mark.parametrize("rank", [1, 2])
def test_takagi_null_columns_annihilate_a_rank_deficient_input(rank):
    # U diag U^T of rank 1 or 2: u stays unitary and a conj(u_j) = 0 on
    # every column past the rank
    q = random_unitary(np.random.default_rng(40 + rank), 4)[:, :rank]
    a = q @ np.diag([0.8, 0.5][:rank]) @ q.T
    u = takagi(a).u
    assert frobenius(u.conj().T @ u - np.eye(4)) <= 1e-14
    for j in range(rank, 4):
        assert frobenius(a @ u[:, j].conj()) <= 1e-14


# generic norms ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_det_bergman_equals_norm_to_genus(kind):
    rng = np.random.default_rng(77)
    z = rnd(kind, rng, 0.4 / math.sqrt(K.ambient_dim(kind)))
    for f, piece in zip(K.simple_factors(kind), K.split_coords(kind, z.coords)):
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


def test_log_norm_rows_refusals_name_their_cause():
    # log N* is finite everywhere, so its refusal must not say "outside the
    # domain": at 5e7 the rank-one Gram (1e16) swamps the identity in I + Gram
    kind = K.TypeI(2, 2)
    with pytest.raises(DomainError, match="^log N\\* cannot be evaluated at this scale: "
                       "I \\+ Gram lost its identity term to roundoff$"):
        log_norm_rows(kind, np.full((1, 4), 5e7), 1.0)
    with pytest.raises(DomainError, match="^point lies outside the bounded domain "
                       "\\(largest spectral value >= 1\\)$"):
        log_norm_rows(kind, np.full((1, 4), 0.6), -1.0)


# the dual side's solves of I + Gram, on a (1, N) row
_DUAL_SOLVES = {
    "kahler_matrix": lambda kind, row: kahler_matrix(PotentialId.DUAL_FS, Element(kind, row[0])),
    "box_power_rows_-1": lambda kind, row: _box_power_rows(kind, row, 1.0, -1),
    "box_power_rows_-2": lambda kind, row: _box_power_rows(kind, row, 1.0, -2),
}


@pytest.mark.parametrize("v", [1e10, 1e12])
@pytest.mark.parametrize("site", _DUAL_SOLVES.values(), ids=_DUAL_SOLVES.keys())
def test_dual_side_far_out_is_refused_as_log_n_star_is(site, v):
    # a rank-one I:2,2 point with every entry v/2 (lambda_1 = v): I + Gram rounds
    # to the rank-one Gram, so its solve is exactly singular.  That is a refusal
    # of the point, worded as log N*'s, not an internal SingularityError
    kind = K.TypeI(2, 2)
    row = np.full((1, 4), 0.5 * v, dtype=complex)
    assert spectral_values(Element(kind, row[0]))[0] == pytest.approx(v, rel=1e-15)
    with pytest.raises(DomainError, match="^log N\\* cannot be evaluated at this scale: "
                       "I \\+ Gram lost its identity term to roundoff$"):
        site(kind, row)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["minus", "plus"])
@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_row_maps_reject_non_finite_rows(kind, sign, bad):
    # one contract for every kind and sign: no NaN result, no DomainError
    rng = np.random.default_rng(K.ambient_dim(kind) + 600)
    rows = np.stack([sample_domain(kind, rng).coords for _ in range(2)])
    rows[1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row_map in (log_norm_rows, psi_rows):
            with pytest.raises(ContractError, match="non-finite"):
                row_map(kind, rows, sign)


@pytest.mark.parametrize("sign", [0.0, 2.0, -0.5, math.nan])
def test_log_norm_rows_rejects_a_sign_other_than_minus_or_plus_one(sign):
    kind = K.TypeI(2, 2)
    rows = sample_domain(kind, np.random.default_rng(610)).coords[None, :]
    with pytest.raises(ContractError, match="sign"):
        log_norm_rows(kind, rows, sign)


# the Gram-side row map (id + sign z box z)^t z ------------------------------

POWERS = (-0.5, -1, -2)
ORACLE_KINDS = DEFAULT_KINDS + (K.TypeI(3, 2), K.TypeII(5), K.TypeIV(6))


def operator_power(z, sign, t):
    """(id + sign z box z)^t z through numpy's eigendecomposition of the N x N operator."""
    shifted = np.eye(K.ambient_dim(z.kind)) + sign * box_operator(z).matrix
    values, vectors = np.linalg.eigh(shifted)
    return (vectors * values ** t) @ vectors.conj().T @ z.coords


def spin_special_points(n):
    """q = 0, a real vector, and the origin."""
    isotropic = np.zeros(n, dtype=complex)
    isotropic[:2] = 0.5, 0.5j
    real = np.linspace(0.1, 0.4, n).astype(complex) / math.sqrt(n)
    return [isotropic, real, np.zeros(n, dtype=complex)]


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=K.format_kind)
def test_box_power_rows_match_the_operator_power(kind):
    rng = np.random.default_rng(K.ambient_dim(kind) + 300)
    points = [sample_domain(kind, rng).coords for _ in range(4)]
    if isinstance(kind, K.TypeIV):
        points += spin_special_points(kind.n)
    rows = np.stack(points)
    for sign in (-1.0, 1.0):
        for t in POWERS:
            images = _box_power_rows(kind, rows, sign, t)
            for row, image in zip(rows, images):
                expected = operator_power(Element(kind, row), sign, t)
                assert frobenius(image - expected) <= 1e-12 * frobenius(expected)


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_box_power_rows_are_their_own_k1_calls(kind):
    rng = np.random.default_rng(K.ambient_dim(kind) + 400)
    rows = np.stack([sample_domain(kind, rng).coords for _ in range(3)]
                    + [np.zeros(K.ambient_dim(kind), dtype=complex)])
    for sign in (-1.0, 1.0):
        for t in POWERS:
            images = _box_power_rows(kind, rows, sign, t)
            for i, image in enumerate(images):
                assert _box_power_rows(kind, rows[i:i + 1], sign, t)[0].tobytes() == image.tobytes()


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_row_maps_take_an_empty_stack(kind):
    rows = np.zeros((0, K.ambient_dim(kind)), dtype=complex)
    for sign in (-1.0, 1.0):
        assert log_norm_rows(kind, rows, sign).shape == (0,)
        assert psi_rows(kind, rows, sign).shape == rows.shape
        for t in POWERS:
            assert _box_power_rows(kind, rows, sign, t).shape == rows.shape


# products are their factors, byte for byte ----------------------------------

PRODUCTS = (K.parse_kind("prod(I:2,2;III:2;II:4)"), K.parse_kind("prod(IV:3;IV:4)"))


def product_rows(kind):
    """Three interior rows of a product, and each factor's columns of them,
    cut by hand and copied."""
    rng = np.random.default_rng(K.ambient_dim(kind) + 500)
    rows = np.stack([sample_domain(kind, rng).coords for _ in range(3)])
    parts, at = [], 0
    for f in kind.factors:
        d = K.ambient_dim(f)
        parts.append((f, rows[:, at:at + d].copy()))
        at += d
    return rows, parts


@pytest.mark.parametrize("kind", PRODUCTS, ids=K.format_kind)
def test_product_values_merge_the_factor_values(kind):
    rows, parts = product_rows(kind)
    for i, row in enumerate(rows):
        merged = np.concatenate([spectral_values(Element(f, c[i])) for f, c in parts])
        expected = np.sort(merged)[::-1]
        assert spectral_values(Element(kind, row)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", PRODUCTS, ids=K.format_kind)
def test_product_log_norms_add_the_factor_log_norms(kind):
    rows, parts = product_rows(kind)
    for sign in (-1.0, 1.0):
        expected = log_norm_rows(*parts[0], sign)
        for f, c in parts[1:]:
            expected = expected + log_norm_rows(f, c, sign)
        assert log_norm_rows(kind, rows, sign).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", PRODUCTS, ids=K.format_kind)
def test_product_box_powers_concatenate_the_factor_images(kind):
    rows, parts = product_rows(kind)
    for sign in (-1.0, 1.0):
        for t in POWERS:
            expected = np.concatenate([_box_power_rows(f, c, sign, t) for f, c in parts],
                                      axis=-1)
            assert _box_power_rows(kind, rows, sign, t).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", PRODUCTS, ids=K.format_kind)
def test_product_frames_merge_the_padded_factor_frames(kind):
    rows, parts = product_rows(kind)
    for i, row in enumerate(rows):
        entries, at = [], 0
        for f, c in parts:
            dec = spectral_decompose(Element(f, c[i]))
            for lam, frame in zip(dec.values, dec.frame):
                padded = np.zeros(row.size, dtype=complex)
                padded[at:at + c.shape[1]] = frame.coords
                entries.append((lam, padded))
            at += c.shape[1]
        entries.sort(key=lambda e: -e[0])  # stable: ties keep factor order
        dec = spectral_decompose(Element(kind, row))
        assert dec.values.tobytes() == np.array([lam for lam, _ in entries]).tobytes()
        assert len(dec.frame) == len(entries)
        for c, (_, padded) in zip(dec.frame, entries):
            assert c.coords.tobytes() == padded.tobytes()


# quasi-inverse & odd powers --------------------------------------------------

def test_quasi_inverse_spectral_form():
    rng = np.random.default_rng(5)
    for kind in (K.TypeI(2, 2), K.TypeII(4), K.TypeIV(4)):
        z = rnd(kind, rng, 0.2)
        dec = spectral_decompose(z)
        expected = sum((lam / (1.0 - lam**2)) * c.coords
                       for lam, c in zip(dec.values, dec.frame))
        assert np.allclose(quasi_inverse(z).coords, expected, atol=1e-10)


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_quasi_inverse_off_the_domain_is_the_operator_solve(kind):
    rng = np.random.default_rng(K.ambient_dim(kind) + 500)
    checked = 0
    while checked < 3:
        z = rnd(kind, rng, 1.5)
        values = spectral_values(z)
        if values[0] <= 1.0 or np.min(np.abs(values - 1.0)) < 0.1:
            continue  # inside the domain, or near a pole
        box = box_operator(z).matrix
        expected = np.linalg.solve(np.eye(box.shape[0]) - box, z.coords)
        assert frobenius(quasi_inverse(z).coords - expected) <= 1e-12 * frobenius(expected)
        checked += 1


def test_quasi_inverse_pole():
    kind = K.TypeI(1, 1)
    with pytest.raises(SingularityError):
        quasi_inverse(Element(kind, np.array([1.0], dtype=complex)))


@pytest.mark.parametrize("kind", DEFAULT_KINDS, ids=K.format_kind)
def test_odd_powers_are_spectral_powers(kind):
    rng = np.random.default_rng(6)
    z = rnd(kind, rng, 0.5)
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
