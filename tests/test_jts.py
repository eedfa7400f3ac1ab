"""Triple product, derived operators, and structure maps.

Matrix kinds are checked against the raw matrix formula U V* W + W V* U
written out with numpy here in the tests, so the coordinate plumbing in the
library has an external reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjts.kinds as K
from hjts.errors import ContractError
from hjts.jts import (
    AntilinearOperator,
    Element,
    LinearOperator,
    basis_elements,
    bergman_operator,
    box_operator,
    d_operator,
    embed,
    embedding_target,
    genus,
    in_domain,
    isotropy_action,
    jordan_residual,
    m1_form,
    m1_norm,
    q_operator,
    restrict,
    triple_product,
    zero,
)

MATRIX_KINDS = [K.TypeI(1, 1), K.TypeI(2, 2), K.TypeI(2, 3), K.TypeII(4), K.TypeII(5), K.TypeIII(3)]
ALL_KINDS = MATRIX_KINDS + [K.TypeIV(3), K.TypeIV(5), K.Product((K.TypeI(1, 1), K.TypeIV(3)))]


def rnd(kind, rng, scale=1.0):
    n = K.ambient_dim(kind)
    return Element(kind, scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


# ---------------------------------------------------------------------------
# the product itself

def test_rank_one_triple_is_2uvw():
    u, v, w = 0.3 + 0.1j, -0.2 + 0.5j, 1.1 - 0.4j
    kind = K.TypeI(1, 1)
    out = triple_product(Element(kind, np.array([u])),
                         Element(kind, np.array([v])),
                         Element(kind, np.array([w])))
    assert out.coords[0] == pytest.approx(2 * u * np.conj(v) * w)


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_matrix_kinds_match_raw_formula(kind):
    rng = np.random.default_rng(K.ambient_dim(kind))
    u, v, w = (rnd(kind, rng) for _ in range(3))
    um, vm, wm = (K.coords_to_matrix(kind, e.coords) for e in (u, v, w))
    ref = um @ vm.conj().T @ wm + wm @ vm.conj().T @ um
    out = triple_product(u, v, w)
    assert np.allclose(K.coords_to_matrix(kind, out.coords), ref, atol=1e-12)


def test_spin_factor_matches_ambient_formula():
    kind = K.TypeIV(4)
    rng = np.random.default_rng(44)
    u, v, w = (rnd(kind, rng) for _ in range(3))
    ua, va, wa = (K.coords_to_ambient(kind, e.coords) for e in (u, v, w))
    ref = 2.0 * (np.vdot(va, ua) * wa + np.vdot(va, wa) * ua - (ua @ wa) * np.conj(va))
    out = triple_product(u, v, w)
    assert np.allclose(K.coords_to_ambient(kind, out.coords), ref, atol=1e-12)


def test_product_kind_acts_componentwise():
    kind = K.Product((K.TypeI(1, 1), K.TypeIV(3)))
    rng = np.random.default_rng(5)
    u, v, w = (rnd(kind, rng) for _ in range(3))
    out = triple_product(u, v, w)
    for f, uc, vc, wc, oc in zip(kind.factors,
                                 K.split_coords(kind, u.coords),
                                 K.split_coords(kind, v.coords),
                                 K.split_coords(kind, w.coords),
                                 K.split_coords(kind, out.coords)):
        part = triple_product(Element(f, uc), Element(f, vc), Element(f, wc))
        assert np.allclose(part.coords, oc)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symmetry_and_sesquilinearity(kind):
    rng = np.random.default_rng(17)
    u, v, w = (rnd(kind, rng) for _ in range(3))
    assert np.allclose(triple_product(u, v, w).coords, triple_product(w, v, u).coords)
    a = 0.7 - 1.3j
    scaled_u = Element(kind, a * u.coords)
    assert np.allclose(triple_product(scaled_u, v, w).coords,
                       a * triple_product(u, v, w).coords)
    scaled_v = Element(kind, a * v.coords)
    assert np.allclose(triple_product(u, scaled_v, w).coords,
                       np.conj(a) * triple_product(u, v, w).coords)


def test_kind_mismatch_rejected():
    a = zero(K.TypeI(1, 1))
    b = zero(K.TypeI(2, 2))
    with pytest.raises(ContractError):
        triple_product(a, b, a)
    with pytest.raises(ContractError):
        m1_form(a, b)


def test_element_validates_coords():
    with pytest.raises(ContractError):
        Element(K.TypeIII(2), np.zeros(2, dtype=complex))  # needs 3
    with pytest.raises(ContractError):
        Element(K.TypeI(1, 1), np.array([np.nan + 0j]))


# ---------------------------------------------------------------------------
# Jordan identity (the defining axiom) as a property

@st.composite
def kind_and_five(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return [rnd(kind, rng) for _ in range(5)]


@settings(max_examples=100, deadline=None)
@given(kind_and_five())
def test_jordan_identity_property(elements):
    assert jordan_residual(*elements) < 1e-12


def test_jordan_residual_detects_breakage():
    # sanity: the residual is not identically zero by construction
    kind = K.TypeIV(3)
    rng = np.random.default_rng(1)
    x, y, u, v, w = (rnd(kind, rng) for _ in range(5))
    lhs = triple_product(u, v, triple_product(x, y, w))
    assert jordan_residual(x, y, u, v, w) < 1e-12 < m1_norm(lhs)


# ---------------------------------------------------------------------------
# derived operators

@pytest.mark.parametrize("kind", [K.TypeI(2, 2), K.TypeII(4), K.TypeIV(3), K.TypeIII(3),
                                  K.Product((K.TypeI(1, 1), K.TypeIV(3)))])
def test_operator_definitions_agree(kind):
    rng = np.random.default_rng(23)
    u, v, w = (rnd(kind, rng) for _ in range(3))
    assert np.allclose(d_operator(u, v)(w).coords, triple_product(u, v, w).coords)
    assert np.allclose(q_operator(u)(v).coords, 0.5 * triple_product(u, v, u).coords)
    assert np.allclose(box_operator(u).matrix, 0.5 * d_operator(u, u).matrix)
    b = bergman_operator(u, v).matrix
    n = K.ambient_dim(kind)
    ref = (np.eye(n) - d_operator(u, v).matrix
           + q_operator(u).matrix @ np.conj(q_operator(v).matrix))
    assert np.allclose(b, ref, atol=1e-12)
    # the broadcast columns are, byte for byte, the triple product on each basis element
    d, q = d_operator(u, v).matrix, q_operator(u).matrix
    for k, e in enumerate(basis_elements(kind)):
        assert d[:, k].tobytes() == triple_product(u, v, e).coords.tobytes()
        assert q[:, k].tobytes() == (0.5 * triple_product(u, e, u).coords).tobytes()


def test_operator_wrappers_validate_and_stay_distinct():
    kind = K.TypeI(2, 2)
    u = rnd(kind, np.random.default_rng(24))
    assert not isinstance(q_operator(u), LinearOperator)
    assert not isinstance(d_operator(u, u), AntilinearOperator)
    for cls in (LinearOperator, AntilinearOperator):
        with pytest.raises(ContractError, match="4x4"):
            cls(kind, np.eye(3))
        with pytest.raises(ContractError, match="square"):
            cls(kind, np.ones((4, 3)))


def test_box_is_hermitian_psd():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        z = rnd(kind, rng)
        m = box_operator(z).matrix
        assert np.allclose(m, m.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > -1e-12


def test_tripotent_algebra():
    # E11 in I:2,2 is a tripotent: {e,e,e} = 2e and B(e,e) kills e
    kind = K.TypeI(2, 2)
    e = Element(kind, np.array([1.0, 0, 0, 0], dtype=complex))
    assert np.allclose(triple_product(e, e, e).coords, 2.0 * e.coords)
    assert np.allclose(bergman_operator(e, e)(e).coords, 0.0)
    # same for the maximal spin tripotent sqrt(2) e1
    kiv = K.TypeIV(3)
    c = Element(kiv, np.array([np.sqrt(2.0), 0, 0], dtype=complex))
    assert np.allclose(triple_product(c, c, c).coords, 2.0 * c.coords)


def test_m1_against_matrix_traces():
    rng = np.random.default_rng(31)
    x, y = rnd(K.TypeIII(3), rng), rnd(K.TypeIII(3), rng)
    xm, ym = (K.coords_to_matrix(K.TypeIII(3), e.coords) for e in (x, y))
    assert m1_form(x, y) == pytest.approx(np.trace(xm @ ym.conj().T))
    x2, y2 = rnd(K.TypeII(4), rng), rnd(K.TypeII(4), rng)
    xm2, ym2 = (K.coords_to_matrix(K.TypeII(4), e.coords) for e in (x2, y2))
    assert m1_form(x2, y2) == pytest.approx(0.5 * np.trace(xm2 @ ym2.conj().T))


def test_basis_elements_are_m1_orthonormal():
    for kind in (K.TypeII(4), K.TypeIII(2), K.TypeIV(3)):
        basis = basis_elements(kind)
        assert len(basis) == K.ambient_dim(kind)
        gram = np.array([[m1_form(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-14)


# ---------------------------------------------------------------------------
# genus

def test_genus_table():
    assert genus(K.TypeI(1, 1)) == 2
    assert genus(K.TypeI(2, 3)) == 5
    assert genus(K.TypeII(4)) == 6
    assert genus(K.TypeII(5)) == 8
    assert genus(K.TypeIII(3)) == 4
    assert genus(K.TypeIV(5)) == 5
    assert genus(K.Product((K.TypeI(1, 1), K.TypeIV(3)))) == [2, 3]


# ---------------------------------------------------------------------------
# domain membership

def test_in_domain_basics():
    kind = K.TypeI(2, 2)
    e11 = np.array([1.0, 0, 0, 0], dtype=complex)
    assert in_domain(zero(kind))
    assert in_domain(Element(kind, 0.999 * e11))
    assert not in_domain(Element(kind, e11))      # boundary is excluded
    assert not in_domain(Element(kind, 1.5 * e11))
    # spin factor: real direction leaves the ball at coords norm sqrt(2)
    kiv = K.TypeIV(3)
    direction = np.array([1.0, 0, 0], dtype=complex)
    assert in_domain(Element(kiv, 1.35 * direction))
    assert not in_domain(Element(kiv, 1.45 * direction))  # > sqrt(2)


def test_in_domain_product_needs_both():
    kind = K.Product((K.TypeI(1, 1), K.TypeI(1, 1)))
    assert in_domain(Element(kind, np.array([0.9, 0.9], dtype=complex)))
    assert not in_domain(Element(kind, np.array([0.9, 1.1], dtype=complex)))


# ---------------------------------------------------------------------------
# isotropies

@pytest.mark.parametrize("kind", [K.TypeI(2, 3), K.TypeII(4), K.TypeIII(2),
                                  K.TypeIV(4), K.Product((K.TypeI(1, 1), K.TypeIV(3)))])
def test_isotropy_is_triple_automorphism(kind):
    from hjts.harness import random_isotropy
    rng = np.random.default_rng(101)
    params = random_isotropy(kind, rng)
    u, v, w = (rnd(kind, rng) for _ in range(3))
    lhs = isotropy_action(params, triple_product(u, v, w))
    rhs = triple_product(*(isotropy_action(params, e) for e in (u, v, w)))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-12)
    assert m1_form(isotropy_action(params, u), isotropy_action(params, v)) == \
        pytest.approx(m1_form(u, v))


def test_isotropy_rejects_nonunitary():
    z = zero(K.TypeIII(2))
    with pytest.raises(ContractError):
        isotropy_action(2.0 * np.eye(2, dtype=complex), z)
    ziv = zero(K.TypeIV(3))
    with pytest.raises(ContractError):
        # unitary but not real: no good for a spin rotation
        isotropy_action((0.0, np.diag([1j, 1.0, 1.0])), ziv)


# ---------------------------------------------------------------------------
# embeddings

@pytest.mark.parametrize("sub,target", [
    (K.TypeI(1, 1), K.TypeI(2, 2)),
    (K.TypeIII(2), K.TypeI(2, 2)),
    (K.TypeII(4), K.TypeI(4, 4)),
    (K.Product((K.TypeI(1, 1), K.TypeIII(2))), None),  # None -> canonical target
])
def test_embed_is_triple_homomorphism(sub, target):
    if target is None:
        target = embedding_target(sub)
    rng = np.random.default_rng(7)
    u, v, w = (rnd(sub, rng) for _ in range(3))
    lhs = embed(sub, target, triple_product(u, v, w))
    rhs = triple_product(*(embed(sub, target, e) for e in (u, v, w)))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-12)
    assert np.allclose(restrict(sub, target, embed(sub, target, u)).coords, u.coords)


def test_embedding_target_shapes():
    assert embedding_target(K.TypeI(2, 3)) == K.TypeI(2, 3)
    assert embedding_target(K.TypeII(5)) == K.TypeI(5, 5)
    assert embedding_target(K.Product((K.TypeI(1, 2), K.TypeIII(2)))) == K.TypeI(3, 4)


def test_embed_rejections():
    with pytest.raises(ContractError):
        embed(K.TypeIV(3), K.TypeI(3, 3), zero(K.TypeIV(3)))  # spin: no matrix picture
    with pytest.raises(ContractError):
        embed(K.TypeIII(3), K.TypeI(2, 2), zero(K.TypeIII(3)))  # target too small
    with pytest.raises(ContractError):
        embed(K.TypeI(1, 1), K.TypeIII(2), zero(K.TypeI(1, 1)))  # target not TypeI
