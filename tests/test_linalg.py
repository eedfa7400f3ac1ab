"""Dense-kernel tests, checked against numpy.linalg as the reference.

The library itself never calls numpy.linalg (the kernels are self-contained
Jacobi iterations), so the comparisons here are genuinely independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjts.errors import ContractError, DomainError
from hjts.linalg import (
    as_matrix,
    as_vector,
    cholesky_logdet,
    det,
    eigh,
    frobenius,
    hermitian_power,
    solve,
    svd,
    takagi,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# eigh

class TestEigh:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8):
            a = random_complex(rng, n, n)
            h = a + a.conj().T
            res = eigh(h)
            assert np.allclose(res.vectors @ np.diag(res.values) @ res.vectors.conj().T, h,
                               atol=1e-12 * max(1, frobenius(h)))
            assert np.allclose(res.vectors.conj().T @ res.vectors, np.eye(n), atol=1e-12)
            assert list(res.values) == sorted(res.values, reverse=True)

    def test_against_numpy(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 6, 6)
        h = a + a.conj().T
        mine = eigh(h).values
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.allclose(mine, ref, atol=1e-11)

    def test_diagonal_input(self):
        res = eigh(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(res.values, [3.0, 2.0, -1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ContractError):
            eigh(np.zeros((2, 3), dtype=complex))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ContractError):
            eigh(bad)


# ---------------------------------------------------------------------------
# svd

class TestSvd:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (4, 4), (7, 3)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = random_complex(rng, *shape)
        res = svd(a)
        k = min(shape)
        approx = res.u[:, :k] @ np.diag(res.sigma) @ res.v[:, :k].conj().T
        assert np.allclose(approx, a, atol=1e-11 * max(1, frobenius(a)))
        assert np.allclose(res.u.conj().T @ res.u, np.eye(shape[0]), atol=1e-11)
        assert np.allclose(res.v.conj().T @ res.v, np.eye(shape[1]), atol=1e-11)
        assert np.all(res.sigma >= 0) and list(res.sigma) == sorted(res.sigma, reverse=True)

    def test_against_numpy(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 5, 3)
        assert np.allclose(svd(a).sigma, np.linalg.svd(a, compute_uv=False), atol=1e-11)

    def test_rank_deficient(self):
        rng = np.random.default_rng(8)
        col = random_complex(rng, 4, 1)
        row = random_complex(rng, 1, 6)
        a = col @ row  # rank one
        res = svd(a)
        assert res.sigma[0] > 1.0e-8
        assert np.all(res.sigma[1:] < 1e-10)
        approx = res.u[:, :4] @ np.diag(res.sigma) @ res.v[:, :4].conj().T
        assert np.allclose(approx, a, atol=1e-11 * frobenius(a))

    def test_zero_matrix(self):
        res = svd(np.zeros((3, 2), dtype=complex))
        assert np.all(res.sigma == 0)
        assert np.allclose(res.u.conj().T @ res.u, np.eye(3), atol=1e-14)


# ---------------------------------------------------------------------------
# takagi

class TestTakagi:
    def check(self, a, atol=1e-10):
        res = takagi(a)
        assert np.allclose(res.u @ np.diag(res.sigma) @ res.u.T, a,
                           atol=atol * max(1, frobenius(a)))
        assert np.allclose(res.u.conj().T @ res.u, np.eye(a.shape[0]), atol=atol)
        assert np.allclose(res.sigma, np.linalg.svd(a, compute_uv=False), atol=atol)

    def test_random_symmetric(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 6):
            a = random_complex(rng, n, n)
            self.check(a + a.T)

    def test_clustered_singular_values(self):
        # Degenerate sigma blocks are the classic failure mode of
        # eigh(a a^H)-based Takagi implementations; the real-doubling route
        # must not care.  Spread ~1e-9 between two singular values.
        rng = np.random.default_rng(4)
        q = np.linalg.qr(random_complex(rng, 4, 4))[0]
        a = q @ np.diag([1.0, 1.0 + 1e-9, 0.5, 0.5]) @ q.T
        self.check(a, atol=1e-8)

    def test_zero_matrix(self):
        res = takagi(np.zeros((3, 3), dtype=complex))
        assert np.all(res.sigma == 0)
        assert np.allclose(res.u.conj().T @ res.u, np.eye(3), atol=1e-12)

    def test_real_diagonal(self):
        self.check(np.diag([2.0, 1.0, 0.0]).astype(complex))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ContractError):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# ---------------------------------------------------------------------------
# hermitian_power / cholesky_logdet

def _random_hpd(rng, n, shift=0.1):
    a = random_complex(rng, n, n)
    return a @ a.conj().T + shift * np.eye(n)


def test_hermitian_power_matches_fractional_oracle():
    rng = np.random.default_rng(11)
    h = _random_hpd(rng, 5)
    w, v = np.linalg.eigh(h)
    for t in (-0.5, -0.25, 0.25, 0.5, 2.0):
        ref = (v * w**t) @ v.conj().T
        assert np.allclose(hermitian_power(h, t), ref, atol=1e-10)


def test_hermitian_power_quarter_squares_to_half():
    rng = np.random.default_rng(12)
    h = _random_hpd(rng, 4)
    quarter = hermitian_power(h, 0.25)
    assert np.allclose(quarter @ quarter, hermitian_power(h, 0.5), atol=1e-11)


def test_hermitian_power_rejects_nonhermitian():
    with pytest.raises(ContractError):
        hermitian_power(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 0.5)


def test_hermitian_power_rejects_indefinite():
    with pytest.raises(DomainError):
        hermitian_power(np.diag([1.0, -0.5]).astype(complex), 0.5)


def test_cholesky_logdet_matches_slogdet():
    rng = np.random.default_rng(13)
    for n in (1, 3, 6):
        h = _random_hpd(rng, n)
        sign, ref = np.linalg.slogdet(h)
        assert sign == pytest.approx(1.0)
        assert cholesky_logdet(h) == pytest.approx(ref, abs=1e-10)


def test_cholesky_logdet_rejects_indefinite():
    with pytest.raises(DomainError):
        cholesky_logdet(np.diag([1.0, -1e-3]).astype(complex))
    # positive determinant but not positive definite: two negative pivots
    with pytest.raises(DomainError):
        cholesky_logdet(np.diag([-1.0, -1.0]).astype(complex))


def test_cholesky_logdet_stacked_matches_slices_and_slogdet():
    rng = np.random.default_rng(14)
    for n in (1, 3, 6, 9):
        stack = np.array([[_random_hpd(rng, n) for _ in range(4)] for _ in range(2)])
        got = cholesky_logdet(stack)
        assert got.shape == (2, 4)
        per_slice = np.array([[cholesky_logdet(m) for m in row] for row in stack])
        assert np.array_equal(got, per_slice)
        sign, ref = np.linalg.slogdet(stack)
        assert np.allclose(sign, 1.0)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10)


def test_cholesky_logdet_stack_with_one_indefinite_slice_raises():
    rng = np.random.default_rng(15)
    stack = np.array([_random_hpd(rng, 3) for _ in range(5)])
    stack[3] = np.diag([1.0, 2.0, -1e-3]).astype(complex)
    with pytest.raises(DomainError, match="pivot 2"):
        cholesky_logdet(stack)


def test_cholesky_logdet_two_dimensional_input_returns_float():
    rng = np.random.default_rng(16)
    value = cholesky_logdet(_random_hpd(rng, 4))
    assert type(value) is float
    assert cholesky_logdet(np.eye(3)) == 0.0


def test_cholesky_logdet_contracts():
    with pytest.raises(ContractError):
        cholesky_logdet(np.ones(3))
    with pytest.raises(ContractError):
        cholesky_logdet(np.ones((2, 2, 3)))
    with pytest.raises(ContractError):
        cholesky_logdet(np.array([[[1.0, 0.0], [0.0, np.nan]]]))


# ---------------------------------------------------------------------------
# det / solve

def test_det_against_numpy():
    rng = np.random.default_rng(20)
    for n in (1, 2, 5):
        a = random_complex(rng, n, n)
        assert det(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


def test_det_singular_is_zero():
    a = np.ones((3, 3), dtype=complex)
    assert abs(det(a)) < 1e-12


def test_solve_roundtrip():
    rng = np.random.default_rng(21)
    a = random_complex(rng, 5, 5) + 5 * np.eye(5)
    b = random_complex(rng, 5)
    x = solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-11)
    bm = random_complex(rng, 5, 2)
    assert np.allclose(a @ solve(a, bm), bm, atol=1e-11)


def test_solve_singular_raises():
    from hjts.errors import SingularityError
    with pytest.raises(SingularityError):
        solve(np.zeros((2, 2), dtype=complex), np.ones(2, dtype=complex))


# ---------------------------------------------------------------------------
# conversions

def test_as_matrix_and_vector_contracts():
    with pytest.raises(ContractError):
        as_matrix([1, 2, 3])
    with pytest.raises(ContractError):
        as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(ContractError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        as_vector(np.zeros(3), dim=4)
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.complex128


# ---------------------------------------------------------------------------
# property: decompositions survive arbitrary well-scaled inputs

@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    return a + a.conj().T


@settings(max_examples=60, deadline=None)
@given(hermitian_matrices())
def test_eigh_reconstructs_property(h):
    res = eigh(h)
    scale = max(1.0, frobenius(h))
    assert frobenius(res.vectors @ np.diag(res.values) @ res.vectors.conj().T - h) <= 1e-11 * scale
    assert frobenius(res.vectors.conj().T @ res.vectors - np.eye(h.shape[0])) <= 1e-11


@st.composite
def rectangular_matrices(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return random_complex(rng, m, n)


@settings(max_examples=60, deadline=None)
@given(rectangular_matrices())
def test_svd_sigma_matches_gram_spectrum(a):
    sigma = svd(a).sigma
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    lam = np.sqrt(np.clip(eigh(gram).values, 0.0, None))
    assert np.allclose(sigma, lam, atol=1e-9 * max(1.0, frobenius(a)))
