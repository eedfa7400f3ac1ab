"""Dense-kernel tests, checked against numpy.linalg as the reference.

The library itself never calls numpy.linalg (the kernels are self-contained
Jacobi iterations), so the comparisons here are genuinely independent.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hjts.linalg
import hjts.kinds as K
from hjts.errors import ContractError, ConvergenceError, DomainError, SingularityError
from hjts.jts import isotropy_action, zero
from hjts.linalg import (
    as_matrix,
    as_vector,
    cholesky_logdet,
    det,
    eigh,
    frobenius,
    hermitian_power,
    orthonormal_extension,
    solve,
    svd,
    takagi,
    worst_of,
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

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_complex(self, rank):
        # a nonzero null space of a genuinely complex matrix: the orthonormal
        # completion of the null columns must still give a unitary u
        rng = np.random.default_rng(5 + rank)
        cols = random_complex(rng, 4, rank)
        self.check(cols @ np.diag([1.5, 0.5][:rank]) @ cols.T)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ContractError):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# ---------------------------------------------------------------------------
# orthonormal_extension

class TestOrthonormalExtension:
    def test_count_zero_returns_empty(self):
        assert orthonormal_extension([], np.eye(3, dtype=complex), 0) == []

    def test_completes_a_complex_basis(self):
        rng = np.random.default_rng(30)
        basis = list(np.linalg.qr(random_complex(rng, 5, 2))[0].T)
        added = orthonormal_extension(basis, np.eye(5, dtype=complex), 3)
        full = np.array(basis + added).T
        assert frobenius(full.conj().T @ full - np.eye(5)) <= 1e-14

    def test_real_candidates_give_real_vectors(self):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(4)
        u /= frobenius(u)
        added = orthonormal_extension([u], np.eye(4), 3)
        assert all(v.dtype == np.float64 for v in added)
        full = np.array([u] + added).T
        assert frobenius(full.T @ full - np.eye(4)) <= 1e-14

    def test_picks_the_candidate_with_the_largest_residual(self):
        e = np.eye(3, dtype=complex)
        basis = [(e[0] + e[1]) / np.sqrt(2.0)]
        # e2 is orthogonal to the basis, so it is kept whole
        assert np.array_equal(orthonormal_extension(basis, e, 1)[0], e[2])

    def test_an_empty_basis_takes_the_first_candidates_exactly(self):
        # the spin factor's frame at the origin is e1, e2 bit for bit
        e = np.eye(4)
        first, second = orthonormal_extension([], e, 2)
        assert first.tobytes() == e[0].tobytes() and second.tobytes() == e[1].tobytes()


# ---------------------------------------------------------------------------
# worst_of

@pytest.mark.parametrize("values, expected", [
    ([], 0.0),
    ([0.5, np.float64(2.0), 1], 2.0),
    ([1e-16, np.nan], np.nan),
    ([np.nan, 1e-16], np.nan),
    ((x for x in (3e-9, np.float64(np.nan), 1.0)), np.nan),
], ids=["empty", "largest", "nan-last", "nan-first", "generator"])
def test_worst_of_keeps_every_nan(values, expected):
    got = worst_of(values)
    assert type(got) is float
    assert got == expected or (np.isnan(got) and np.isnan(expected))


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


_HERMITIAN_RULE_CALLS = {
    "eigh": eigh,
    "hermitian_power 2-D": lambda a: hermitian_power(a, 0.5),
    "hermitian_power stack": lambda a: hermitian_power(a[None], 0.5),
}


@pytest.mark.parametrize("call", _HERMITIAN_RULE_CALLS.values(), ids=_HERMITIAN_RULE_CALLS)
def test_one_hermitian_rule_binds_eigh_and_both_hermitian_power_forms(call):
    # ||a - a*||_F against 1e-10 * max(1, ||a||_F) = 1e-10 here: 0.85e-10 passes,
    # 1.7e-10 fails, on every call alike
    for off, refused in ((0.6e-10, False), (1.2e-10, True)):
        a = 0.5 * np.eye(2, dtype=complex)
        a[0, 1] = off
        if refused:
            with pytest.raises(ContractError, match="requires a Hermitian matrix"):
                call(a)
        else:
            call(a)


def test_hermitian_power_rejects_indefinite():
    with pytest.raises(DomainError):
        hermitian_power(np.diag([1.0, -0.5]).astype(complex), 0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_power_of_an_empty_stack_is_empty(n):
    assert hermitian_power(np.zeros((0, n, n)), -0.5).shape == (0, n, n)


def _power_oracle(h, t):
    w, v = np.linalg.eigh(h)
    return (v * w[..., None, :] ** t) @ v.conj().swapaxes(-1, -2)


def test_stacked_hermitian_power_matches_oracle():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        stack = np.array([_random_hpd(rng, n) for _ in range(5)])
        for t in (-0.5, -0.25, 0.5):
            got = hermitian_power(stack, t)
            assert got.shape == stack.shape
            assert np.allclose(got, _power_oracle(stack, t), rtol=0.0, atol=1e-10)
            # the per-slice 2-D path rounds differently, within a few ulps
            loop = np.array([hermitian_power(m, t) for m in stack])
            assert np.max(np.abs(got - loop)) <= 1e-13 * np.max(np.abs(loop))


def _mixed_stack(rng, n):
    """Slices that converge after different sweep counts: identity, diagonal,
    dense, nearly degenerate (eigenvalues 1 + O(1e-9)) and a scaled copy."""
    dense = _random_hpd(rng, n)
    nearly = np.eye(n) + 1e-9 * _random_hpd(rng, n, shift=0.0)
    return np.array([np.eye(n), np.diag(np.linspace(2.0, 0.5, n)), dense, nearly,
                     1e3 * dense]).astype(complex)


def test_stacked_hermitian_power_slices_are_their_own_k1_calls():
    rng = np.random.default_rng(22)
    for n in range(1, 7):
        stack = _mixed_stack(rng, n)
        got = hermitian_power(stack, -0.5)
        for k, m in enumerate(stack):
            assert got[k].tobytes() == hermitian_power(m[None], -0.5)[0].tobytes()
        assert np.allclose(got, _power_oracle(stack, -0.5), rtol=0.0, atol=1e-10)


def test_stacked_hermitian_power_rejects_one_bad_slice():
    rng = np.random.default_rng(23)
    stack = np.array([_random_hpd(rng, 3) for _ in range(4)])
    skewed = stack.copy()
    skewed[2, 0, 1] += 1e-3
    with pytest.raises(ContractError, match="Hermitian"):
        hermitian_power(skewed, 0.5)
    holed = stack.copy()
    holed[1, 2, 2] = np.nan
    with pytest.raises(ContractError, match="finite"):
        hermitian_power(holed, 0.5)
    indefinite = stack.copy()
    indefinite[3] = np.diag([1.0, 2.0, -1e-3])
    with pytest.raises(DomainError, match="positive spectrum"):
        hermitian_power(indefinite, 0.5)
    with pytest.raises(ContractError, match="square"):
        hermitian_power(np.ones((2, 3, 4)), 0.5)
    with pytest.raises(ContractError):  # two or three axes; cholesky_logdet takes more
        hermitian_power(stack[None], 0.5)


def test_stacked_hermitian_power_respects_the_sweep_cap(monkeypatch):
    rng = np.random.default_rng(24)
    stack = np.array([np.eye(3), _random_hpd(rng, 3)])
    monkeypatch.setattr(hjts.linalg, "_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError):
        hermitian_power(stack, 0.5)
    # a stack with nothing to rotate needs no sweep
    assert np.array_equal(hermitian_power(np.array([np.eye(3), np.diag([4.0, 1.0, 9.0])]), 0.5),
                          np.array([np.eye(3), np.diag([2.0, 1.0, 3.0])]))


@pytest.mark.parametrize("kernel, shape", [(eigh, (3, 3)), (svd, (4, 3)), (svd, (3, 4))],
                         ids=["eigh", "svd-tall", "svd-wide"])
def test_eigh_and_svd_respect_the_sweep_cap(monkeypatch, kernel, shape):
    rng = np.random.default_rng(26)
    a = random_complex(rng, *shape)
    if kernel is eigh:
        a = _random_hpd(rng, shape[0])
    monkeypatch.setattr(hjts.linalg, "_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as info:
        kernel(a)
    residual = info.value.residual
    assert isinstance(residual, float) and 0.0 < residual < np.inf
    # a diagonal input has nothing to rotate, so it needs no sweep
    d = np.zeros(shape)
    d[range(3), range(3)] = [4.0, 1.0, 9.0]
    if kernel is eigh:
        w, v = eigh(d)
        assert np.array_equal(w, [9.0, 4.0, 1.0])
        assert np.array_equal(np.abs(v), np.eye(3)[:, [2, 0, 1]])
    else:
        u, sigma, v = svd(d)
        assert np.array_equal(sigma, [9.0, 4.0, 1.0])
        assert np.allclose(u[:, :3] @ np.diag(sigma) @ v[:, :3].conj().T, d, rtol=0.0, atol=1e-15)


def test_two_dimensional_hermitian_power_goes_through_eigh():
    rng = np.random.default_rng(25)
    for n in range(1, 7):
        h = _random_hpd(rng, n)
        w, v = eigh(0.5 * (h + h.conj().T))
        powered = (v * w ** -0.5) @ v.conj().T
        expected = 0.5 * (powered + powered.conj().T)
        assert hermitian_power(h, -0.5).tobytes() == expected.tobytes()


def test_eigenpairs_behind_hermitian_power():
    # psi's exact differential reads the eigenpairs of the very power psi_rows takes
    rng = np.random.default_rng(27)
    for n in range(1, 7):
        stack = _mixed_stack(rng, n)
        w, v, power = hjts.linalg._eig_power(stack, -0.5)
        assert power.tobytes() == hermitian_power(stack, -0.5).tobytes()
        assert (np.diff(w, axis=1) <= 0.0).all()
        rebuilt = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
        assert np.abs(rebuilt - stack).max() <= 1e-12 * np.abs(stack).max()


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


def _diagonal_product(a) -> complex:
    """The product of a's diagonal, in order, on Python complex numbers."""
    value = 1 + 0j
    for entry in np.diagonal(a).tolist():
        value *= entry
    return value


def _fold_zero(x: complex) -> bytes:
    """The complex128 bytes of x with -0.0 read as +0.0."""
    return np.array([complex(x.real or 0.0, x.imag or 0.0)]).tobytes()


def test_stacked_det_equals_each_2d_det_bit_for_bit():
    # random slices, upper- and lower-triangular, diagonal and triangular with
    # a zero on the diagonal ones, one with an exactly zero pivot column and an
    # exactly singular rank-one one: det 0, from the zero-pivot rule
    rng = np.random.default_rng(22)
    for n in (1, 2, 4, 7):
        zero_column = random_complex(rng, n, n)
        zero_column[:, n // 2] = 0.0
        rank_one = np.outer(np.arange(1, n + 1), np.arange(2, n + 2)).astype(complex)
        zero_diagonal = np.tril(random_complex(rng, n, n))
        zero_diagonal[n // 2, n // 2] = 0.0
        triangular = [np.triu(random_complex(rng, n, n)), np.tril(random_complex(rng, n, n)),
                      np.diag(random_complex(rng, n)), zero_diagonal, zero_diagonal.T.copy()]
        slices = [random_complex(rng, n, n), random_complex(rng, n, n).real.astype(complex),
                  zero_column, rank_one] + triangular
        for stack in (np.array(slices), np.array(slices[::-1])):
            dets = det(stack)
            assert dets.shape == (len(slices),) and dets.dtype == np.complex128
            for a, d in zip(stack, dets):
                single = det(a)
                assert type(single) is complex
                assert np.array([single]).tobytes() == np.array([d]).tobytes()
            assert np.allclose(dets, np.linalg.det(stack), rtol=1e-10, atol=1e-12)
        for a in triangular:
            assert _fold_zero(det(a)) == _fold_zero(_diagonal_product(a))
        assert det(zero_column) == 0.0 and det(zero_diagonal) == 0.0
        assert n == 1 or det(rank_one) == 0.0


def test_det_stack_edge_shapes_and_contract():
    assert det(np.zeros((0, 3, 3))).shape == (0,)
    assert list(det(np.zeros((2, 0, 0)))) == [1.0, 1.0]
    stack = np.array([np.eye(3), 2 * np.eye(3)], dtype=complex)
    stack[1, 0, 2] = np.nan
    for bad in (stack, np.ones((2, 2, 3)), np.ones((1, 2, 2, 2))):
        with pytest.raises(ContractError):
            det(bad)


def test_solve_roundtrip():
    rng = np.random.default_rng(21)
    a = random_complex(rng, 5, 5) + 5 * np.eye(5)
    b = random_complex(rng, 5)
    x = solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-11)
    bm = random_complex(rng, 5, 2)
    assert np.allclose(a @ solve(a, bm), bm, atol=1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_solve_rejects_a_non_finite_right_hand_side(bad):
    a = np.eye(3, dtype=complex)
    for b in (np.ones(3, dtype=complex), np.ones((3, 2), dtype=complex)):
        b[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="non-finite"):
                solve(a, b)


def test_solve_singular_raises():
    with pytest.raises(SingularityError):
        solve(np.zeros((2, 2), dtype=complex), np.ones(2, dtype=complex))


def test_stacked_solve_equals_each_2d_solve_bit_for_bit():
    # random, real, permuted, triangular and diagonal slices, with a vector and
    # with a matrix right-hand side shared by every slice
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        general = random_complex(rng, n, n)
        slices = [general, random_complex(rng, n, n).real.astype(complex),
                  np.eye(n)[::-1] + 0.1 * general, np.triu(general) + 3 * np.eye(n),
                  np.tril(general) + 3 * np.eye(n), np.diag(random_complex(rng, n)),
                  np.eye(n) + general @ general.conj().T]
        stack = np.array(slices)
        for b in (random_complex(rng, n), random_complex(rng, n, 3), np.eye(n)):
            solved = solve(stack, b)
            assert solved.shape == (len(slices),) + b.shape
            for a, x in zip(stack, solved):
                assert solve(a, b).tobytes() == x.tobytes()
            assert np.allclose(stack @ (solved if b.ndim == 2 else solved[..., None]),
                               b if b.ndim == 2 else b[:, None], atol=1e-9)
    assert solve(np.zeros((0, 3, 3)), np.ones(3)).shape == (0, 3)


def test_stacked_solve_refuses_a_singular_or_non_finite_slice():
    stack = np.array([np.eye(3), 2 * np.eye(3), np.eye(3)], dtype=complex)
    singular = stack.copy()
    singular[1, :, 1] = 0.0
    with pytest.raises(SingularityError):
        solve(singular, np.ones(3))
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[2, 0, 1] = bad
        with pytest.raises(ContractError, match="non-finite"):
            solve(broken, np.eye(3))
    for shape in ((2, 2, 3), (1, 2, 2, 2)):
        with pytest.raises(ContractError):
            solve(np.ones(shape), np.ones(2))
    with pytest.raises(ContractError, match="does not match"):
        solve(stack, np.ones(2))


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


@pytest.mark.parametrize("call", [
    lambda: as_matrix("a"),
    lambda: as_matrix([[1, "x"]]),
    lambda: as_vector(["1", object()]),
    lambda: det("ab"),
    lambda: solve(np.eye(2), ["x", 1]),
    lambda: isotropy_action("a", zero(K.TypeII(4))),
], ids=["as_matrix-string", "as_matrix-string-entry", "as_vector-object", "det-string",
        "solve-rhs-string", "isotropy_action-string"])
def test_an_entry_that_is_not_a_number_is_a_contract_error(call):
    # one refusal for bad input: the conversion's TypeError or ValueError
    # comes out as ContractError
    with pytest.raises(ContractError, match="must hold numbers"):
        call()


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


# ---------------------------------------------------------------------------
# the oracle rule: the library never touches numpy.linalg

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hjts").glob("*.py"))


def _numpy_linalg_uses(tree: ast.AST) -> list[str]:
    """Imports of numpy.linalg and attribute reads ``<numpy alias>.linalg``."""
    numpy_names = {"numpy"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.linalg"):
                    uses.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.startswith("numpy.linalg"):
                uses.append(f"line {node.lineno}: from {node.module} import ...")
            elif node.module == "numpy" and any(a.name == "linalg" for a in node.names):
                uses.append(f"line {node.lineno}: from numpy import linalg")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names | {"np"}):
            uses.append(f"line {node.lineno}: {node.value.id}.linalg")
    return uses


def test_oracle_rule_scanner_finds_every_form():
    source = ("import numpy as xp\nimport numpy.linalg\nfrom numpy import linalg\n"
              "from numpy.linalg import eigh\nnp.linalg.eigh(a)\nxp.linalg.svd(a)\n"
              "numpy.linalg.det(a)\nnp.abs(a)\n")
    assert [use.split(":")[0] for use in _numpy_linalg_uses(ast.parse(source))] == [
        f"line {n}" for n in (2, 3, 4, 5, 6, 7)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_never_uses_numpy_linalg(path):
    uses = _numpy_linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert uses == [], f"{path.name} reaches numpy.linalg: {uses}"


# ---------------------------------------------------------------------------
# no dead imports: every module-level import of a library module is used

def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imports whose bound name the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` count as used.
    """
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound
            if name not in read and name not in exported]


def test_unused_import_scanner_finds_every_form():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import os.path\nfrom math import pi\nfrom math import tau as turn\n"
              "from .jts import Element, zero\nimport json\n__all__ = ['zero']\n"
              "def f(x: Element):\n    import sys\n    return json.dumps(x)\n")
    assert _unused_imports(ast.parse(source)) == [
        "line 2: os", "line 3: np", "line 4: os", "line 5: pi", "line 6: turn"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=[p.name for p in SOURCES if p.name != "__init__.py"])
def test_library_has_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


# ---------------------------------------------------------------------------
# no N x N box or quadratic operator built outside jts: f(z box z) z has a
# p x p Gram-side form (spectral._box_power_rows) and powers of z box z apply
# as triple products (jts._box_apply)

OPERATOR_BUILDERS = {"box_operator", "q_operator"}


def _operator_builds(tree: ast.AST) -> list[str]:
    """Calls of box_operator or q_operator: by name, by import alias, or as an attribute."""
    names = set(OPERATOR_BUILDERS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.asname for a in node.names if a.name in OPERATOR_BUILDERS and a.asname}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in names:
                calls.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(calls)]


def test_operator_build_scanner_finds_every_form():
    source = ("from .jts import box_operator, q_operator as quad\nimport hjts.jts as J\n"
              "box_operator(z)\nquad(u)(v)\nJ.box_operator(z).matrix\nhjts.jts.q_operator(u)\n"
              "d_operator(z, z)\nbergman_operator(z, z)\nbox = None\n")
    assert [call.split(":")[0] for call in _operator_builds(ast.parse(source))] == [
        f"line {n}" for n in (3, 4, 5, 6)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "jts.py"],
                         ids=[p.name for p in SOURCES if p.name != "jts.py"])
def test_library_builds_no_box_or_quadratic_operator_outside_jts(path):
    calls = _operator_builds(ast.parse(path.read_text(encoding="utf-8")))
    assert calls == [], f"{path.name} builds an N x N box or quadratic operator: {calls}"


# ---------------------------------------------------------------------------
# one rule per scalar kind: only errors.py (as_int, as_real) tests a value
# against int, float, bool or a numbers class

SCALAR_CLASSES = {"int", "float", "bool"}


def _scalar_type_tests(tree: ast.AST) -> list[str]:
    """isinstance calls whose class argument names int, float, bool or a
    ``numbers`` class: as ``numbers.Real``, under an import alias, or imported
    by name from ``numbers``."""
    modules, classes = {"numbers"}, set(SCALAR_CLASSES)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "numbers"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            classes |= {a.asname or a.name for a in node.names}
    tests = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = [n for n in ast.walk(node.args[1])
                     if isinstance(n, ast.Name) and n.id in classes
                     or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                     and n.value.id in modules]
            if names:
                tests.append(f"line {node.lineno}: {ast.unparse(node.args[1])}")
    return tests


def test_scalar_type_test_scanner_finds_every_form():
    source = ("import numbers\nimport numbers as nb\nfrom numbers import Integral as I\n"
              "isinstance(x, int)\nisinstance(x, (list, float))\nisinstance(x, bool)\n"
              "isinstance(x, numbers.Real)\nisinstance(x, nb.Integral)\nisinstance(x, I)\n"
              "isinstance(x, (tuple, list))\nisinstance(x, np.ndarray)\ntype(x) is int\n")
    assert [t.split(":")[0] for t in _scalar_type_tests(ast.parse(source))] == [
        f"line {n}" for n in (4, 5, 6, 7, 8, 9)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"],
                         ids=[p.name for p in SOURCES if p.name != "errors.py"])
def test_library_checks_scalars_only_through_the_errors_rules(path):
    tests = _scalar_type_tests(ast.parse(path.read_text(encoding="utf-8")))
    assert tests == [], f"{path.name} tests a scalar type itself, not via as_int/as_real: {tests}"
