"""Self-contained dense linear algebra over complex128 ndarrays.

Everything downstream (triple products, spectral decompositions, the duality
map) reduces to a handful of dense factorizations on small matrices.  They are
implemented here directly on ndarrays -- Jacobi rotations for the Hermitian
eigenproblem, a one-sided Jacobi SVD, a Takagi factorization for complex
symmetric matrices, and pivoted Gaussian elimination -- so the numerical
behaviour of the package does not depend on any external solver.  Every
orthonormal basis these factorizations (and the spectral frames built on
them) must finish is finished by one routine, :func:`orthonormal_extension`.

Conventions: matrices are 2-D complex128 arrays, eigen/singular values are
returned in descending order, and factors satisfy the reconstruction
identities stated on each routine.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ConvergenceError, DomainError, SingularityError

__all__ = [
    "EighResult",
    "SvdResult",
    "TakagiResult",
    "as_matrix",
    "as_vector",
    "frobenius",
    "eigh",
    "svd",
    "takagi",
    "orthonormal_extension",
    "hermitian_power",
    "cholesky_logdet",
    "det",
    "solve",
]

#: Sweep cap for both Jacobi iterations.  Cyclic Jacobi converges
#: quadratically once it settles, so a matrix that is still rough after 60
#: sweeps indicates corrupted input (NaNs are rejected earlier) or a bug.
_MAX_SWEEPS = 60


class EighResult(NamedTuple):
    """Eigendecomposition ``a == vectors @ diag(values) @ vectors.conj().T``."""

    values: np.ndarray  # real, descending
    vectors: np.ndarray  # unitary, columns are eigenvectors


class SvdResult(NamedTuple):
    """Full SVD ``a == u[:, :k] @ diag(sigma) @ v[:, :k].conj().T``, k=min(m,n)."""

    u: np.ndarray  # (m, m) unitary
    sigma: np.ndarray  # (k,) real, descending, nonnegative
    v: np.ndarray  # (n, n) unitary


class TakagiResult(NamedTuple):
    """Takagi factorization ``a == u @ diag(sigma) @ u.T`` of a symmetric matrix."""

    u: np.ndarray  # (n, n) unitary
    sigma: np.ndarray  # (n,) real, descending, nonnegative


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ContractError(f"{name} must be 2-D, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ContractError(f"{name} contains non-finite entries")
    return m


def as_vector(v, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D complex128 array."""
    w = np.asarray(v, dtype=np.complex128)
    if w.ndim != 1:
        raise ContractError(f"{name} must be 1-D, got ndim={w.ndim}")
    if dim is not None and w.shape[0] != dim:
        raise ContractError(f"{name} must have length {dim}, got {w.shape[0]}")
    if w.size and not (np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))):
        raise ContractError(f"{name} contains non-finite entries")
    return w


def frobenius(a) -> float:
    """Frobenius norm of an array of any shape."""
    return math.sqrt(float(np.sum(np.abs(np.asarray(a)) ** 2)))


def _offdiag_norm(h: np.ndarray) -> float:
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    return frobenius(off)


def _rotation(app: float, aqq: float, apq: complex) -> tuple[float, float, complex]:
    """Jacobi rotation (c, s, phase) annihilating the (p, q) coupling.

    For the Hermitian 2x2 block [[app, apq], [conj(apq), aqq]] the returned
    unitary J = [[c, s*phase], [-s*conj(phase), c]] makes J^* A J diagonal.
    """
    beta = abs(apq)
    phase = apq / beta
    tau = (aqq - app) / (2.0 * beta)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, phase


def _rotate_columns(m: np.ndarray, p: int, q: int, c: float, s: float,
                    phase: complex) -> None:
    """Apply the rotation J of :func:`_rotation` to columns p, q of m in place."""
    mp = m[:, p].copy()
    m[:, p] = c * mp - s * np.conj(phase) * m[:, q]
    m[:, q] = s * phase * mp + c * m[:, q]


def eigh(a) -> EighResult:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input must be Hermitian to roundoff (it is symmetrized before
    iterating, and a relative deviation above 1e-10 raises ContractError).
    Sweeps stop once the off-diagonal Frobenius mass falls below
    1e-14 * ||a||_F; exceeding the sweep cap raises ConvergenceError carrying
    the leftover residual.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if frobenius(m - m.conj().T) > 1e-10 * max(1.0, frobenius(m)):
        raise ContractError("eigh requires a Hermitian matrix")
    h = 0.5 * (m + m.conj().T)
    v = np.eye(n, dtype=np.complex128)
    scale = frobenius(h)
    if n == 1 or scale == 0.0:
        return EighResult(np.diag(h).real.copy(), v)
    tol = 1e-14 * scale
    skip = tol / (2.0 * n)

    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(h) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(h[p, q]) <= skip:
                    continue
                c, s, phase = _rotation(h[p, p].real, h[q, q].real, h[p, q])
                # Two-sided update h <- J^* h J: J on columns p, q, then J^* on
                # rows p, q, i.e. on the columns of h.T with the conjugate phase.
                _rotate_columns(h, p, q, c, s, phase)
                _rotate_columns(h.T, p, q, c, s, np.conj(phase))
                h[p, q] = 0.0
                h[q, p] = 0.0
                _rotate_columns(v, p, q, c, s, phase)
    else:
        off = _offdiag_norm(h)
        if off > tol:
            raise ConvergenceError("hermitian eigensolve exceeded the sweep cap", off)

    w = np.diag(h).real.copy()
    order = np.argsort(-w, kind="stable")
    return EighResult(w[order], v[:, order])


def orthonormal_extension(basis, candidates, count: int) -> list[np.ndarray]:
    """``count`` unit vectors that extend the orthonormal ``basis``.

    Each new vector is grown from the candidate with the largest residual
    after projecting out the basis so far (``basis`` plus the vectors already
    returned), then given one re-orthogonalization pass, which keeps the
    basis clean to roundoff.  The vectors keep the candidates' dtype, so real
    candidates against a real basis give real vectors.  The candidates must
    span more than the basis does: with the standard basis as candidates the
    best residual is >= 1/sqrt(dim) while the basis is incomplete.
    """
    basis = list(basis)
    out: list[np.ndarray] = []
    for _ in range(count):
        best, best_norm = None, -1.0
        for cand0 in candidates:
            cand = cand0.copy()
            for u in basis:
                cand -= np.vdot(u, cand) * u
            norm = frobenius(cand)
            if norm > best_norm:
                best, best_norm = cand, norm
        assert best is not None and best_norm > 0.0
        best /= best_norm
        for u in basis:
            best -= np.vdot(u, best) * u
        best /= frobenius(best)
        basis.append(best)
        out.append(best)
    return out


def svd(a) -> SvdResult:
    """Full singular value decomposition by one-sided Jacobi.

    Columns of a working copy are rotated pairwise until every pair is
    orthogonal relative to its own scale (|<ai, aj>| <= 1e-15 * |ai| * |aj|),
    which keeps the returned factors unitary even in the presence of tiny
    singular values; a sweep with no rotations ends the iteration.
    """
    m0 = as_matrix(a)
    rows, cols_n = m0.shape
    if rows < cols_n:
        flipped = svd(m0.conj().T)
        return SvdResult(flipped.v, flipped.sigma, flipped.u)

    w = m0.copy()
    v = np.eye(cols_n, dtype=np.complex128)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(cols_n - 1):
            for q in range(p + 1, cols_n):
                alpha = float(np.sum(np.abs(w[:, p]) ** 2))
                delta = float(np.sum(np.abs(w[:, q]) ** 2))
                g = complex(np.vdot(w[:, p], w[:, q]))
                if abs(g) <= 1e-15 * math.sqrt(alpha * delta):
                    continue
                rotated = True
                c, s, phase = _rotation(alpha, delta, g)
                _rotate_columns(w, p, q, c, s, phase)
                _rotate_columns(v, p, q, c, s, phase)
        if not rotated:
            break
    else:
        gram = w.conj().T @ w
        raise ConvergenceError("one-sided SVD exceeded the sweep cap", _offdiag_norm(gram))

    sigma = np.array([frobenius(w[:, k]) for k in range(cols_n)])
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]

    # sigma is descending, so the columns carrying signal are a prefix; they
    # are normalized, and completion fills the numerically dead ones and the
    # rows-beyond-columns part of U.
    ztol = max(rows, cols_n) * 1e-16 * (sigma[0] if cols_n else 0.0)
    live = [w[:, k] / sigma[k] for k in range(cols_n) if sigma[k] > ztol and sigma[k] > 0.0]
    filled = orthonormal_extension(live, np.eye(rows, dtype=np.complex128), rows - len(live))
    u = np.empty((rows, rows), dtype=np.complex128)
    for k, col in enumerate(live + filled):
        u[:, k] = col
    return SvdResult(u, sigma, v)


def takagi(a) -> TakagiResult:
    """Takagi factorization ``a = u @ diag(sigma) @ u.T`` of a symmetric matrix.

    Works through the equivalent real symmetric eigenproblem: for symmetric
    a = X + iY the real matrix [[X, Y], [Y, -X]] has spectrum {+/-sigma_j},
    and an eigenvector (x; y) with eigenvalue sigma >= 0 yields a Takagi
    column u = x + iy with a @ conj(u) = sigma * u.  This route has no
    clustering step, so nearby singular values cost no accuracy.

    Raises ContractError when ||a - a.T|| exceeds 1e-12 * max(1, ||a||).
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    scale = frobenius(m)
    if frobenius(m - m.T) > 1e-12 * max(1.0, scale):
        raise ContractError("takagi requires a (complex) symmetric matrix")
    if n == 0:
        return TakagiResult(np.eye(0, dtype=np.complex128), np.zeros(0))
    sym = 0.5 * (m + m.T)
    x, y = sym.real, sym.imag
    big = np.block([[x, y], [y, -x]]).astype(np.complex128)
    w, vecs = eigh(big)

    ztol = 1e-12 * max(1.0, scale)
    npos = int(np.sum(w > ztol))
    # By the J-pairing the spectrum is symmetric, so everything between the
    # npos leading and npos trailing columns is the (near-)null space.
    u = np.empty((n, n), dtype=np.complex128)
    sigma = np.zeros(n)
    for j in range(npos):
        col = vecs[:, j]
        u[:, j] = col[:n] + 1j * col[n:]
        sigma[j] = w[j]
    # The null space is J-invariant, J(x; y) = (-y; x): each picked s and its
    # partner J s span one complex direction, so s alone gives a column of u.
    null_cols = [vecs[:, j].real.copy() for j in range(npos, 2 * n - npos)]
    basis: list[np.ndarray] = []  # picked vectors and their J-partners
    for j in range(npos, n):
        (s,) = orthonormal_extension(basis, null_cols, 1)
        partner = np.concatenate([-s[n:], s[:n]])
        for b in basis + [s]:
            partner -= np.dot(b, partner) * b
        partner /= frobenius(partner)
        basis.extend([s, partner])
        u[:, j] = s[:n] + 1j * s[n:]
    return TakagiResult(u, sigma)


def hermitian_power(a, t: float) -> np.ndarray:
    """Real power ``a**t`` of a Hermitian positive definite matrix.

    The matrix is symmetrized, eigendecomposed, and rebuilt with powered
    eigenvalues; the result is re-Hermitized.  A relative deviation from
    Hermiticity above 1e-10 raises ContractError, and any eigenvalue <= 0
    raises DomainError (fractional and negative powers need a positive
    spectrum, and this routine refuses to guess at the boundary).
    """
    m = as_matrix(a, square=True)
    herm = 0.5 * (m + m.conj().T)
    if frobenius(m - herm) > 1e-10 * max(1.0, frobenius(m)):
        raise ContractError("hermitian_power requires a Hermitian matrix")
    w, v = eigh(herm)
    if w.size and w[-1] <= 0.0:
        raise DomainError(f"matrix power {t} needs a positive spectrum; "
                          f"smallest eigenvalue is {w[-1]:.3e}")
    powered = (v * (w ** t)) @ v.conj().T
    return 0.5 * (powered + powered.conj().T)


def cholesky_logdet(a):
    """Log-determinant of a Hermitian positive definite matrix, or of a stack.

    Runs an unblocked Cholesky on the lower triangle and sums the pivot logs;
    a nonpositive pivot means the matrix is not positive definite, which is
    reported as DomainError.  Much cheaper than an eigendecomposition, and the
    failed-pivot signal doubles as a strict positive-definiteness test.

    ``a`` may carry leading batch axes, shape (..., n, n): every slice is
    factored by the same elementwise steps, so a slice's value does not depend
    on the stack it sits in.  A 2-D input returns a float, a stacked one an
    array of the batch shape; a nonpositive pivot in any slice raises.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ContractError(f"matrix must be at least 2-D, got ndim={m.ndim}")
    if m.shape[-1] != m.shape[-2]:
        raise ContractError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractError("matrix contains non-finite entries")
    n = m.shape[-1]
    low = m.copy()
    pivots = np.empty(m.shape[:-1])
    for k in range(n):
        # Column k from the diagonal down, less the finished columns' share;
        # its first entry is the pivot.
        col = low[..., k:, k]
        if k:
            col = col - (low[..., k:, :k] * np.conj(low[..., k, None, :k])).sum(axis=-1)
        d = col[..., 0].real
        if not (d > 0.0).all():
            raise DomainError(
                f"matrix is not positive definite (pivot {k} is {np.min(d):.3e})")
        pivots[..., k] = d
        if k + 1 < n:
            low[..., k + 1:, k] = col[..., 1:] / np.sqrt(d)[..., None]
    logdet = np.log(pivots).sum(axis=-1)
    return float(logdet) if m.ndim == 2 else logdet


def _lu_partial_pivot(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """In-place-style LU with partial pivoting; zero pivots are left as zeros."""
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
            sign = -sign
        if lu[k, k] == 0.0:
            continue  # whole subcolumn is exactly zero
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, sign


def det(a) -> complex:
    """Determinant via pivoted elimination.

    Triangular matrices short-circuit to the exact product of the diagonal;
    everything else goes through LU with partial pivoting, where an exactly
    zero pivot column makes the determinant exactly 0.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    lower = np.tril(m, -1)
    upper = np.triu(m, 1)
    if not lower.any() or not upper.any():
        out = 1.0 + 0.0j
        for k in range(n):
            out *= complex(m[k, k])
        return out
    lu, _, sign = _lu_partial_pivot(m)
    out = complex(sign)
    for k in range(n):
        out *= complex(lu[k, k])
    return out


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    matches its shape.  An exactly singular ``a`` (or overflow during
    substitution) raises SingularityError.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    rhs = np.asarray(b, dtype=np.complex128)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    if rhs.ndim != 2 or rhs.shape[0] != n:
        raise ContractError(f"right-hand side shape {np.shape(b)} does not match {m.shape}")
    lu, perm, _ = _lu_partial_pivot(m)
    diag = np.diagonal(lu)
    if np.any(diag == 0.0):
        raise SingularityError("matrix is exactly singular")
    x = rhs[perm].astype(np.complex128, copy=True)
    for k in range(n):
        x[k + 1:] -= lu[k + 1:, k][:, None] * x[k][None, :]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise SingularityError("solve overflowed; matrix is singular to working precision")
    return x[:, 0] if vector else x
