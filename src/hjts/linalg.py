"""Self-contained dense linear algebra over complex128 ndarrays.

Everything downstream (triple products, spectral decompositions, the duality
map) reduces to a handful of dense factorizations on small matrices.  They are
implemented here directly on ndarrays -- Jacobi rotations for the Hermitian
eigenproblem, a one-sided Jacobi SVD, a Takagi factorization for complex
symmetric matrices, and pivoted Gaussian elimination -- so the numerical
behaviour of the package does not depend on any external solver.  Every
orthonormal basis these factorizations (and the spectral frames built on
them) must finish is finished by one routine, :func:`orthonormal_extension`.

Every Jacobi rotation (:func:`eigh`, its stacked form, :func:`svd`) goes
through :func:`_rotate` on one work layout, the matrix above its accumulated
factor, so one call rotates both; both eigensolvers stop on :func:`_offdiag_norm`.

Conventions: matrices are 2-D complex128 arrays, eigen/singular values are
returned in descending order, and factors satisfy the reconstruction
identities stated on each routine.  Four routines also take a stack of
matrices and treat each slice as on its own, so a slice's result does not
depend on the stack: :func:`cholesky_logdet` (shape (..., n, n)),
:func:`hermitian_power` (shape (K, n, n), one cyclic Jacobi iteration over
the whole stack), and :func:`det` and :func:`solve` (shape (K, n, n), one LU
over the whole stack, :func:`_lu_partial_pivot`; every slice takes every
step, a zero pivot included).  Every kernel checks its input through one
helper, :func:`_checked`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ConvergenceError, DomainError, SingularityError, as_real

__all__ = [
    "EighResult",
    "SvdResult",
    "TakagiResult",
    "as_matrix",
    "as_vector",
    "frobenius",
    "worst_of",
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


def _checked(a, name: str, low: int, high: float, *, square: bool = True) -> np.ndarray:
    """``a`` as a complex128 array with ``low`` to ``high`` axes, square in its
    last two if ``square``; ContractError on any other shape or on a non-finite
    entry, or on an entry that is not a number (a string, say).  This is the
    one input check of every kernel."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{name} must hold numbers ({exc})") from None
    if not low <= m.ndim <= high:
        raise ContractError(f"{name} needs ndim in [{low}, {high}], got ndim={m.ndim}")
    if square and m.shape[-1] != m.shape[-2]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex128 array."""
    return _checked(a, name, 2, 2, square=square)


def as_vector(v, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D complex128 array."""
    w = _checked(v, name, 1, 1, square=False)
    if dim is not None and w.shape[0] != dim:
        raise ContractError(f"{name} must have length {dim}, got {w.shape[0]}")
    return w


def frobenius(a) -> float:
    """Frobenius norm of an array of any shape."""
    return math.sqrt(float(np.sum(np.abs(np.asarray(a)) ** 2)))


def worst_of(values) -> float:
    """The largest of ``values`` as a float, 0.0 if there are none, NaN if one is
    NaN (``max`` keeps the first of two values it cannot compare, so it can drop a
    NaN).  Every worst residual is taken here, with no numpy call (it runs per sample)."""
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values, default=0.0)


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, one per slice."""
    return np.sqrt((np.abs(x) ** 2).sum(axis=(-2, -1)))


def _offdiag_norm(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part over the last two axes."""
    off = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)).copy()
    off[..., :: x.shape[-1] + 1] = 0.0  # the diagonal of each slice
    return _norms(off.reshape(x.shape))


def _rotation(app: float, aqq: float, apq: complex) -> tuple[float, complex]:
    """Jacobi rotation (c, sp = s * phase) annihilating the (p, q) coupling.

    For the Hermitian 2x2 block [[app, apq], [conj(apq), aqq]] the unitary
    J = [[c, sp], [-conj(sp), c]] makes J^* A J diagonal.
    """
    beta = abs(apq)
    phase = apq / beta
    tau = (aqq - app) / (2.0 * beta)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c * phase


def _rotate(m: np.ndarray, p: int, q: int, c, sp, sp_conj) -> None:
    """Apply J of :func:`_rotation` to columns p, q of m in place.  Leading axes
    of m are slices; c and sp are scalars, or (K, 1) arrays, one per slice,
    and sp_conj is conj(sp), which the caller has at hand."""
    mp, mq = m[..., p], m[..., q]
    new_p = c * mp - sp_conj * mq
    m[..., q] = sp * mp + c * mq
    m[..., p] = new_p


def _rotate_two_sided(m: np.ndarray, n: int, p: int, q: int, c, sp) -> None:
    """h <- J^* h J on a (..., 2n, n) work array of h above its eigenvectors:
    J on columns p, q of both blocks, J^* on rows p, q of h (J with the
    conjugate sp on the columns of h.T), then zero the annihilated pair."""
    sp_conj = sp.conjugate()
    _rotate(m, p, q, c, sp, sp_conj)
    _rotate(m[..., :n, :].swapaxes(-1, -2), p, q, c, sp_conj, sp)
    m[..., p, q] = 0.0
    m[..., q, p] = 0.0


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
    work = np.concatenate((0.5 * (m + m.conj().T), np.eye(n, dtype=np.complex128)))
    h = work[:n]
    scale = frobenius(h)
    if n == 1 or scale == 0.0:
        return EighResult(np.diag(h).real.copy(), work[n:])
    tol = 1e-14 * scale
    skip = tol / (2.0 * n)

    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(h) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(h[p, q]) <= skip:
                    continue
                c, sp = _rotation(h[p, p].real, h[q, q].real, h[p, q])
                _rotate_two_sided(work, n, p, q, c, sp)
    else:
        off = float(_offdiag_norm(h))
        if off > tol:
            raise ConvergenceError("hermitian eigensolve exceeded the sweep cap", off)

    w = np.diag(h).real.copy()
    order = np.argsort(-w, kind="stable")
    return EighResult(w[order], work[n:, order])


def _jacobi_step(m: np.ndarray, n: int, p: int, q: int, beta: np.ndarray) -> None:
    """One (p, q) rotation of :func:`_eigh_stack`: the formulas of
    :func:`_rotation`, one rotation per slice of m; beta = |m[:, p, q]|."""
    beta = beta[:, None]
    phase = m[:, p, q, None] / beta
    tau = (m[:, q, q, None].real - m[:, p, p, None].real) / (2.0 * beta)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    _rotate_two_sided(m, n, p, q, c, t * c * phase)


def _eigh_stack(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic Jacobi of :func:`eigh` on every slice of a Hermitian
    (K, n, n) stack at once: eigenvalues (K, n), descending per slice, and
    eigenvectors (K, n, n) as columns.

    Each slice keeps eigh's rules on its own numbers: the tolerance
    1e-14 * ||h_k||_F, the skip threshold, the stop once its off-diagonal
    mass is below tolerance, and the sweep cap.  A rotation touches only the
    slices it applies to and is elementwise across them, so a slice's result
    does not depend on the stack around it.
    """
    k, n, _ = h.shape
    if n == 1:
        return h[:, 0].real.copy(), np.ones_like(h)
    work = np.concatenate((h, np.broadcast_to(np.eye(n, dtype=h.dtype), h.shape)), axis=1)
    tol = 1e-14 * _norms(h)
    live, m = np.arange(k), work  # the unconverged slices and their working copy

    for _ in range(_MAX_SWEEPS):
        keep = _offdiag_norm(m[:, :n]) > tol[live]
        if not keep.all():
            work[live] = m
            live, m = live[keep], m[keep]
        if not live.size:
            break
        skip = tol[live] / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = np.abs(m[:, p, q])
                big = beta > skip
                if big.all():
                    _jacobi_step(m, n, p, q, beta)
                elif big.any():
                    sub = m[big]
                    _jacobi_step(sub, n, p, q, beta[big])
                    m[big] = sub
    else:
        off = _offdiag_norm(m[:, :n])
        if (off > tol[live]).any():
            raise ConvergenceError("hermitian eigensolve exceeded the sweep cap",
                                   float(off.max()))
    work[live] = m
    w = work[:, range(n), range(n)].real
    slices, order = np.arange(k)[:, None], np.argsort(-w, axis=1, kind="stable")
    return w[slices, order], work[:, n:].swapaxes(1, 2)[slices, order].swapaxes(1, 2)


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
    singular values; a sweep with no rotations ends the iteration.  Columns
    not exactly orthogonal at the sweep cap raise ConvergenceError carrying
    the off-diagonal norm of their Gram matrix.
    """
    m0 = as_matrix(a)
    rows, cols_n = m0.shape
    if rows < cols_n:
        flipped = svd(m0.conj().T)
        return SvdResult(flipped.v, flipped.sigma, flipped.u)

    work = np.concatenate((m0, np.eye(cols_n, dtype=np.complex128)))
    w = work[:rows]
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
                c, sp = _rotation(alpha, delta, g)
                _rotate(work, p, q, c, sp, sp.conjugate())
        if not rotated:
            break
    else:
        off = float(_offdiag_norm(w.conj().T @ w))
        if off > 0.0:
            raise ConvergenceError("one-sided SVD exceeded the sweep cap", off)

    sigma = np.array([frobenius(w[:, k]) for k in range(cols_n)])
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = work[rows:, order]

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
    # a = u diag(sigma) u^T, so a conj(v) = 0 for every v orthogonal to the
    # npos live columns: any orthonormal completion is a Takagi column.
    live = vecs[:n, :npos] + 1j * vecs[n:, :npos]
    null = orthonormal_extension(live.T, np.eye(n, dtype=np.complex128), n - npos)
    return TakagiResult(np.column_stack([live, *null]),
                        np.concatenate([w[:npos], np.zeros(n - npos)]))


def hermitian_power(a, t: float) -> np.ndarray:
    """Power ``a**t``, t finite and real, of a Hermitian positive definite matrix or stack.

    The matrix is symmetrized, eigendecomposed, and rebuilt with powered
    eigenvalues; the result is re-Hermitized.  eigh's Hermiticity rule,
    ||a - a*||_F <= 1e-10 * max(1, ||a||_F), binds each slice (ContractError
    otherwise), and any eigenvalue <= 0 raises DomainError (fractional and
    negative powers need a positive spectrum, and this routine refuses to
    guess at the boundary).

    ``a`` may be a (K, n, n) stack, which returns the (K, n, n) powers.  The
    stack runs one cyclic Jacobi iteration over all slices, with eigh's rules
    applied to each slice on its own, so a slice's power does not depend on
    the stack around it; any slice that fails a check raises.  A 2-D input
    goes through :func:`eigh`.
    """
    t = as_real(t, "hermitian_power exponent t must be a finite real number, got {!r}",
                exclusive=True)
    return _eig_power(_checked(a, "matrix", 2, 3), t)[2]


def _eig_power(m: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues w, eigenvectors v and power ``m**t`` of a checked
    Hermitian positive definite matrix or (K, n, n) stack, under
    :func:`hermitian_power`'s rules: the Hermitian rule per slice
    (ContractError), and DomainError for any eigenvalue <= 0."""
    adjoint = m.conj().swapaxes(-1, -2)
    if (_norms(m - adjoint) > 1e-10 * np.maximum(1.0, _norms(m))).any():
        raise ContractError("hermitian_power requires a Hermitian matrix")
    herm = 0.5 * (m + adjoint)
    w, v = eigh(herm) if m.ndim == 2 else _eigh_stack(herm)
    if w.size and w.min() <= 0.0:
        raise DomainError(f"matrix power {t} needs a positive spectrum; "
                          f"smallest eigenvalue is {w.min():.3e}")
    powered = (v * (w ** t)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return w, v, 0.5 * (powered + powered.conj().swapaxes(-1, -2))


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
    m = _checked(a, "matrix", 2, math.inf)
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


def _lu_partial_pivot(a: np.ndarray) -> tuple[np.ndarray, list]:
    """LU with partial pivoting of every slice of a (K, n, n) stack.

    Returns the packed factors (K, n, n) and, per step k, each slice's pivot
    row less k (row k + offset was swapped with row k).  Each slice picks its
    own pivots.  A zero pivot means the slice's column is exactly zero from
    the diagonal down, so the step divides it by 1 instead: its multipliers
    stay zero, the rows below keep their values (a -0.0 may turn +0.0), and
    the zero pivot stays on the diagonal.  Every step is elementwise across the slices, so a slice's
    factors do not depend on the stack.
    """
    lu = a.copy()
    slices = np.arange(len(a))
    offsets = []
    for k in range(a.shape[-1] - 1):
        off = np.abs(lu[:, k:, k]).argmax(axis=1)
        offsets.append(off.tolist())
        if any(offsets[-1]):
            piv = k + off
            rows = lu[slices, piv]
            lu[slices, piv] = lu[:, k]
            lu[:, k] = rows
        pivot = lu[:, k, k]
        if 0 in pivot.tolist():
            pivot = np.where(pivot == 0.0, 1.0, pivot)
        col = lu[:, k + 1:, k]
        col /= pivot[:, None]
        lu[:, k + 1:, k + 1:] -= col[:, :, None] * lu[:, k, None, k + 1:]
    return lu, offsets


def det(a):
    """Determinant via LU with partial pivoting, of a matrix or of a stack.

    det A = det A^T, so a matrix with nothing above its diagonal is factored
    as its transpose.  A triangular matrix thus takes no swap and only zero
    multipliers, and its determinant is the product of its own diagonal.  A
    zero pivot (an exactly zero column from the diagonal down) stays on the
    diagonal and makes the determinant exactly 0.  The signed product of the
    factored diagonal is taken in order on Python complex numbers.

    ``a`` may be a (K, n, n) stack, which returns the (K,) determinants.  The
    stack runs one elimination, each slice with its own pivots, so a slice's
    determinant does not depend on the stack and is bit for bit the one its
    2-D call returns.  A 2-D input returns a complex.
    """
    m = _checked(a, "matrix", 2, 3)
    stacked = m.ndim == 3
    if not stacked:
        m = m[None]
    lower = ~m[:, ~np.tri(m.shape[-1], dtype=bool)].any(axis=1)  # nothing above
    if lower.any():
        m = np.where(lower[:, None, None], m.swapaxes(1, 2), m)
    lu, offsets = _lu_partial_pivot(m)
    out = []
    for s, entries in enumerate(lu.diagonal(axis1=1, axis2=2).tolist()):
        value = complex((-1) ** sum(1 for step in offsets if step[s]))
        for entry in entries:
            value *= entry
        out.append(value)
    return np.array(out, dtype=np.complex128) if stacked else out[0]


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU with partial pivoting, for a matrix or a stack.

    ``b`` may be a vector or a matrix of stacked right-hand sides; the result
    matches its shape.  Both inputs go through the one input check, so a
    non-finite entry in either raises ContractError.  A zero pivot means an
    exactly singular ``a``, which (like overflow during substitution) raises
    SingularityError.

    ``a`` may be a (K, n, n) stack, and every slice solves against the same
    ``b``: the result is (K, n) or (K, n, m).  The stack runs one elimination
    and one substitution, each slice with its own pivots, and a 2-D input is
    the K = 1 case, so a slice's solution is bit for bit the one its 2-D call
    returns.  A singular slice makes the whole call raise.
    """
    m = _checked(a, "matrix", 2, 3)
    stacked = m.ndim == 3
    if not stacked:
        m = m[None]
    count, n = m.shape[0], m.shape[-1]
    rhs = _checked(b, "right-hand side", 1, 2, square=False)
    if rhs.shape[0] != n:
        raise ContractError(f"right-hand side shape {rhs.shape} does not match {m.shape[1:]}")
    lu, offsets = _lu_partial_pivot(m)
    if not lu.diagonal(axis1=1, axis2=2).all():
        raise SingularityError("matrix is exactly singular")
    slices = np.arange(count)
    perm = np.tile(np.arange(n), (count, 1))
    for k, step in enumerate(offsets):
        if any(step):
            piv = k + np.array(step, dtype=np.intp)
            perm[slices, k], perm[slices, piv] = perm[slices, piv], perm[slices, k]
    vector = rhs.ndim == 1
    x = (rhs[:, None] if vector else rhs)[perm]  # (K, n, m), each slice permuted
    for k in range(n - 1):
        x[:, k + 1:] -= lu[:, k + 1:, k, None] * x[:, k, None, :]
    for k in range(n - 1, -1, -1):
        x[:, k] -= (lu[:, k, None, k + 1:] @ x[:, k + 1:])[:, 0]
        x[:, k] /= lu[:, k, k, None]
    if not np.isfinite(x).all():
        raise SingularityError("solve overflowed; matrix is singular to working precision")
    if vector:
        x = x[..., 0]
    return x if stacked else x[0]
