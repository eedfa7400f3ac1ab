"""Self-contained dense linear algebra over complex128 ndarrays.

Everything downstream (triple products, spectral decompositions, the duality
map) reduces to a handful of dense factorizations on small matrices.  They are
implemented here directly on ndarrays -- Jacobi rotations for the Hermitian
eigenproblem, a one-sided Jacobi SVD, a Takagi factorization for complex
symmetric matrices, and pivoted Gaussian elimination -- so the numerical
behaviour of the package does not depend on any external solver.  Every
orthonormal basis these factorizations (and the spectral frames built on
them) must finish is finished by one routine, :func:`orthonormal_extension`.

There is one Hermitian eigensolver, :func:`_eigh_slices`: a scalar
row-cyclic Jacobi iteration, :func:`_jacobi`, on each slice of a (K, n, n)
stack in turn, held as Python complex numbers.  :func:`eigh` is its
one-slice case, and :func:`hermitian_power` and :func:`takagi` reach it too.
Every Jacobi rotation, :func:`svd`'s included, goes through :func:`_rotate`.
The library's calls are small (n <= 6, K <= 2), where numpy's overhead per
call costs more than the arithmetic.  Each Jacobi kernel scales its input by
a power of two, which is exact, so that no square overflows or underflows.

Conventions: matrices are 2-D complex128 arrays, eigen/singular values are
returned in descending order, and factors satisfy the reconstruction
identities stated on each routine.  Four routines also take a stack of
matrices and treat each slice as on its own, so a slice's result does not
depend on the stack: :func:`cholesky_logdet` (shape (..., n, n)),
:func:`hermitian_power` (shape (K, n, n), each slice its own Jacobi
iteration), and :func:`det` and :func:`solve` (shape (K, n, n), one LU over
the whole stack, :func:`_lu_partial_pivot`; every slice takes every step, a
zero pivot included).  Every kernel checks its input through one helper,
:func:`_checked`.
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
    """Frobenius norm of an array of any shape.  The entries are first scaled by
    the power of two that brings the largest into [0.5, 1), so no square
    overflows and the sum does not underflow; the scaling is exact, so in the
    normal range the result is the plain root of the sum of squares, bit for bit."""
    mag = np.abs(np.asarray(a))
    up = 2.0 ** _binade(float(mag.max(initial=0.0)))
    return math.sqrt(float(np.sum((mag / up) ** 2))) * up


def worst_of(values) -> float:
    """The largest of ``values`` as a float, 0.0 if there are none, NaN if one is
    NaN (``max`` keeps the first of two values it cannot compare, so it can drop a
    NaN).  Every worst residual is taken here, with no numpy call (it runs per sample)."""
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values, default=0.0)


def _binade(amax: float) -> int:
    """The exponent e that brings amax / 2**e into [0.5, 1), held to
    [-1021, 1021] so that 2**e and 2**-e are normal floats; 0 for amax = 0."""
    return min(max(math.frexp(amax)[1], -1021), 1021)


def _norm(values) -> float:
    """The 2-norm of a sequence of Python numbers (``math.hypot``, which does
    not overflow where the squares would)."""
    return math.hypot(*map(abs, values))


def _inner(x: list, y: list) -> complex:
    """<x, y> = sum conj(x_i) y_i over two lists of Python complex numbers."""
    return sum(a.conjugate() * b for a, b in zip(x, y))


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


def _rotate(cols: list, p: int, q: int, c: float, sp: complex, sp_conj: complex) -> None:
    """Apply J of :func:`_rotation` to columns p, q of a matrix held as the
    list of its columns (lists of Python complex numbers), in place; sp_conj
    is conj(sp), which the caller has at hand."""
    col_p, col_q = cols[p], cols[q]
    cols[p] = [c * x - sp_conj * y for x, y in zip(col_p, col_q)]
    cols[q] = [sp * x + c * y for x, y in zip(col_p, col_q)]


def _offdiag(work: list) -> float:
    """Frobenius norm of the off-diagonal part of the Hermitian matrix on top
    of :func:`_jacobi`'s work columns: sqrt(2) times the part above the diagonal."""
    return math.sqrt(2.0) * _norm([x for j, col in enumerate(work) for x in col[:j]])


def _jacobi(work: list, up: float) -> tuple[list, list]:
    """Eigenvalues (descending, stable, times ``up``) and the eigenvector rows
    of a Hermitian h held as n work columns, h's column above the identity's.

    Row-cyclic Jacobi, h <- J^* h J: one :func:`_rotate` puts J on the work,
    then J^* on rows p, q of h is the 2x2 block by formula and, elsewhere, the
    conjugates of the rotated columns.  eigh's rules: stop at off-diagonal mass
    <= tol = 1e-14 * ||h||_F, skip |h_pq| <= tol / 2n, ConvergenceError (its
    mass times ``up``) after ``_MAX_SWEEPS`` sweeps."""
    n = len(work)
    tol = 1e-14 * _norm([x for col in work for x in col[:n]])
    skip = tol / (2.0 * n)
    for _ in range(_MAX_SWEEPS):
        if _offdiag(work) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(work[q][p]) <= skip:
                    continue
                c, sp = _rotation(work[p][p].real, work[q][q].real, work[q][p])
                sp_conj = sp.conjugate()
                _rotate(work, p, q, c, sp, sp_conj)
                col_p, col_q = work[p], work[q]
                app, aqq = c * col_p[p] - sp * col_p[q], sp_conj * col_q[p] + c * col_q[q]
                for col, x, y in zip(work, col_p, col_q):  # the 2x2 block is set after
                    col[p], col[q] = x.conjugate(), y.conjugate()
                col_p[p], col_q[q], col_p[q], col_q[p] = app, aqq, 0j, 0j
    else:
        off = _offdiag(work)
        if off > tol:
            raise ConvergenceError("hermitian eigensolve exceeded the sweep cap", off * up)
    w = [col[j].real * up for j, col in enumerate(work)]
    order = sorted(range(n), key=w.__getitem__, reverse=True)
    return [w[j] for j in order], list(zip(*[work[j][n:] for j in order]))


def _eigh_slices(m: np.ndarray, who: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (K, n), descending, and eigenvectors (K, n, n), as columns,
    of each slice of a checked (K, n, n) stack by :func:`_jacobi`, on its own.

    Each slice is scaled by the power of two that brings its largest entry into
    [0.5, 1), exactly, then checked against the Hermitian rule ||h - h*||_F <=
    1e-10 * max(1, ||h||_F) (ContractError naming ``who``) and symmetrized.
    """
    n = m.shape[-1]
    if n <= 1:  # nothing to rotate, and no square to take
        h = m.diagonal(axis1=1, axis2=2)
        if (np.abs(h - h.conj()) > 1e-10 * np.maximum(1.0, np.abs(h))).any():
            raise ContractError(f"{who} requires a Hermitian matrix")
        return h.real.copy(), np.ones_like(m)
    eye = np.eye(n, dtype=np.complex128).tolist()
    values, vectors = [], []
    for cols, rows in zip(m.swapaxes(1, 2).tolist(), m.tolist()):
        e = _binade(max(abs(x) for col in cols for x in col))
        down = 2.0 ** -e
        pairs = [[(down * x, down * y.conjugate()) for x, y in zip(col, row)]
                 for col, row in zip(cols, rows)]  # column j of h and of h*, scaled
        if (_norm([x - y for pair in pairs for x, y in pair])
                > 1e-10 * max(down, _norm([x for pair in pairs for x, _ in pair]))):
            raise ContractError(f"{who} requires a Hermitian matrix")
        w, v = _jacobi([[0.5 * (x + y) for x, y in pair] + unit
                        for pair, unit in zip(pairs, eye)], 2.0 ** e)
        values.append(w)
        vectors.append(v)
    return (np.array(values, dtype=float).reshape(m.shape[:2]),
            np.array(vectors, dtype=np.complex128).reshape(m.shape))


def eigh(a) -> EighResult:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input must be Hermitian to roundoff (it is symmetrized before
    iterating, and a relative deviation above 1e-10 raises ContractError).
    Sweeps stop once the off-diagonal Frobenius mass falls below
    1e-14 * ||a||_F; exceeding the sweep cap raises ConvergenceError carrying
    the leftover residual.  This is the one-slice case of the stacked
    eigensolve behind :func:`hermitian_power`, so it returns the same bytes.
    """
    w, v = _eigh_slices(as_matrix(a, square=True)[None], "eigh")
    return EighResult(w[0], v[0])


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
    the off-diagonal norm of their Gram matrix.  The columns are held as
    lists of Python complex numbers, scaled by the power of two that brings
    the largest entry into [0.5, 1) (exact, so only sigma is scaled back),
    and rotated by :func:`_rotate`, as :func:`eigh`'s are.
    """
    m0 = as_matrix(a)
    rows, cols_n = m0.shape
    if rows < cols_n:
        flipped = svd(m0.conj().T)
        return SvdResult(flipped.v, flipped.sigma, flipped.u)

    up = 2.0 ** _binade(float(np.abs(m0).max(initial=0.0)))
    eye = np.eye(cols_n, dtype=np.complex128).tolist()
    work = [col + unit for col, unit in zip((m0 / up).T.tolist(), eye)]  # the columns above V's
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(cols_n - 1):
            for q in range(p + 1, cols_n):
                col_p, col_q = work[p][:rows], work[q][:rows]
                alpha, delta, g = _norm(col_p), _norm(col_q), _inner(col_p, col_q)
                if abs(g) <= 1e-15 * alpha * delta:
                    continue
                rotated = True
                c, sp = _rotation(alpha * alpha, delta * delta, g)
                _rotate(work, p, q, c, sp, sp.conjugate())
        if not rotated:
            break
    else:
        off = _norm([_inner(work[i][:rows], work[j][:rows])
                     for i in range(cols_n) for j in range(cols_n) if i != j])
        if off > 0.0:
            raise ConvergenceError("one-sided SVD exceeded the sweep cap", off * up * up)

    sigma = [_norm(col[:rows]) for col in work]
    order = sorted(range(cols_n), key=sigma.__getitem__, reverse=True)
    sigma = [sigma[k] for k in order]
    cols = [np.array(work[k][:rows]) for k in order]
    v = np.array(list(zip(*[work[k][rows:] for k in order])), dtype=complex).reshape(cols_n, -1)

    # sigma is descending, so the columns carrying signal are a prefix; they
    # are normalized, and completion fills the numerically dead ones and the
    # rows-beyond-columns part of U.
    ztol = max(rows, cols_n) * 1e-16 * (sigma[0] if cols_n else 0.0)
    live = [col / s for col, s in zip(cols, sigma) if s > ztol and s > 0.0]
    filled = orthonormal_extension(live, np.eye(rows, dtype=np.complex128), rows - len(live))
    u = np.empty((rows, rows), dtype=np.complex128)
    for k, col in enumerate(live + filled):
        u[:, k] = col
    return SvdResult(u, np.array(sigma) * up, v)


def takagi(a) -> TakagiResult:
    """Takagi factorization ``a = u @ diag(sigma) @ u.T`` of a symmetric matrix.

    Works through the equivalent real symmetric eigenproblem: for symmetric
    a = X + iY the real matrix [[X, Y], [Y, -X]] has spectrum {+/-sigma_j},
    and an eigenvector (x; y) with eigenvalue sigma >= 0 yields a Takagi
    column u = x + iy with a @ conj(u) = sigma * u.  This route has no
    clustering step, so nearby singular values cost no accuracy.

    Raises ContractError when ||a - a.T|| exceeds 1e-12 * max(1, ||a||).  A
    singular value counts as zero below 1e-12 * ||a||.  Both tests run on a
    scaled by the power of two that brings its largest entry into [0.5, 1),
    which is exact, so takagi(2**k * a) is (u, 2**k * sigma) bit for bit.
    """
    m = as_matrix(a, square=True)
    n = m.shape[0]
    up = 2.0 ** _binade(float(np.abs(m).max(initial=0.0)))
    m = m / up
    scale = frobenius(m)
    if frobenius(m - m.T) > 1e-12 * max(1.0 / up, scale):
        raise ContractError("takagi requires a (complex) symmetric matrix")
    if n == 0:
        return TakagiResult(np.eye(0, dtype=np.complex128), np.zeros(0))
    sym = 0.5 * (m + m.T)
    x, y = sym.real, sym.imag
    big = np.block([[x, y], [y, -x]]).astype(np.complex128)
    w, vecs = eigh(big)

    npos = int(np.sum(w > 1e-12 * scale))
    # a = u diag(sigma) u^T, so a conj(v) = 0 for every v orthogonal to the
    # npos live columns: any orthonormal completion is a Takagi column.
    live = vecs[:n, :npos] + 1j * vecs[n:, :npos]
    null = orthonormal_extension(live.T, np.eye(n, dtype=np.complex128), n - npos)
    return TakagiResult(np.column_stack([live, *null]),
                        np.concatenate([w[:npos], np.zeros(n - npos)]) * up)


def hermitian_power(a, t: float) -> np.ndarray:
    """Power ``a**t``, t finite and real, of a Hermitian positive definite matrix or stack.

    The matrix is symmetrized, eigendecomposed, and rebuilt with powered
    eigenvalues; the result is re-Hermitized.  eigh's Hermiticity rule,
    ||a - a*||_F <= 1e-10 * max(1, ||a||_F), binds each slice (ContractError
    otherwise), and any eigenvalue <= 0 raises DomainError (fractional and
    negative powers need a positive spectrum, and this routine refuses to
    guess at the boundary).

    ``a`` may be a (K, n, n) stack, which returns the (K, n, n) powers.
    Each slice runs eigh's Jacobi iteration on its own, one after the other,
    so a slice's power does not depend on the stack; any slice that fails a
    check raises.  A 2-D input is the one-slice stack, with eigh's eigenpairs.
    From K of about 5 a vectorized iteration over the stack would be faster
    (K = 16, n = 4: about 1.0 against 2.6 ms); the library makes no call with
    K > 2 on the default kinds.
    """
    t = as_real(t, "hermitian_power exponent t must be a finite real number, got {!r}",
                exclusive=True)
    return _eig_power(_checked(a, "matrix", 2, 3), t)[2]


def _eig_power(m: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues w, eigenvectors v and power ``m**t`` of a checked
    Hermitian positive definite matrix or (K, n, n) stack, under
    :func:`hermitian_power`'s rules: the Hermitian rule per slice
    (ContractError), and DomainError for any eigenvalue <= 0.  A matrix is
    the one-slice stack, so it gets the bytes of its slice in any stack."""
    stacked = m.ndim == 3
    w, v = _eigh_slices(m if stacked else m[None], "hermitian_power")
    if w.size and w.min() <= 0.0:
        raise DomainError(f"matrix power {t} needs a positive spectrum; "
                          f"smallest eigenvalue is {w.min():.3e}")
    powered = (v * (w ** t)[:, None, :]) @ v.conj().swapaxes(1, 2)
    power = 0.5 * (powered + powered.conj().swapaxes(1, 2))
    return (w, v, power) if stacked else (w[0], v[0], power[0])


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
