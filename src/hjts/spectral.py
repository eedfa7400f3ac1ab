"""Spectral values and frames, and every per-family closed form of id + sign z box z.

Every element factors as z = sum_j lambda_j c_j over a frame (mutually
orthogonal primitive-type tripotents), lambda_1 >= ... >= lambda_r >= 0 with
r = rank(kind): by SVD for type I, Takagi for type III, the paired (Youla)
eigenstructure of Z Z* for type II, and a two-term closed form for the spin
factor.  On top sit N = prod(1 - lambda_j^2), N* = prod(1 + lambda_j^2), the
quasi-inverse (id - z box z)^(-1) z and odd powers z^(2j+1).

This module owns each family's closed forms: log N and log N*, the row map
(id + sign z box z)^t z (``_box_power_rows``), psi's exact differential and
the Kähler forms (B(z, -sign z)^-1)^T.  Each reads ``_gram_side`` (types I-III)
or ``_spin``, and none builds the N x N box or quadratic operator.  The
factor-wise routines loop over ``kinds.split_coords``'s (factor, slice) pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kinds as _k
from .errors import (ConsistencyError, ContractError, DomainError, SingularityError,
                     as_int)
from .jts import Element, _box_apply
from .linalg import (_binade, _checked, _eig_power, cholesky_logdet, eigh, frobenius,
                     hermitian_power, orthonormal_extension, solve, svd, takagi)

__all__ = [
    "SpectralDecomposition",
    "spectral_values",
    "spectral_decompose",
    "generic_norms",
    "log_generic_norm_minus",
    "log_generic_norm_plus",
    "log_norm_rows",
    "quasi_inverse",
    "odd_power",
]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Frame, spectral values, and the kind they live in."""

    kind: _k.JTSKind
    values: np.ndarray  # real, descending, length rank(kind)
    frame: tuple  # of Element, aligned with values

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "frame", tuple(self.frame))

    def reconstruct(self) -> Element:
        coords = np.zeros(_k.ambient_dim(self.kind), dtype=np.complex128)
        for lam, c in zip(self.values, self.frame):
            coords = coords + lam * c.coords
        return Element(self.kind, coords)


# --------------------------------------------------------------------------
# The two per-family helpers; spectral values (for sample_domain, beta,
# quasi_inverse, generic_norms) and log-norms (domain checks, potentials)

def _gram(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """The smaller Gram matrix of ``mat`` over its last two axes, and whether
    ``mat`` is wide: (Z Z*, True) when Z has no more rows than columns, else
    (Z* Z, False).  The two share their nonzero eigenvalues, the squared
    singular values of Z."""
    adjoint = np.conj(mat).swapaxes(-1, -2)
    wide = mat.shape[-2] <= mat.shape[-1]
    return (mat @ adjoint if wide else adjoint @ mat), wide


def _gram_side(kind: _k.JTSKind, coords: np.ndarray, sign):
    """(Z, wide, I, I + sign * Gram) of a type I-III kind's coordinates on the
    smaller Gram side (``_gram``); ``sign`` may be an array that broadcasts."""
    mat = _k.coords_to_matrix(kind, coords)
    gram, wide = _gram(mat)
    eye = np.eye(gram.shape[-1], dtype=np.complex128)
    return mat, wide, eye, eye + sign * gram


def _spin(kind: _k.JTSKind, coords: np.ndarray):
    """(x, a, q) of a spin factor's coordinates: the ambient x = coords /
    sqrt(2), a = |x|^2 and q = x.x over the last axis (kept, of length 1)."""
    x = _k.coords_to_ambient(kind, coords)
    return x, (np.abs(x) ** 2).sum(axis=-1, keepdims=True), (x * x).sum(axis=-1, keepdims=True)


def _spin_norm(a: np.ndarray, q: np.ndarray, sign) -> np.ndarray:
    """N_s = 1 + 2 sign a + |q|^2 = prod(1 + sign lambda_j^2) from ``_spin``'s a, q."""
    return 1.0 + sign * 2.0 * a + np.abs(q) ** 2


def _values_simple(kind: _k.JTSKind, coords: np.ndarray) -> np.ndarray:
    if isinstance(kind, _k.TypeIV):
        _, a, q = _spin(kind, coords)
        a, q = float(a[0]), complex(q[0])
        disc = math.sqrt(max(a * a - abs(q) ** 2, 0.0))
        return np.array([math.sqrt(a + disc), math.sqrt(max(a - disc, 0.0))])
    mat = _k.coords_to_matrix(kind, coords)
    sq = np.maximum(eigh(_gram(mat)[0]).values, 0.0)
    if isinstance(kind, _k.TypeII):
        sq = sq[0::2][: kind.n // 2]  # eigenvalues of Z Z* come in equal pairs
    return np.sqrt(sq)


def spectral_values(z: Element) -> np.ndarray:
    """The lambda_j of z (its factors' values merged), descending, length rank(kind).

    They are taken from z scaled by the power of two that brings its largest
    coordinate into [0.5, 1), and scaled back.  That is exact, so no Gram
    matrix overflows or underflows and spectral_values(2**k * z) is
    2**k * spectral_values(z) bit for bit."""
    kind = z.kind
    up = 2.0 ** _binade(float(np.abs(z.coords).max(initial=0.0)))
    parts = [_values_simple(f, c)
             for f, c in zip(_k.simple_factors(kind), _k.split_coords(kind, z.coords / up))]
    values = np.concatenate(parts) * up
    values[::-1].sort()  # ascending in reverse: descending in place
    return values


def _rows(kind: _k.JTSKind, coords, sign: float) -> np.ndarray:
    """The input check of the row maps: ``coords`` as a finite (K, N)
    complex128 array; ContractError on any other shape, on a non-finite entry,
    or on a ``sign`` other than -1 or +1."""
    if sign not in (-1.0, 1.0):
        raise ContractError(f"sign must be -1 or +1, got {sign!r}")
    coords = _checked(coords, "coordinate array", 2, 2, square=False)
    if coords.shape[1] != _k.ambient_dim(kind):
        raise ContractError(
            f"{_k.format_kind(kind)} needs a (K, {_k.ambient_dim(kind)}) coordinate "
            f"array, got shape {coords.shape}"
        )
    return coords


def _log_norm_simple(kind: _k.JTSKind, coords: np.ndarray, sign: float) -> np.ndarray:
    """log prod(1 + sign * lambda_j^2) of each row of a (K, N) simple-kind array.

    det(I + sign * Gram) equals the product exactly (squared for type II,
    whose Gram doubles every eigenvalue), so a Cholesky log-determinant gives
    the value far cheaper than an eigendecomposition -- and for sign = -1 the
    failed-pivot signal is a strict test of lambda_1 < 1.
    """
    if isinstance(kind, _k.TypeIV):
        _, a, q = _spin(kind, coords)
        a, q_sq = a[:, 0], np.abs(q[:, 0]) ** 2
        shift = sign * 2.0 * a + q_sq  # N_s - 1, for log1p
        # lambda_1 < 1 iff both 1 - lambda_j^2 are positive: their product N
        # and their sum 2 - 2a are.
        if sign < 0.0 and not ((a < 1.0) & (shift > -1.0)).all():
            lam1_sq = a + np.sqrt(np.maximum(a * a - q_sq, 0.0))
            raise DomainError(
                "point lies outside the bounded domain "
                f"(largest spectral value {math.sqrt(np.max(lam1_sq)):.6f} >= 1)"
            )
        # math.log1p, not np.log1p, which is a few ulp less accurate: this
        # roundoff is the noise floor of complex_hessian's oracle forms
        return np.array([math.log1p(x) for x in shift.tolist()])
    *_, shifted = _gram_side(kind, coords, sign)
    try:
        logdet = cholesky_logdet(shifted)
    except DomainError:
        raise DomainError("point lies outside the bounded domain (largest spectral value >= 1)"
                          if sign < 0.0 else "log N* cannot be evaluated at this scale: "
                          "I + Gram lost its identity term to roundoff") from None
    return 0.5 * logdet if isinstance(kind, _k.TypeII) else logdet


def log_norm_rows(kind: _k.JTSKind, coords: np.ndarray, sign: float) -> np.ndarray:
    """log prod_j (1 + sign * lambda_j^2) for every row of a (K, N) coordinate array.

    ``sign = -1`` gives log N, and raises DomainError when any row lies on or outside the
    domain; ``sign = +1`` gives log N*, finite everywhere but DomainError where I + Gram loses
    its identity term to roundoff; any other sign raises ContractError.  Rows are processed by
    the same elementwise steps whatever K is, so a row's value does not depend on the batch.
    """
    coords = _rows(kind, coords, sign)
    parts = [_log_norm_simple(f, c, sign)
             for f, c in zip(_k.simple_factors(kind), _k.split_coords(kind, coords))]
    return sum(parts[1:], parts[0])


def _require_interior(kind: _k.JTSKind, coords: np.ndarray, what: str) -> None:
    """The one interior-point refusal: DomainError, naming ``what`` and the
    kind, when any row of a (K, N) coordinate array lies on or outside the
    domain, tested by one ``log_norm_rows`` call."""
    try:
        log_norm_rows(kind, coords, -1.0)
    except DomainError:
        raise DomainError(f"{what} needs an interior point of the {_k.format_kind(kind)} "
                          "domain (largest spectral value must be < 1)") from None


def log_generic_norm_minus(z: Element) -> float:
    """log N(z) = sum_j log(1 - lambda_j^2); DomainError outside the open domain."""
    return float(log_norm_rows(z.kind, z.coords[None, :], -1.0)[0])


def log_generic_norm_plus(z: Element) -> float:
    """log N*(z) = sum_j log(1 + lambda_j^2); finite, refused as by ``log_norm_rows``."""
    return float(log_norm_rows(z.kind, z.coords[None, :], 1.0)[0])


# --------------------------------------------------------------------------
# Frames

def _decompose_type_i(kind: _k.TypeI, coords: np.ndarray):
    mat = _k.coords_to_matrix(kind, coords)
    u, sigma, v = svd(mat)
    r = min(kind.p, kind.q)
    return sigma, [_k.matrix_to_coords(kind, np.outer(u[:, j], np.conj(v[:, j])))
                   for j in range(r)]


def _decompose_type_iii(kind: _k.TypeIII, coords: np.ndarray):
    mat = _k.coords_to_matrix(kind, coords)
    u, sigma = takagi(mat)
    return sigma, [_k.matrix_to_coords(kind, np.outer(u[:, j], u[:, j])) for j in range(kind.n)]


def _decompose_type_ii(kind: _k.TypeII, coords: np.ndarray):
    """Frame via the paired eigenstructure of H = Z Z*.

    Eigenvalues of H come in equal pairs sigma^2.  On the eigenspace of one
    (clustered) sigma, psi(x) = Z conj(x)/sigma is an antilinear map with
    psi^2 = -1, so the space splits into psi-pairs (w, psi w); each pair maps
    to the rank-two antisymmetric tripotent b a^T - a b^T with a = Q w,
    b = Q psi(w).  Values inside one cluster are reported as their mean --
    the cluster width is below the gap threshold, so reconstruction keeps
    its 1e-8 budget.

    The eigenbasis of H is taken from the one-sided SVD of Z (U diagonalizes
    Z Z* by construction): forming H explicitly would square the values and
    put a sqrt(eps)-level floor under the small ones, which is exactly what
    the kernel/cluster classification cannot afford.
    """
    n = kind.n
    mat = _k.coords_to_matrix(kind, coords)
    q, lam, _ = svd(mat)
    scale = max(1.0, float(lam[0]))
    gap = 1e-9 * scale
    # For odd n the last column is the unpaired kernel direction.  It stays
    # out of the clustering: chained into the smallest nonzero cluster it
    # would make that cluster odd.
    top = n - n % 2

    values: list[float] = []
    frame_mats: list[np.ndarray] = []
    i0 = 0
    while i0 < top:
        i1 = i0 + 1
        while i1 < top and lam[i1 - 1] - lam[i1] <= gap:
            i1 += 1
        qc = q[:, i0:i1]
        m2 = i1 - i0
        if lam[i0] <= gap:
            # Kernel (or numerically dead) cluster: any orthonormal pairing
            # works, the spectral value is 0.
            for j in range(m2 // 2):
                a = qc[:, 2 * j]
                b = qc[:, 2 * j + 1]
                values.append(0.0)
                frame_mats.append(np.outer(b, a) - np.outer(a, b))
            i0 = i1
            continue
        if m2 % 2:
            raise ConsistencyError(
                f"type II eigenvalue cluster of odd size {m2} (pairing is broken)"
            )
        sbar = float(np.mean(lam[i0:i1]))
        a_c = qc.conj().T @ mat @ np.conj(qc)
        a_c = 0.5 * (a_c - a_c.T)  # exact antisymmetry kills <w, psi w> drift
        candidates = np.eye(m2, dtype=np.complex128)
        basis: list[np.ndarray] = []
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        while len(basis) < m2:
            (w1,) = orthonormal_extension(basis, candidates, 1)
            w2 = a_c @ np.conj(w1) / sbar
            for b in basis + [w1]:
                w2 -= np.vdot(b, w2) * b
            nrm = frobenius(w2)
            if nrm < 1e-3:
                # Degenerate tiny cluster: psi is numerically dead, fall back
                # to an arbitrary completion (values are ~0 there anyway).
                (w2,) = orthonormal_extension(basis + [w1], candidates, 1)
            else:
                w2 = w2 / nrm
            basis.extend([w1, w2])
            pairs.append((w1, w2))
        for w1, w2 in pairs:
            a = qc @ w1
            b = qc @ w2
            values.append(sbar)
            frame_mats.append(np.outer(b, a) - np.outer(a, b))
        i0 = i1

    return np.asarray(values), [_k.matrix_to_coords(kind, m) for m in frame_mats]


def _decompose_type_iv(kind: _k.TypeIV, coords: np.ndarray):
    """Two-term frame of the spin factor.

    Rotate z by exp(-i arg(q)/2) so its bilinear square q becomes >= 0; the
    real and imaginary parts x, y of the rotated vector are then orthogonal
    with |x| >= |y|, and z = lam_+ c_+ + lam_- c_- for
    c_+- = exp(i theta/2)(u +- i v)/2, lam_+- = |x| +- |y|.
    """
    amb, _, qv = _spin(kind, coords)
    qv = complex(qv[0])
    theta = cmath.phase(qv) if qv != 0 else 0.0
    half = cmath.exp(-0.5j * theta)
    zeta = half * amb
    x, y = zeta.real.copy(), zeta.imag.copy()
    nx = float(np.sqrt(np.sum(x * x)))
    ny = float(np.sqrt(np.sum(y * y)))
    if nx == 0.0 and ny == 0.0:
        u, v = orthonormal_extension([], np.eye(kind.n), 2)  # exactly e_1, e_2
        lam_hi = lam_lo = 0.0
    else:
        if ny > nx:  # roundoff can flip the inequality when q ~ 0
            x, y, nx, ny = y, x, ny, nx
        u = x / nx
        if ny <= 1e-9 * max(1.0, nx):
            (v,) = orthonormal_extension([u], np.eye(kind.n), 1)
        else:
            v = y / ny
            v = v - np.dot(u, v) * u
            v = v / float(np.sqrt(np.sum(v * v)))
        lam_hi, lam_lo = nx + ny, max(nx - ny, 0.0)
    phase = cmath.exp(0.5j * theta)
    c_plus = phase * (u + 1j * v) / 2.0
    c_minus = phase * (u - 1j * v) / 2.0
    return np.array([lam_hi, lam_lo]), [_k.ambient_to_coords(kind, c_plus),
                                        _k.ambient_to_coords(kind, c_minus)]


_DECOMPOSERS = {_k.TypeI: _decompose_type_i, _k.TypeII: _decompose_type_ii,
                _k.TypeIII: _decompose_type_iii, _k.TypeIV: _decompose_type_iv}


def spectral_decompose(z: Element) -> SpectralDecomposition:
    """Full frame decomposition z = sum lambda_j c_j, r = rank(kind) terms.

    Each simple factor is decomposed on its coordinate slice; the factor
    frames, zero-padded to the whole space, and their values are merged by
    one stable sort on descending value.
    """
    kind = z.kind
    values, frames, at = [], [], 0
    for f, piece in zip(_k.simple_factors(kind), _k.split_coords(kind, z.coords)):
        vals, rows = _DECOMPOSERS[type(f)](f, piece)
        padded = np.zeros((len(rows), z.coords.size), dtype=np.complex128)
        padded[:, at:at + piece.size] = rows
        values.append(vals)
        frames.append(padded)
        at += piece.size
    values = np.concatenate(values)
    order = np.argsort(-values, kind="stable")
    frames = np.concatenate(frames)
    return SpectralDecomposition(kind, values[order],
                                 tuple(Element(kind, frames[i]) for i in order))


# --------------------------------------------------------------------------
# Derived scalars and maps

def generic_norms(z: Element) -> tuple[float, float]:
    """(N, N*) = (prod(1 - lambda^2), prod(1 + lambda^2)) over the frame values."""
    sq = spectral_values(z) ** 2
    return float(np.prod(1.0 - sq)), float(np.prod(1.0 + sq))


def _box_power_rows(kind: _k.JTSKind, coords: np.ndarray, sign: float,
                    t: float) -> np.ndarray:
    """(id + sign * z box z)^t z for every row z of a (K, N) coordinate array,
    t in {-1/2, -1, -2}, through f(z box z) z = f(Z Z*) Z: no N x N operator.

    Types I-III power I + sign * Gram (``_gram_side``): t = -1/2 by one
    stacked ``hermitian_power``, t = -1 and -2 by one stacked ``solve``
    against the identity (squared for -2).  The spin factor maps its ambient x
    (``_spin``) to (c_x x + c_q q conj(x)) / den, (c_x, c_q, den) being
    (1 + sqrt N_s, sign, sqrt N_s sqrt(2 + 2 sign a + 2 sqrt N_s)) at -1/2,
    (1, sign, N_s) at -1 and (1 - |q|^2, 2 (sign + a), N_s^2) at -2.
    Products go factor by factor.  t = -1/2 with sign = -1 needs every row
    inside the domain, which the callers check; t = -1 and -2 need only an
    invertible shift.  A row's image does not depend on its batch.
    """
    return _k.join_coords(kind, [
        _box_power_simple(f, c, sign, t)
        for f, c in zip(_k.simple_factors(kind), _k.split_coords(kind, coords))
    ])


def _box_power_simple(kind: _k.JTSKind, coords: np.ndarray, sign: float,
                      t: float) -> np.ndarray:
    if isinstance(kind, _k.TypeIV):
        x, a, q = _spin(kind, coords)
        norm = _spin_norm(a, q, sign)
        if t == -0.5:
            root = np.sqrt(norm)
            c_x, c_q, den = 1.0 + root, sign, root * np.sqrt(2.0 + sign * 2.0 * a + 2.0 * root)
        elif t == -1:
            c_x, c_q, den = 1.0, sign, norm
        else:
            c_x, c_q, den = 1.0 - np.abs(q) ** 2, 2.0 * (sign + a), norm * norm
        return _k.ambient_to_coords(kind, (c_x * x + c_q * q * np.conj(x)) / den)
    mat, wide, eye, shifted = _gram_side(kind, coords, sign)
    if t == -0.5:
        power = hermitian_power(shifted, -0.5)
    else:
        power = solve(shifted, eye)
        if t == -2:
            power = power @ power
    return _k.matrix_to_coords(kind, power @ mat if wide else mat @ power)


def _psi_differential_simple(kind: _k.JTSKind, coords: np.ndarray,
                             dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``duality._psi_differential_rows`` on a simple kind: the images bit for
    bit ``_box_power_simple``'s at (-1, -1/2), and the (K, D, N) derivatives.

    Types I-III take A = I - Z Z* = V diag(w) V* (I - Z* Z for a tall Z) from
    one stacked eigensolve, ``hermitian_power``'s, and along W, with
    dA = -(W Z* + Z W*) (-(W* Z + Z* W) when tall),

        d psi = V (F o V* dA V) V* Z + A^(-1/2) W   (Z d(A^(-1/2)) + W A^(-1/2) when tall),

    F_ij = -1/(sqrt w_i sqrt w_j (sqrt w_i + sqrt w_j)) being the divided
    differences of x^(-1/2), which take its derivative at w_i = w_j
    (Daleckii-Krein; Higham, Functions of Matrices, SIAM 2008, ch. 3).  The
    spin factor differentiates its closed form by the chain rule in a and q.
    """
    if isinstance(kind, _k.TypeIV):
        image = _box_power_simple(kind, coords, -1.0, -0.5)
        x, a, q = _spin(kind, coords[:, None, :])  # (K, 1, n) against (D, n)
        y = _k.coords_to_ambient(kind, dirs)
        u = _k.coords_to_ambient(kind, image)[:, None, :]
        root = np.sqrt(_spin_norm(a, q, -1.0))  # sqrt N
        half = np.sqrt(2.0 - 2.0 * a + 2.0 * root)
        # u = ((1 + root) x - q conj(x)) / (root half), differentiated along y
        da = 2.0 * (np.conj(x) * y).sum(axis=-1, keepdims=True).real
        dq = 2.0 * (x * y).sum(axis=-1, keepdims=True)
        droot = ((np.conj(q) * dq).real - da) / root
        dden = droot * half + root * (droot - da) / half
        du = (droot * x + (1.0 + root) * y - dq * np.conj(x) - q * np.conj(y) - dden * u) \
            / (root * half)
        return image, _k.ambient_to_coords(kind, du)
    mat, wide, _, shifted = _gram_side(kind, coords, -1.0)  # (K, p, q)
    w, v, power = _eig_power(shifted, -0.5)
    adj = np.conj(mat).swapaxes(-1, -2)[:, None]  # (K, 1, q, p) against (D, p, q)
    mat_k, dmat = mat[:, None], _k.coords_to_matrix(kind, dirs)
    dadj = np.conj(dmat).swapaxes(-1, -2)
    d_shift = -(dmat @ adj + mat_k @ dadj) if wide else -(dadj @ mat_k + adj @ dmat)
    root = np.sqrt(w)
    f = -1.0 / (root[:, :, None] * root[:, None, :] * (root[:, :, None] + root[:, None, :]))
    v_k = v[:, None]
    v_adj = np.conj(v_k).swapaxes(-1, -2)
    d_power = v_k @ (f[:, None] * (v_adj @ d_shift @ v_k)) @ v_adj
    if wide:
        image, deriv = power @ mat, d_power @ mat_k + power[:, None] @ dmat
    else:
        image, deriv = mat @ power, mat_k @ d_power + dmat @ power[:, None]
    return _k.matrix_to_coords(kind, image), _k.matrix_to_coords(kind, deriv)


@lru_cache(maxsize=None)
def _basis_matrices(kind: _k.JTSKind) -> np.ndarray:
    """The (N, p, q) matrices E_j of a type I-III kind's coordinate basis."""
    basis = _k.coords_to_matrix(kind, np.eye(_k.ambient_dim(kind), dtype=np.complex128))
    basis.setflags(write=False)
    return basis


def _form_hessian_simple(kind: _k.JTSKind, coords: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """``geometry._form_hessians``'s (R, N, N) block of a simple kind's (R, N)
    rows, ``sign`` being (R, 1, 1), before symmetrization.

    Types I-III: row j holds the coordinates of A^-1 E_j C^-1, with
    A = I + sign Z Z*, C = I + sign Z* Z and E_j the basis matrices.  One
    stacked ``solve`` inverts the smaller of A and C (``_gram_side``); types
    II and III take C^-1 = conj(A^-1), and type I the larger inverse by
    push-through, C^-1 = I - sign Z* A^-1 Z or A^-1 = I - sign Z C^-1 Z*.
    The spin factor's block is the rank-two update
    ((2 I + 4 sign x x^H) / N_s - sign u v^T / N_s^2) / 2 of its ambient x,
    with u = 2 sign conj(x) + 2 conj(q) x and v = 2 sign x + 2 q conj(x).
    """
    if isinstance(kind, _k.TypeIV):
        row, a, q = _spin(kind, coords[:, None, :])
        norm = _spin_norm(a, q, sign)
        x = row.swapaxes(1, 2)  # columns (R, n, 1)
        u = 2.0 * sign * np.conj(x) + 2.0 * np.conj(q) * x
        v = 2.0 * sign * x + 2.0 * q * np.conj(x)
        return 0.5 * ((2.0 * np.eye(kind.n) + 4.0 * sign * x * np.conj(x).swapaxes(1, 2)) / norm
                      - sign * u * v.swapaxes(1, 2) / norm ** 2)
    mat, wide, eye, shifted = _gram_side(kind, coords, sign)
    small = solve(shifted, eye)
    if isinstance(kind, _k.TypeI):
        adj = np.conj(mat).swapaxes(1, 2)
        if wide:
            left, right = small, np.eye(kind.q) - sign * (adj @ small @ mat)
        else:
            left, right = np.eye(kind.p) - sign * (mat @ small @ adj), small
    else:
        left, right = small, np.conj(small)
    return _k.matrix_to_coords(kind, left[:, None] @ _basis_matrices(kind) @ right[:, None])


def quasi_inverse(z: Element) -> Element:
    """z^z = (id - z box z)^(-1) z; spectral values at 1 are poles."""
    values = spectral_values(z)
    if values.size and np.min(np.abs(values - 1.0)) <= 1e-12:
        raise SingularityError("quasi-inverse pole: a spectral value equals 1")
    return Element(z.kind, _box_power_rows(z.kind, z.coords[None, :], -1.0, -1)[0])


def odd_power(z: Element, j: int) -> Element:
    """z^(2j+1) = (z box z)^j z, by j applications of v -> {z z v}/2 (z^(1) = z)."""
    j = as_int(j, "power index must be an integer >= 0, got {!r}")
    return Element(z.kind, _box_apply(z.kind, z.coords, j, z.coords))
