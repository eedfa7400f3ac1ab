"""Spectral decomposition into tripotent frames and the derived scalars.

Every element factors as z = sum_j lambda_j c_j over a frame (mutually
orthogonal primitive-type tripotents), lambda_1 >= ... >= lambda_r >= 0 with
r = rank(kind).  The factorizations are kind-specific: SVD for type I,
Takagi for type III, the paired (Youla) eigenstructure of Z Z* for type II, a
two-term closed form for the spin factor, and componentwise merging for
products.  On top of the decomposition sit the generic norms
N = prod(1 - lambda_j^2) and N* = prod(1 + lambda_j^2), the quasi-inverse
(id - z box z)^(-1) z, and odd powers z^(2j+1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError, SingularityError
from .jts import Element, box_operator, q_operator
from .linalg import cholesky_logdet, eigh, frobenius, solve, svd, takagi

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
# Spectral values (no frames -- cheap path used by domain tests & potentials)

def _gram_eigenvalues(mat: np.ndarray) -> np.ndarray:
    small = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    return np.maximum(eigh(small).values, 0.0)


def _values_simple(kind: _k.JTSKind, coords: np.ndarray) -> np.ndarray:
    if isinstance(kind, _k.TypeIV):
        amb = _k.coords_to_ambient(kind, coords)
        a = float(np.sum(np.abs(amb) ** 2))
        q = complex(np.sum(amb * amb))
        disc = math.sqrt(max(a * a - abs(q) ** 2, 0.0))
        return np.array([math.sqrt(a + disc), math.sqrt(max(a - disc, 0.0))])
    mat = _k.coords_to_matrix(kind, coords)
    sq = _gram_eigenvalues(mat)
    if isinstance(kind, _k.TypeII):
        sq = sq[0::2][: kind.n // 2]  # eigenvalues of Z Z* come in equal pairs
    return np.sqrt(sq)


def spectral_values(z: Element) -> np.ndarray:
    """The lambda_j of z, descending, length rank(kind)."""
    kind = z.kind
    if isinstance(kind, _k.Product):
        parts = [
            _values_simple(f, c)
            for f, c in zip(kind.factors, _k.split_coords(kind, z.coords))
        ]
        merged = np.concatenate(parts)
        return np.sort(merged)[::-1].copy()
    return _values_simple(kind, z.coords)


def _log_norm_simple(kind: _k.JTSKind, coords: np.ndarray, sign: float) -> np.ndarray:
    """log prod(1 + sign * lambda_j^2) of each row of a (K, N) simple-kind array.

    det(I + sign * Gram) equals the product exactly (squared for type II,
    whose Gram doubles every eigenvalue), so a Cholesky log-determinant gives
    the value far cheaper than an eigendecomposition -- and for sign = -1 the
    failed-pivot signal is a strict test of lambda_1 < 1.
    """
    if isinstance(kind, _k.TypeIV):
        amb = _k.coords_to_ambient(kind, coords)
        a = (np.abs(amb) ** 2).sum(axis=-1)
        q_sq = np.abs((amb * amb).sum(axis=-1)) ** 2
        shift = sign * 2.0 * a + q_sq  # N - 1 or N* - 1
        # lambda_1 < 1 iff both 1 - lambda_j^2 are positive: their product N
        # and their sum 2 - 2a are.
        if sign < 0.0 and not ((a < 1.0) & (shift > -1.0)).all():
            lam1_sq = a + np.sqrt(np.maximum(a * a - q_sq, 0.0))
            raise DomainError(
                "point lies outside the bounded domain "
                f"(largest spectral value {math.sqrt(np.max(lam1_sq)):.6f} >= 1)"
            )
        # math.log1p, not np.log1p: numpy's vectorized log1p is a few ulp less
        # accurate, and this roundoff is the noise floor of every
        # finite-difference Hessian of the potentials.
        return np.array([math.log1p(x) for x in shift.tolist()])
    mat = _k.coords_to_matrix(kind, coords)
    adjoint = np.conj(mat).swapaxes(-1, -2)
    gram = mat @ adjoint if mat.shape[-2] <= mat.shape[-1] else adjoint @ mat
    shifted = np.eye(gram.shape[-1], dtype=np.complex128) + sign * gram
    try:
        logdet = cholesky_logdet(shifted)
    except DomainError:
        raise DomainError(
            "point lies outside the bounded domain (largest spectral value >= 1)"
        ) from None
    return 0.5 * logdet if isinstance(kind, _k.TypeII) else logdet


def log_norm_rows(kind: _k.JTSKind, coords: np.ndarray, sign: float) -> np.ndarray:
    """log prod_j (1 + sign * lambda_j^2) for every row of a (K, N) coordinate array.

    ``sign = -1`` gives log N, and raises DomainError when any row lies on or
    outside the domain; ``sign = +1`` gives log N*, defined everywhere.  Rows
    are processed by the same elementwise steps whatever K is, so a row's
    value does not depend on the batch it is evaluated in.
    """
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != 2 or coords.shape[1] != _k.ambient_dim(kind):
        raise ContractError(
            f"{_k.format_kind(kind)} needs a (K, {_k.ambient_dim(kind)}) coordinate "
            f"array, got shape {coords.shape}"
        )
    if isinstance(kind, _k.Product):
        return sum(
            _log_norm_simple(f, c, sign)
            for f, c in zip(kind.factors, _k.split_coords(kind, coords))
        )
    return _log_norm_simple(kind, coords, sign)


def log_generic_norm_minus(z: Element) -> float:
    """log N(z) = sum_j log(1 - lambda_j^2); DomainError outside the open domain."""
    return float(log_norm_rows(z.kind, z.coords[None, :], -1.0)[0])


def log_generic_norm_plus(z: Element) -> float:
    """log N*(z) = sum_j log(1 + lambda_j^2); defined everywhere."""
    return float(log_norm_rows(z.kind, z.coords[None, :], 1.0)[0])


# --------------------------------------------------------------------------
# Frames

def _decompose_type_i(kind: _k.TypeI, coords: np.ndarray):
    mat = _k.coords_to_matrix(kind, coords)
    u, sigma, v = svd(mat)
    r = min(kind.p, kind.q)
    frame = [
        Element(kind, _k.matrix_to_coords(kind, np.outer(u[:, j], np.conj(v[:, j]))))
        for j in range(r)
    ]
    return sigma, frame


def _decompose_type_iii(kind: _k.TypeIII, coords: np.ndarray):
    mat = _k.coords_to_matrix(kind, coords)
    u, sigma = takagi(mat)
    frame = [
        Element(kind, _k.matrix_to_coords(kind, np.outer(u[:, j], u[:, j])))
        for j in range(kind.n)
    ]
    return sigma, frame


def _argmax_residual(basis: list[np.ndarray], dim: int) -> np.ndarray:
    """Unit vector orthogonal to `basis`, grown from the best standard basis
    candidate (never stalls while the basis is incomplete)."""
    best, best_norm = None, -1.0
    for i in range(dim):
        cand = np.zeros(dim, dtype=np.complex128)
        cand[i] = 1.0
        for b in basis:
            cand -= np.vdot(b, cand) * b
        norm = frobenius(cand)
        if norm > best_norm:
            best, best_norm = cand, norm
    assert best is not None and best_norm > 1e-8
    out = best / best_norm
    for b in basis:  # second pass tightens orthogonality to roundoff
        out -= np.vdot(b, out) * b
    return out / frobenius(out)


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

    values: list[float] = []
    frame_mats: list[np.ndarray] = []
    i0 = 0
    while i0 < n:
        i1 = i0 + 1
        while i1 < n and lam[i1 - 1] - lam[i1] <= gap:
            i1 += 1
        qc = q[:, i0:i1]
        m2 = i1 - i0
        if lam[i0] <= gap:
            # Kernel (or numerically dead) cluster: any orthonormal pairing
            # works, the spectral value is 0.  An odd leftover column is the
            # unpaired kernel direction of odd n.
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
        basis: list[np.ndarray] = []
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        while len(basis) < m2:
            w1 = _argmax_residual(basis, m2)
            w2 = a_c @ np.conj(w1) / sbar
            for b in basis + [w1]:
                w2 -= np.vdot(b, w2) * b
            nrm = frobenius(w2)
            if nrm < 1e-3:
                # Degenerate tiny cluster: psi is numerically dead, fall back
                # to an arbitrary completion (values are ~0 there anyway).
                w2 = _argmax_residual(basis + [w1], m2)
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

    frame = [Element(kind, _k.matrix_to_coords(kind, m)) for m in frame_mats]
    return np.asarray(values), frame


def _real_unit_orthogonal(u: np.ndarray) -> np.ndarray:
    """A real unit vector orthogonal to the real unit vector u."""
    dim = u.shape[0]
    best, best_norm = None, -1.0
    for i in range(dim):
        cand = np.zeros(dim)
        cand[i] = 1.0
        cand = cand - np.dot(u, cand) * u
        norm = float(np.sqrt(np.sum(cand * cand)))
        if norm > best_norm:
            best, best_norm = cand, norm
    assert best is not None and best_norm > 0.0
    return best / best_norm


def _decompose_type_iv(kind: _k.TypeIV, coords: np.ndarray):
    """Two-term frame of the spin factor.

    Rotate z by exp(-i arg(q)/2) so its bilinear square q becomes >= 0; the
    real and imaginary parts x, y of the rotated vector are then orthogonal
    with |x| >= |y|, and z = lam_+ c_+ + lam_- c_- for
    c_+- = exp(i theta/2)(u +- i v)/2, lam_+- = |x| +- |y|.
    """
    amb = _k.coords_to_ambient(kind, coords)
    qv = complex(np.sum(amb * amb))
    theta = cmath.phase(qv) if qv != 0 else 0.0
    half = cmath.exp(-0.5j * theta)
    zeta = half * amb
    x, y = zeta.real.copy(), zeta.imag.copy()
    nx = float(np.sqrt(np.sum(x * x)))
    ny = float(np.sqrt(np.sum(y * y)))
    if nx == 0.0 and ny == 0.0:
        u = np.zeros(kind.n)
        u[0] = 1.0
        v = np.zeros(kind.n)
        v[1] = 1.0
        lam_hi = lam_lo = 0.0
    else:
        if ny > nx:  # roundoff can flip the inequality when q ~ 0
            x, y, nx, ny = y, x, ny, nx
        u = x / nx
        if ny <= 1e-9 * max(1.0, nx):
            v = _real_unit_orthogonal(u)
        else:
            v = y / ny
            v = v - np.dot(u, v) * u
            v = v / float(np.sqrt(np.sum(v * v)))
        lam_hi, lam_lo = nx + ny, max(nx - ny, 0.0)
    phase = cmath.exp(0.5j * theta)
    c_plus = phase * (u + 1j * v) / 2.0
    c_minus = phase * (u - 1j * v) / 2.0
    frame = [
        Element(kind, _k.ambient_to_coords(kind, c_plus)),
        Element(kind, _k.ambient_to_coords(kind, c_minus)),
    ]
    return np.array([lam_hi, lam_lo]), frame


def spectral_decompose(z: Element) -> SpectralDecomposition:
    """Full frame decomposition z = sum lambda_j c_j, r = rank(kind) terms."""
    kind = z.kind
    if isinstance(kind, _k.Product):
        entries: list[tuple[float, np.ndarray]] = []
        offset = 0
        total = _k.ambient_dim(kind)
        for f, piece in zip(kind.factors, _k.split_coords(kind, z.coords)):
            dec = spectral_decompose(Element(f, piece))
            d = _k.ambient_dim(f)
            for lam, c in zip(dec.values, dec.frame):
                padded = np.zeros(total, dtype=np.complex128)
                padded[offset:offset + d] = c.coords
                entries.append((float(lam), padded))
            offset += d
        entries.sort(key=lambda e: -e[0])
        values = np.array([e[0] for e in entries])
        frame = tuple(Element(kind, e[1]) for e in entries)
        return SpectralDecomposition(kind, values, frame)
    if isinstance(kind, _k.TypeI):
        values, frame = _decompose_type_i(kind, z.coords)
    elif isinstance(kind, _k.TypeII):
        values, frame = _decompose_type_ii(kind, z.coords)
    elif isinstance(kind, _k.TypeIII):
        values, frame = _decompose_type_iii(kind, z.coords)
    elif isinstance(kind, _k.TypeIV):
        values, frame = _decompose_type_iv(kind, z.coords)
    else:
        raise ContractError(f"not a kind: {kind!r}")
    order = np.argsort(-np.asarray(values), kind="stable")
    values = np.asarray(values)[order]
    frame = tuple(frame[int(i)] for i in order)
    return SpectralDecomposition(kind, values, frame)


# --------------------------------------------------------------------------
# Derived scalars and maps

def generic_norms(z: Element) -> tuple[float, float]:
    """(N, N*) = (prod(1 - lambda^2), prod(1 + lambda^2)) over the frame values."""
    sq = spectral_values(z) ** 2
    return float(np.prod(1.0 - sq)), float(np.prod(1.0 + sq))


def quasi_inverse(z: Element) -> Element:
    """z^z = (id - z box z)^(-1) z; spectral values at 1 are poles."""
    values = spectral_values(z)
    if values.size and np.min(np.abs(values - 1.0)) <= 1e-12:
        raise SingularityError("quasi-inverse pole: a spectral value equals 1")
    box = box_operator(z).matrix
    n = box.shape[0]
    return Element(z.kind, solve(np.eye(n, dtype=np.complex128) - box, z.coords))


def odd_power(z: Element, j: int) -> Element:
    """z^(2j+1), built by repeated application of Q(z) (z^(1) = z)."""
    if not isinstance(j, int) or isinstance(j, bool) or j < 0:
        raise ContractError(f"power index must be an integer >= 0, got {j!r}")
    out = z
    if j == 0:
        return out
    q = q_operator(z)
    for _ in range(j):
        out = q(out)
    return out
