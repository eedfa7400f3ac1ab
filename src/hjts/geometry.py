"""Kähler potentials, numerical two-forms, pullbacks, and identity checks.

Three potentials drive everything here: the hyperbolic one -log N(z) on the
bounded domain, its dual log N*(z) on the ambient space, and the flat one
m1(z,z).  Each yields a (1,1)-form through the mixed complex Hessian, sampled
numerically by central differences and evaluated with the fixed convention

    omega(u, v) = -(1/pi) * Im( sum_jk H_jk u_j conj(v_k) ),

which normalizes the flat form to omega0(e, i e) = 1/pi at the origin.  On
top of that sit the verification routines: the symplectic pullback identities
for psi, their volume-form consequence, the logarithmic-derivative identities
for N and N*, the exactness of the one-form beta, and the trace-derivative
identity for powers of the box operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, DomainError
from .jts import Element, box_operator, d_operator, in_domain, m1_form
from .kinds import format_kind
from .linalg import det, frobenius, solve
from .spectral import (
    generic_norms,
    log_generic_norm_minus,
    log_generic_norm_plus,
    log_norm_rows,
    quasi_inverse,
    spectral_values,
)
from .duality import psi

__all__ = [
    "PotentialId",
    "TwoFormSample",
    "RealJacobian",
    "potential",
    "complex_hessian",
    "kahler_matrix",
    "real_jacobian",
    "pullback_eval",
    "check_symplectic_duality",
    "check_volume_duality",
    "check_lemma_a1",
    "check_beta_exactness",
    "check_lemma_a2",
    "check_flat_dbar_pullback",
]

#: Default relative finite-difference step.  Central differences balance the
#: h^2 truncation term against the eps/h roundoff term near 1e-5 in double
#: precision.
DEFAULT_FD_STEP = 1e-5


class PotentialId(enum.Enum):
    """Selects one of the three Kähler potentials."""

    HYPERBOLIC = "hyperbolic"  # -log N(z), domain only
    DUAL_FS = "dual-fs"        # log N*(z), global
    FLAT = "flat"              # m1(z, z), global

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _real_directions(n: int) -> np.ndarray:
    """The 2n real coordinate directions as the rows of a (2n, n) complex
    matrix, Re/Im interleaved: row 2j is e_j and row 2j+1 is i e_j."""
    dirs = np.zeros((2 * n, n), dtype=np.complex128)
    dirs[0::2] = np.eye(n)
    dirs[1::2] = 1.0j * np.eye(n)
    return dirs


def _to_real(u: np.ndarray) -> np.ndarray:
    out = np.empty(2 * u.size, dtype=np.float64)
    out[0::2] = u.real
    out[1::2] = u.imag
    return out


def _to_complex(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1.0j * x[1::2]


@dataclass(frozen=True)
class TwoFormSample:
    """A (1,1)-form at a point, represented by its mixed Hessian matrix.

    ``hessian[j, k]`` approximates the second derivative of the potential in
    z_j and conj(z_k); it is Hermitian, so the evaluation below is exactly
    antisymmetric and real.
    """

    point: Element
    hessian: np.ndarray
    scale: float = field(default=1.0 / math.pi)

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> float:
        """omega(u, v) for complex tangent vectors u, v at the sample point."""
        pairing = np.dot(np.asarray(u, dtype=np.complex128),
                         self.hessian @ np.conj(np.asarray(v, dtype=np.complex128)))
        return -self.scale * float(pairing.imag)

    def real_matrix(self) -> np.ndarray:
        """The 2N x 2N real antisymmetric matrix of the form (Re/Im interleaved).

        Entry (a, b) is ``evaluate(d_a, d_b)`` over the real directions d; as
        every d has one entry, 1 or i, each entry is one exact product of a
        Hessian entry, bit for bit the value ``evaluate`` gives.
        """
        dirs = _real_directions(self.hessian.shape[0])
        return -self.scale * (dirs @ self.hessian @ dirs.conj().T).imag


@dataclass(frozen=True)
class RealJacobian:
    """Differential of a (not necessarily holomorphic) self-map at a point.

    The matrix acts on real coordinates with Re/Im interleaved; for the
    identity map it is the 2N x 2N identity.
    """

    point: Element
    matrix: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Push a complex tangent vector through the differential."""
        return _to_complex(self.matrix @ _to_real(np.asarray(u, dtype=np.complex128)))


def potential(pid: PotentialId, z: Element) -> float:
    """Evaluate one of the three potentials exactly.

    The two logarithmic norms are taken through their determinant identities
    (log det(id -+ Gram) = sum log(1 -+ lambda^2)), which is both exact and an
    order of magnitude cheaper than an eigendecomposition -- this function is
    the inner loop of every finite-difference Hessian.
    """
    if pid is PotentialId.FLAT:
        return float(np.vdot(z.coords, z.coords).real)
    if pid is PotentialId.HYPERBOLIC:
        return -log_generic_norm_minus(z)
    if pid is PotentialId.DUAL_FS:
        return log_generic_norm_plus(z)
    raise ContractError(f"unknown potential {pid!r}")  # pragma: no cover


class _Stencil(NamedTuple):
    """Central-difference stencil of every mixed second derivative in 2n real directions."""

    offsets: np.ndarray  # (K, n): row 0 is the centre, then the pair rows
    rows: np.ndarray     # (P,) direction index a of each pair a <= b
    cols: np.ndarray     # (P,) direction index b
    taps: np.ndarray     # (4, P): offset rows read at ++, --, +-, -+


@lru_cache(maxsize=None)
def _stencil(n: int) -> _Stencil:
    """The P = n(2n+1) pairs a <= b read f at z +- step (d_a + d_b) and
    z +- step (d_a - d_b).  On the diagonal the difference vanishes, so both
    cross taps read the centre, which is stored once: K = 4P - 4n + 1 rows."""
    dirs = _real_directions(n)
    rows, cols = np.triu_indices(2 * n)
    pairs = rows.size
    off = np.flatnonzero(rows != cols)
    plus = dirs[rows] + dirs[cols]
    minus = dirs[rows[off]] - dirs[cols[off]]
    offsets = np.concatenate([np.zeros((1, n), dtype=np.complex128),
                              plus, -plus, minus, -minus])
    taps = np.zeros((4, pairs), dtype=np.intp)
    taps[0] = 1 + np.arange(pairs)
    taps[1] = 1 + pairs + np.arange(pairs)
    taps[2, off] = 1 + 2 * pairs + np.arange(off.size)
    taps[3, off] = 1 + 2 * pairs + off.size + np.arange(off.size)
    for arr in (offsets, rows, cols, taps):
        arr.setflags(write=False)
    return _Stencil(offsets, rows, cols, taps)


def _check_step(h: float) -> None:
    if not (1e-7 <= h <= 1e-2):
        raise ContractError(f"finite-difference step {h:g} outside [1e-7, 1e-2]")


def _stencil_points(z: Element, h: float) -> tuple[np.ndarray, float, _Stencil]:
    """The (K, N) coordinate rows of the stencil at z, with step h * max(1, |z|)."""
    step = h * max(1.0, z.norm())
    stencil = _stencil(z.coords.size)
    return z.coords + step * stencil.offsets, step, stencil


def _assemble_hessian(values: np.ndarray, step: float, stencil: _Stencil) -> np.ndarray:
    """Mixed complex Hessian from f at the stencil rows.

    Builds the real second-difference table S over the 2N directions and
    assembles H_jk = (S_xx + S_yy + i (S_xy - S_yx)) / 4, Hermitian whenever f
    is real-valued, then symmetrizes it.
    """
    f_pp, f_mm, f_pm, f_mp = values[stencil.taps]
    two_n = 2 * stencil.offsets.shape[1]
    s = np.empty((two_n, two_n), dtype=np.float64)
    s[stencil.rows, stencil.cols] = s[stencil.cols, stencil.rows] = \
        (f_pp - f_pm - f_mp + f_mm) / (4.0 * step * step)
    hess = 0.25 * (s[0::2, 0::2] + s[1::2, 1::2]
                   + 1.0j * (s[0::2, 1::2] - s[1::2, 0::2]))
    return 0.5 * (hess + hess.conj().T)


def complex_hessian(fn: Callable[[Element], float], z: Element,
                    h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Mixed complex Hessian H_jk = d^2 fn / dz_j dzbar_k by central differences.

    Evaluates fn once per stencil row (step h scaled by max(1, |z|)); see
    ``_assemble_hessian`` for how the second differences combine.
    """
    _check_step(h)
    points, step, stencil = _stencil_points(z, h)
    values = np.array([fn(Element(z.kind, p)) for p in points], dtype=np.float64)
    return _assemble_hessian(values, step, stencil)


def kahler_matrix(pid: PotentialId, z: Element, h: float = DEFAULT_FD_STEP) -> TwoFormSample:
    """Sample the (1,1)-form of a potential at a point.

    The flat form is returned exactly (identity Hessian in the orthonormal
    coordinates); the other two are measured by finite differences, which for
    the hyperbolic potential requires an interior margin of ten steps to the
    boundary.  The whole stencil is evaluated in one batched log-norm call;
    it yields the same bytes as ``complex_hessian`` over ``potential``.
    """
    n = z.coords.size
    if pid is PotentialId.FLAT:
        return TwoFormSample(z, np.eye(n, dtype=np.complex128))
    _check_step(h)
    points, step, stencil = _stencil_points(z, h)
    if pid is PotentialId.HYPERBOLIC:
        lam1 = spectral_values(z)[0]
        if lam1 >= 1.0 - 10.0 * step:
            raise DomainError(
                f"point too close to the boundary for differencing "
                f"(largest spectral value {lam1:.6f}, step {step:g})"
            )
        values = -log_norm_rows(z.kind, points, -1.0)
    else:
        values = log_norm_rows(z.kind, points, 1.0)
    return TwoFormSample(z, _assemble_hessian(values, step, stencil))


def real_jacobian(map_fn: Callable[[Element], Element], z: Element,
                  h: float = DEFAULT_FD_STEP) -> RealJacobian:
    """Differential of ``map_fn`` at z by central differences over all 2N real directions."""
    n = z.coords.size
    step = h * max(1.0, z.norm())
    jac = np.empty((2 * n, 2 * n), dtype=np.float64)
    for col, d in enumerate(_real_directions(n)):
        forward = map_fn(Element(z.kind, z.coords + step * d)).coords
        backward = map_fn(Element(z.kind, z.coords - step * d)).coords
        jac[:, col] = _to_real((forward - backward) / (2.0 * step))
    return RealJacobian(z, jac)


def pullback_eval(omega: TwoFormSample, jac: RealJacobian,
                  u: np.ndarray, v: np.ndarray) -> float:
    """(pullback omega)(u, v) = omega(jac u, jac v)."""
    return omega.evaluate(jac.apply(u), jac.apply(v))


def _unit_tangent(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal(n) + 1.0j * rng.standard_normal(n)
    return w / frobenius(w)


def check_symplectic_duality(z: Element, *, tangent_pairs: int = 8,
                             h: float = DEFAULT_FD_STEP,
                             rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Verify both pullback identities of the duality map at a point.

    Returns ``(err1, err2)`` where ``err1`` is the worst
    |(psi^* omega_dual)(u,v) - omega_flat(u,v)| and ``err2`` the worst
    |(psi^* omega_flat)(u,v) - omega_hyp(u,v)| over a batch of random tangent
    pairs at z.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    n = z.coords.size
    omega_hyp = kahler_matrix(PotentialId.HYPERBOLIC, z, h)
    omega_flat_here = kahler_matrix(PotentialId.FLAT, z, h)
    image = psi(z)
    omega_flat_image = kahler_matrix(PotentialId.FLAT, image, h)
    omega_dual_image = kahler_matrix(PotentialId.DUAL_FS, image, h)
    jac = real_jacobian(psi, z, h)
    err1 = 0.0
    err2 = 0.0
    for _ in range(tangent_pairs):
        u = _unit_tangent(rng, n)
        v = _unit_tangent(rng, n)
        pulled_dual = pullback_eval(omega_dual_image, jac, u, v)
        err1 = max(err1, abs(pulled_dual - omega_flat_here.evaluate(u, v)))
        pulled_flat = pullback_eval(omega_flat_image, jac, u, v)
        err2 = max(err2, abs(pulled_flat - omega_hyp.evaluate(u, v)))
    return err1, err2


def check_volume_duality(z: Element, h: float = DEFAULT_FD_STEP) -> float:
    """Compare determinants of the pulled-back and native real form matrices.

    The top exterior powers of two 2-forms agree exactly when the determinants
    of their 2N x 2N real matrices do, so this checks
    det(J^T S_flat J) = det(S_hyp) and det(J^T S_dual J) = det(S_flat),
    returning the worse relative mismatch.
    """
    image = psi(z)
    jac = real_jacobian(psi, z, h).matrix
    s_hyp = kahler_matrix(PotentialId.HYPERBOLIC, z, h).real_matrix()
    s_flat_here = kahler_matrix(PotentialId.FLAT, z, h).real_matrix()
    s_flat_image = kahler_matrix(PotentialId.FLAT, image, h).real_matrix()
    s_dual_image = kahler_matrix(PotentialId.DUAL_FS, image, h).real_matrix()

    def _det(m: np.ndarray) -> float:
        return det(m.astype(np.complex128)).real

    pairs = [
        (jac.T @ s_flat_image @ jac, s_hyp),
        (jac.T @ s_dual_image @ jac, s_flat_here),
    ]
    worst = 0.0
    for pulled, native in pairs:
        d_pulled = _det(pulled)
        d_native = _det(native)
        worst = max(worst, abs(d_pulled - d_native) / max(abs(d_native), np.finfo(np.float64).tiny))
    return worst


def _same_kind_direction(z: Element, direction: Element) -> None:
    if direction.kind != z.kind:
        raise ContractError(
            f"direction lives in {format_kind(direction.kind)}, "
            f"expected {format_kind(z.kind)}"
        )


def _dbar_fd(fn: Callable[[np.ndarray], float], z: Element, w: np.ndarray,
             step: float) -> complex:
    """Antiholomorphic directional derivative via the Wirtinger split.

    dbar f (w) = ( d/dt f(z + t w) + i d/dt f(z + i t w) ) / 2 with real t,
    each derivative taken by a central difference of size ``step``.
    """
    along = (fn(z.coords + step * w) - fn(z.coords - step * w)) / (2.0 * step)
    across = (fn(z.coords + step * 1.0j * w) - fn(z.coords - step * 1.0j * w)) / (2.0 * step)
    return 0.5 * (along + 1.0j * across)


def check_lemma_a1(z: Element, direction: Element, h: float = DEFAULT_FD_STEP) -> float:
    """Logarithmic antiholomorphic derivatives of the two generic norms.

    Checks dbar N / N = -m1(quasi-inverse of z, w) and
    dbar N* / N* = +m1((id + z box z)^(-1) z, w) against finite differences,
    returning the worse residual relative to max(1, |analytic value|).
    """
    _same_kind_direction(z, direction)
    if not in_domain(z):
        raise DomainError("logarithmic derivative of N needs an interior point")
    w = direction.coords
    step = h * max(1.0, z.norm())
    kind = z.kind

    def norm_minus(c: np.ndarray) -> float:
        return generic_norms(Element(kind, c))[0]

    def norm_plus(c: np.ndarray) -> float:
        return generic_norms(Element(kind, c))[1]

    lhs_minus = _dbar_fd(norm_minus, z, w, step) / norm_minus(z.coords)
    rhs_minus = -m1_form(quasi_inverse(z), direction)
    worst = abs(lhs_minus - rhs_minus) / max(1.0, abs(rhs_minus))

    n = z.coords.size
    expanded = np.eye(n, dtype=np.complex128) + box_operator(z).matrix
    dual_inverse = Element(kind, solve(expanded, z.coords))
    lhs_plus = _dbar_fd(norm_plus, z, w, step) / norm_plus(z.coords)
    rhs_plus = m1_form(dual_inverse, direction)
    return max(worst, abs(lhs_plus - rhs_plus) / max(1.0, abs(rhs_plus)))


def _g_hyper(t: float) -> float:
    """G(t) with t G(t) the antiderivative of u/(1-u)^2; G(0) = 0."""
    if abs(t) < 0.01:
        # series sum_{j>=1} j/(j+1) t^j; truncation below 1e-16 for |t| < 0.01
        acc = 0.0
        for j in range(8, 0, -1):
            acc = acc * t + j / (j + 1.0)
        return acc * t
    return (1.0 / (1.0 - t) + math.log1p(-t) - 1.0) / t


def _g_dual(t: float) -> float:
    """The mirror of _g_hyper built from u/(1+u)^2."""
    if abs(t) < 0.01:
        acc = 0.0
        for j in range(8, 0, -1):
            acc = acc * (-t) + j / (j + 1.0)
        return acc * t
    return (math.log1p(t) + 1.0 / (1.0 + t) - 1.0) / t


def _gamma(coords: np.ndarray, kind, g_fn: Callable[[float], float]) -> float:
    lam_sq = spectral_values(Element(kind, coords)) ** 2
    return float(sum(g_fn(t) * t for t in lam_sq))


def _dbox_operator(z: Element, direction: Element) -> np.ndarray:
    """Real-linear derivative of z -> z box z in the given direction."""
    return 0.5 * (d_operator(direction, z).matrix + d_operator(z, direction).matrix)


def check_beta_exactness(z: Element, direction: Element,
                         h: float = DEFAULT_FD_STEP) -> float:
    """Verify that beta (and its dual mirror) is the differential of gamma.

    beta(w) = m1((id - z box z)^(-2) z, (d(z box z))(w) z) must equal the real
    finite-difference derivative of gamma(z) = m1(G(z box z) z, z) along w; the
    dual variant swaps the sign of the box operator and uses the mirrored G.
    Both imaginary parts must vanish.  Returns the worst residual relative to
    max(1, |derivative|).
    """
    _same_kind_direction(z, direction)
    lam1 = spectral_values(z)[0]
    if lam1 >= 0.99:
        raise DomainError(
            f"beta exactness check needs largest spectral value < 0.99 (got {lam1:.6f})"
        )
    w = direction.coords
    step = h * max(1.0, z.norm())
    kind = z.kind
    n = z.coords.size
    eye = np.eye(n, dtype=np.complex128)
    box = box_operator(z).matrix
    dbox_w_z = _dbox_operator(z, direction) @ z.coords

    residuals = []
    scale = 1.0
    for sign, g_fn in ((-1.0, _g_hyper), (+1.0, _g_dual)):
        shifted = eye + sign * box
        resolvent_sq = solve(shifted, solve(shifted, z.coords))
        beta = complex(np.sum(resolvent_sq * np.conj(dbox_w_z)))
        fd = (_gamma(z.coords + step * w, kind, g_fn)
              - _gamma(z.coords - step * w, kind, g_fn)) / (2.0 * step)
        residuals.append(abs(beta.real - fd))
        residuals.append(abs(beta.imag))
        scale = max(scale, abs(fd))
    return max(residuals) / scale


def _matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.complex128)
    for _ in range(k):
        out = out @ m
    return out


def check_lemma_a2(z: Element, direction: Element, p: int, k: int,
                   h: float = DEFAULT_FD_STEP) -> float:
    """Trace-derivative identity for monomials of the box operator.

    Compares m1((z box z)^p z, (d (z box z)^k)(w) z), with the inner derivative
    taken by finite differences, against the analytic right-hand side
    m1((z box z)^p z, k (z box z)^(k-1) (d(z box z))(w) z).
    """
    _same_kind_direction(z, direction)
    for name, value in (("p", p), ("k", k)):
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 3:
            raise ContractError(f"exponent {name} must be an integer in [0, 3], got {value!r}")
    w = direction.coords
    step = h * max(1.0, z.norm())
    kind = z.kind
    box = box_operator(z).matrix
    left_slot = _matrix_power(box, p) @ z.coords

    forward = _matrix_power(box_operator(Element(kind, z.coords + step * w)).matrix, k)
    backward = _matrix_power(box_operator(Element(kind, z.coords - step * w)).matrix, k)
    d_power_z = ((forward - backward) / (2.0 * step)) @ z.coords
    lhs = complex(np.sum(left_slot * d_power_z.conj()))

    if k == 0:
        rhs = 0.0 + 0.0j
    else:
        dbox_w_z = _dbox_operator(z, direction) @ z.coords
        rhs = k * complex(np.sum(left_slot * (_matrix_power(box, k - 1) @ dbox_w_z).conj()))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def check_flat_dbar_pullback(z: Element, direction: Element,
                             h: float = DEFAULT_FD_STEP) -> float:
    """Pullback of the antiholomorphic differential of the flat potential.

    The pulled-back (0,1)-part of d m1(u,u) under psi, evaluated on w by
    finite-differencing psi itself, must equal
    m1(quasi-inverse of z, w) + beta(w)/2.  A second-order-on-first-order
    composite, so callers should allow a looser tolerance (~1e-4).
    """
    _same_kind_direction(z, direction)
    if not in_domain(z):
        raise DomainError("flat pullback check needs an interior point")
    w = direction.coords
    step = h * max(1.0, z.norm())
    kind = z.kind
    image = psi(z)
    d_psi_w = (psi(Element(kind, z.coords + step * w)).coords
               - psi(Element(kind, z.coords - step * w)).coords) / (2.0 * step)
    lhs = complex(np.vdot(d_psi_w, image.coords))

    n = z.coords.size
    eye = np.eye(n, dtype=np.complex128)
    contraction = eye - box_operator(z).matrix
    resolvent_sq = solve(contraction, solve(contraction, z.coords))
    dbox_w_z = _dbox_operator(z, direction) @ z.coords
    beta = complex(np.sum(resolvent_sq * np.conj(dbox_w_z)))
    rhs = m1_form(quasi_inverse(z), direction) + 0.5 * beta
    return abs(lhs - rhs) / max(1.0, abs(rhs))
