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
from .jts import Element, _triple_coords, box_operator, in_domain
from .kinds import JTSKind, format_kind
from .linalg import det, frobenius, solve
from .spectral import (
    generic_norms,
    log_generic_norm_minus,
    log_generic_norm_plus,
    log_norm_rows,
    spectral_values,
)
from .duality import psi, psi_rows

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
    sign = -1.0 if pid is PotentialId.HYPERBOLIC else 1.0  # -log N, or log N*
    if sign < 0.0:
        lam1 = spectral_values(z)[0]
        if lam1 >= 1.0 - 10.0 * step:
            raise DomainError(
                f"point too close to the boundary for differencing "
                f"(largest spectral value {lam1:.6f}, step {step:g})"
            )
    values = sign * log_norm_rows(z.kind, points, sign)
    return TwoFormSample(z, _assemble_hessian(values, step, stencil))


def real_jacobian(map_rows: Callable[[JTSKind, np.ndarray], np.ndarray], z: Element,
                  h: float = DEFAULT_FD_STEP) -> RealJacobian:
    """Differential of a row map at z by central differences over all 2N real directions.

    ``map_rows(kind, rows)`` maps every row of a (K, N) coordinate array, as
    ``duality.psi_rows`` does.  The 4N stencil rows z +- step d_a (step h
    scaled by max(1, |z|)) go through it in one call, and the mapped rows
    must be finite.
    """
    n = z.coords.size
    step = h * max(1.0, z.norm())
    dirs = _real_directions(n)
    rows = z.coords + step * np.concatenate([dirs, -dirs])
    mapped = np.asarray(map_rows(z.kind, rows))
    if mapped.shape != rows.shape or not np.isfinite(mapped).all():
        raise ContractError(
            f"row map must return finite coordinates of shape {rows.shape}, "
            f"got shape {mapped.shape}"
        )
    diff = (mapped[:2 * n] - mapped[2 * n:]) / (2.0 * step)  # row a: d map / d x_a
    jac = np.empty((2 * n, 2 * n), dtype=np.float64)
    jac[0::2] = diff.real.T
    jac[1::2] = diff.imag.T
    return RealJacobian(z, jac)


def pullback_eval(omega: TwoFormSample, jac: RealJacobian,
                  u: np.ndarray, v: np.ndarray) -> float:
    """(pullback omega)(u, v) = omega(jac u, jac v)."""
    return omega.evaluate(jac.apply(u), jac.apply(v))


def _unit_tangent(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal(n) + 1.0j * rng.standard_normal(n)
    return w / frobenius(w)


def _pullback_pairs(z: Element, h: float) -> tuple[RealJacobian, list]:
    """The Jacobian of psi at z and the pairs (form at psi(z), native form
    at z) of psi^* omega_dual = omega_flat and psi^* omega_flat = omega_hyp."""
    omega_hyp = kahler_matrix(PotentialId.HYPERBOLIC, z, h)
    omega_flat_here = kahler_matrix(PotentialId.FLAT, z, h)
    image = psi(z)
    pairs = [
        (kahler_matrix(PotentialId.DUAL_FS, image, h), omega_flat_here),
        (kahler_matrix(PotentialId.FLAT, image, h), omega_hyp),
    ]
    return real_jacobian(psi_rows, z, h), pairs


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
    jac, pairs = _pullback_pairs(z, h)
    errs = [0.0] * len(pairs)
    for _ in range(tangent_pairs):
        u = _unit_tangent(rng, n)
        v = _unit_tangent(rng, n)
        for i, (at_image, native) in enumerate(pairs):
            pulled = pullback_eval(at_image, jac, u, v)
            errs[i] = max(errs[i], abs(pulled - native.evaluate(u, v)))
    return errs[0], errs[1]


def check_volume_duality(z: Element, h: float = DEFAULT_FD_STEP) -> float:
    """Compare determinants of the pulled-back and native real form matrices.

    The top exterior powers of two 2-forms agree exactly when the determinants
    of their 2N x 2N real matrices do, so this checks
    det(J^T S_dual J) = det(S_flat) and det(J^T S_flat J) = det(S_hyp),
    returning the worse relative mismatch.
    """
    jac, pairs = _pullback_pairs(z, h)

    def _det(m: np.ndarray) -> float:
        return det(m.astype(np.complex128)).real

    worst = 0.0
    for at_image, native in pairs:
        d_pulled = _det(jac.matrix.T @ at_image.real_matrix() @ jac.matrix)
        d_native = _det(native.real_matrix())
        worst = max(worst, abs(d_pulled - d_native) / max(abs(d_native), np.finfo(np.float64).tiny))
    return worst


def _same_kind_direction(z: Element, direction: Element) -> None:
    if direction.kind != z.kind:
        raise ContractError(
            f"direction lives in {format_kind(direction.kind)}, "
            f"expected {format_kind(z.kind)}"
        )


def _dbar_fd(values, step: float) -> complex:
    """Antiholomorphic directional derivative via the Wirtinger split.

    dbar f (w) = ( d/dt f(z + t w) + i d/dt f(z + i t w) ) / 2 with real t,
    each derivative taken by a central difference of size ``step``; ``values``
    holds f at z + step w, z - step w, z + i step w and z - i step w.
    """
    plus, minus, plus_i, minus_i = values
    along = (plus - minus) / (2.0 * step)
    across = (plus_i - minus_i) / (2.0 * step)
    return 0.5 * (along + 1.0j * across)


def _resolvent(box: np.ndarray, coords: np.ndarray, sign: float, power: int) -> np.ndarray:
    """(id + sign * box)^(-power) coords, by ``power`` solves."""
    shifted = np.eye(box.shape[0], dtype=np.complex128) + sign * box
    out = coords
    for _ in range(power):
        out = solve(shifted, out)
    return out


def _beta(box: np.ndarray, coords: np.ndarray, dbox_w_z: np.ndarray, sign: float) -> complex:
    """beta(w) = m1((id + sign z box z)^(-2) z, (d(z box z))(w) z): the
    hyperbolic beta for sign = -1, its dual mirror for sign = +1."""
    return complex(np.sum(_resolvent(box, coords, sign, 2) * np.conj(dbox_w_z)))


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
    box = box_operator(z).matrix

    c = z.coords
    # (N, N*) at the four stencil points and at z, each point evaluated once
    *stencil, centre = [
        generic_norms(Element(kind, p))
        for p in (c + step * w, c - step * w, c + step * 1.0j * w, c - step * 1.0j * w, c)
    ]
    worst = 0.0
    # sign * m1((id + sign z box z)^(-1) z, w), with N for sign -1, N* for +1
    for which, sign in enumerate((-1.0, 1.0)):
        lhs = _dbar_fd([pair[which] for pair in stencil], step) / centre[which]
        rhs = sign * complex(np.vdot(w, _resolvent(box, c, sign, 1)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _g(t: float, sign: float) -> float:
    """G(t) with t G(t) the antiderivative of u/(1 + sign u)^2 and G(0) = 0:
    the hyperbolic G for sign = -1, its dual mirror for sign = +1."""
    if abs(t) < 0.01:
        # sum_{j>=1} j/(j+1) (-sign t)^(j-1) t; truncation < 1e-16 for |t| < 0.01
        acc = 0.0
        for j in range(8, 0, -1):
            acc = acc * (-sign * t) + j / (j + 1.0)
        return acc * t
    return (math.log1p(sign * t) + 1.0 / (1.0 + sign * t) - 1.0) / t


def _gamma(coords: np.ndarray, kind, sign: float) -> float:
    lam_sq = spectral_values(Element(kind, coords)) ** 2
    return float(sum(_g(t, sign) * t for t in lam_sq))


def _box_apply(kind: JTSKind, c: np.ndarray, k: int, v: np.ndarray) -> np.ndarray:
    """(z box z)^k v at z = c as k applications of v -> {z z v}/2, without building z box z."""
    for _ in range(k):
        v = 0.5 * _triple_coords(kind, c, c, v)
    return v


def _dbox_z(kind: JTSKind, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(d(z box z))(w) z = ({w z z} + {z w z})/2 at z = c, as two triple products."""
    return 0.5 * (_triple_coords(kind, w, c, c) + _triple_coords(kind, c, w, c))


def check_beta_exactness(z: Element, direction: Element,
                         h: float = DEFAULT_FD_STEP) -> float:
    """Verify that beta (and its dual mirror) is the differential of gamma.

    beta(w) = m1((id - z box z)^(-2) z, (d(z box z))(w) z) must equal the real
    finite-difference derivative of gamma(z) = m1(G(z box z) z, z) along w; the
    dual variant swaps the sign of the box operator and uses the mirrored G.
    (d(z box z))(w) z is applied as two triple products.  Both imaginary parts
    must vanish.  Returns the worst residual relative to max(1, |derivative|).
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
    box = box_operator(z).matrix
    dbox_w_z = _dbox_z(kind, z.coords, w)

    residuals = []
    scale = 1.0
    for sign in (-1.0, 1.0):
        beta = _beta(box, z.coords, dbox_w_z, sign)
        fd = (_gamma(z.coords + step * w, kind, sign)
              - _gamma(z.coords - step * w, kind, sign)) / (2.0 * step)
        residuals.append(abs(beta.real - fd))
        residuals.append(abs(beta.imag))
        scale = max(scale, abs(fd))
    return max(residuals) / scale


def check_lemma_a2(z: Element, direction: Element, p: int, k: int,
                   h: float = DEFAULT_FD_STEP) -> float:
    """Trace-derivative identity for monomials of the box operator.

    Compares m1((z box z)^p z, (d (z box z)^k)(w) z), with the inner derivative
    taken by finite differences, against the analytic right-hand side
    m1((z box z)^p z, k (z box z)^(k-1) (d(z box z))(w) z).  Powers of z box z
    are applied as repeated v -> {z z v}/2; no operator is built.
    """
    _same_kind_direction(z, direction)
    for name, value in (("p", p), ("k", k)):
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 3:
            raise ContractError(f"exponent {name} must be an integer in [0, 3], got {value!r}")
    w = direction.coords
    step = h * max(1.0, z.norm())
    kind, c = z.kind, z.coords
    left_slot = _box_apply(kind, c, p, c)

    d_power_z = (_box_apply(kind, c + step * w, k, c)
                 - _box_apply(kind, c - step * w, k, c)) / (2.0 * step)
    lhs = complex(np.sum(left_slot * d_power_z.conj()))

    if k == 0:
        rhs = 0.0 + 0.0j
    else:
        inner = _box_apply(kind, c, k - 1, _dbox_z(kind, c, w))
        rhs = k * complex(np.sum(left_slot * inner.conj()))
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
    forward, backward = psi_rows(kind, np.stack([z.coords + step * w, z.coords - step * w]))
    d_psi_w = (forward - backward) / (2.0 * step)
    lhs = complex(np.vdot(d_psi_w, image.coords))

    box = box_operator(z).matrix
    dbox_w_z = _dbox_z(kind, z.coords, w)
    rhs = (complex(np.vdot(w, _resolvent(box, z.coords, -1.0, 1)))
           + 0.5 * _beta(box, z.coords, dbox_w_z, -1.0))
    return abs(lhs - rhs) / max(1.0, abs(rhs))
