"""Kähler potentials and forms, pullbacks, and the identity checks.

Three potentials drive everything here: the hyperbolic one -log N(z) on the
bounded domain, its dual log N*(z) on the ambient space, and the flat one
m1(z,z).  Each yields a (1,1)-form through its mixed complex Hessian H,
evaluated with the fixed convention

    omega(u, v) = -(1/pi) * Im( sum_jk H_jk u_j conj(v_k) ),

which normalizes the flat form to omega0(e, i e) = 1/pi at the origin.
``kahler_matrix`` takes the forms in closed form, from ``spectral``'s
per-family blocks; ``complex_hessian``, their oracle, differences
``potential`` over every pair of real directions in one plain loop.  Every
interior-point refusal here is ``spectral._require_interior``.  The checks:
the symplectic pullback identities for psi and their volume-form
consequence (psi's differential ``duality._psi_differential_rows``); the
log-derivative identities for N and N* and the exactness of beta (both by
``spectral._trace_differentials``); the trace-derivative identity for
(z box z)^2; and the flat (0,1)-pullback.  No check takes a step; the two
oracles that do, ``complex_hessian`` and ``real_jacobian``, take
h * max(1, |z|), h in [1e-7, 1e-2], from ``_fd_step``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import enum
import itertools
from typing import Callable

import numpy as np

from .errors import ContractError, as_real
from .jts import Element, _box_apply, _same_kind, _triple_coords
from .kinds import JTSKind, simple_factors, split_coords
from .linalg import det, worst_of
from .spectral import (_box_power_rows, _form_hessian_simple, _require_interior,
                       _trace_differentials, log_generic_norm_minus, log_generic_norm_plus)
from .duality import _psi_differential_rows

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

_TANGENT_PAIRS = 8  # random unit tangent pairs per symplectic check
#: The 1/pi of the form convention omega = -(1/pi) Im(u^T H conj(v)).
_FORM_SCALE = 1.0 / math.pi


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
    """Real coordinates of the last axis, Re/Im interleaved."""
    out = np.empty(u.shape[:-1] + (2 * u.shape[-1],), dtype=np.float64)
    out[..., 0::2] = u.real
    out[..., 1::2] = u.imag
    return out


def _to_complex(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1.0j * x[1::2]


def _real_jacobian_matrix(diff: np.ndarray) -> np.ndarray:
    """The 2N x 2N real Jacobian from a map's (2N, N) derivatives along the
    real directions of ``_real_directions`` (column a is direction a's)."""
    jac = np.empty((diff.shape[0], diff.shape[0]), dtype=np.float64)
    jac[0::2] = diff.real.T
    jac[1::2] = diff.imag.T
    return jac


@dataclass(frozen=True)
class TwoFormSample:
    """A (1,1)-form at a point, represented by its mixed Hessian matrix.

    ``hessian[j, k]`` approximates the second derivative of the potential in
    z_j and conj(z_k); it is Hermitian, so the evaluation below is exactly
    antisymmetric and real.
    """

    hessian: np.ndarray

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> float:
        """omega(u, v) for complex tangent vectors u, v at the sample point."""
        pairing = np.dot(np.asarray(u, dtype=np.complex128),
                         self.hessian @ np.conj(np.asarray(v, dtype=np.complex128)))
        return -_FORM_SCALE * float(pairing.imag)

    def real_matrix(self) -> np.ndarray:
        """The 2N x 2N real antisymmetric matrix of the form (Re/Im interleaved).

        Entry (a, b) is ``evaluate(d_a, d_b)`` over the real directions d; as
        every d has one entry, 1 or i, each entry is one exact product of a
        Hessian entry, bit for bit the value ``evaluate`` gives.
        """
        dirs = _real_directions(self.hessian.shape[0])
        return -_FORM_SCALE * (dirs @ self.hessian @ dirs.conj().T).imag


@dataclass(frozen=True)
class RealJacobian:
    """Differential of a (not necessarily holomorphic) self-map at a point.

    The matrix acts on real coordinates with Re/Im interleaved; for the
    identity map it is the 2N x 2N identity.
    """

    matrix: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Push a complex tangent vector through the differential."""
        return _to_complex(self.matrix @ _to_real(np.asarray(u, dtype=np.complex128)))


def potential(pid: PotentialId, z: Element) -> float:
    """Evaluate one of the three potentials exactly: the inner loop of the
    oracle ``complex_hessian``, the logarithmic norms by ``log_norm_rows``."""
    if pid is PotentialId.FLAT:
        return float(np.vdot(z.coords, z.coords).real)
    if pid is PotentialId.HYPERBOLIC:
        return -log_generic_norm_minus(z)
    if pid is PotentialId.DUAL_FS:
        return log_generic_norm_plus(z)
    raise ContractError(f"unknown potential {pid!r}")  # pragma: no cover


def _fd_step(norm: float, h: float) -> float:
    """The step h * max(1, norm) at a point of that norm, for a real h in
    [1e-7, 1e-2] (below, roundoff swamps a difference; above, truncation does),
    as a builtin float: a float32 h is used as a float64."""
    return as_real(h, "fd_step {!r} lies outside [1e-7, 1e-2], the steps the "
                   "finite-difference drivers accept", 1e-7, 1e-2) * max(1.0, norm)


def complex_hessian(fn: Callable[[Element], float], z: Element,
                    h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Mixed complex Hessian H_jk = d^2 fn / dz_j dzbar_k by central differences.

    For each pair a <= b of the 2N real directions d, fn is read at
    z +- step (d_a + d_b) and z +- step (d_a - d_b) (step h scaled by
    max(1, |z|)), 4 N (2N + 1) reads, giving the real second difference
    S_ab = S_ba.  H_jk = (S_xx + S_yy + i (S_xy - S_yx)) / 4 is Hermitian
    whenever fn is real-valued, and is symmetrized.
    """
    step = _fd_step(z.norm(), h)
    dirs = _real_directions(z.coords.size)

    def at(offset: np.ndarray) -> float:
        return float(fn(Element(z.kind, z.coords + step * offset)))

    s = np.empty((len(dirs), len(dirs)), dtype=np.float64)
    for a, b in itertools.combinations_with_replacement(range(len(dirs)), 2):
        plus, minus = dirs[a] + dirs[b], dirs[a] - dirs[b]
        s[a, b] = s[b, a] = ((at(plus) - at(minus) - at(-minus) + at(-plus))
                             / (4.0 * step * step))
    hess = 0.25 * (s[0::2, 0::2] + s[1::2, 1::2]
                   + 1.0j * (s[0::2, 1::2] - s[1::2, 0::2]))
    return 0.5 * (hess + hess.conj().T)


def _form_hessians(kind: JTSKind, coords: np.ndarray, signs) -> np.ndarray:
    """Exact mixed Hessians of sign * log prod(1 + sign * lambda_j^2) at the rows
    of a (R, N) coordinate array, one sign per row: the hyperbolic form
    (B(z, z)^-1)^T for sign -1, the dual one (B(w, -w)^-1)^T for sign +1, as
    (R, N, N), block-diagonal over the simple factors (``spectral._form_hessian_simple``).
    A row's Hessian does not depend on the rows around it.  Domain checks are the callers'.
    """
    sign = np.array(signs, dtype=np.float64)[:, None, None]
    n = coords.shape[1]
    hess = np.zeros((len(coords), n, n), dtype=np.complex128)
    at = 0
    for f, c in zip(simple_factors(kind), split_coords(kind, coords)):
        hess[:, at:at + c.shape[1], at:at + c.shape[1]] = _form_hessian_simple(f, c, sign)
        at += c.shape[1]
    return 0.5 * (hess + np.conj(hess).swapaxes(1, 2))


def kahler_matrix(pid: PotentialId, z: Element) -> TwoFormSample:
    """The (1,1)-form of a potential at a point, exactly.

    The flat form is the identity Hessian in the orthonormal coordinates; the
    hyperbolic and dual ones are their Bergman metrics (``_form_hessians``).
    The hyperbolic form needs a point inside the domain (DomainError on or
    outside the boundary).  ``complex_hessian`` over ``potential`` measures
    the same forms by finite differences.
    """
    if pid is PotentialId.FLAT:
        return TwoFormSample(np.eye(z.coords.size, dtype=np.complex128))
    sign = -1.0 if pid is PotentialId.HYPERBOLIC else 1.0  # -log N, or log N*
    if sign < 0.0:
        _require_interior(z.kind, z.coords[None, :], "the hyperbolic form")
    return TwoFormSample(_form_hessians(z.kind, z.coords[None, :], (sign,))[0])


def real_jacobian(map_rows: Callable[[JTSKind, np.ndarray], np.ndarray], z: Element,
                  h: float = DEFAULT_FD_STEP) -> RealJacobian:
    """Differential of a row map at z by central differences over all 2N real directions.

    ``map_rows(kind, rows)`` maps every row of a (K, N) coordinate array, as
    ``duality.psi_rows`` does.  The 4N stencil rows z +- step d_a (step h
    scaled by max(1, |z|)) go through it in one call, and the mapped rows
    must be finite.
    """
    step = _fd_step(z.norm(), h)
    dirs = _real_directions(z.coords.size)
    rows = z.coords + step * np.concatenate([dirs, -dirs])
    mapped = np.asarray(map_rows(z.kind, rows))
    if mapped.shape != rows.shape or not np.isfinite(mapped).all():
        raise ContractError(f"row map must return finite coordinates of shape "
                            f"{rows.shape}, got shape {mapped.shape}")
    diff = (mapped[:len(dirs)] - mapped[len(dirs):]) / (2.0 * step)  # row a: d map / d x_a
    return RealJacobian(_real_jacobian_matrix(diff))


def pullback_eval(omega: TwoFormSample, jac: RealJacobian,
                  u: np.ndarray, v: np.ndarray) -> float:
    """(pullback omega)(u, v) = omega(jac u, jac v)."""
    return omega.evaluate(jac.apply(u), jac.apply(v))


def _pullback_pairs(z: Element) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pulled back, native) real 2N x 2N form matrices (``real_matrix``) of
    psi^* omega_dual = omega_flat and psi^* omega_flat = omega_hyp: with J the
    real Jacobian of psi at z, (J^T S_dual(psi(z)) J, S_flat) and
    (J^T S_flat J, S_hyp(z)).  S_flat is the same at z and at psi(z).

    psi(z) and J come exactly from one ``_psi_differential_rows`` call along
    the 2N real directions (which refuses a z outside the domain).  The
    hyperbolic form at z and the dual one at psi(z) are one ``_form_hessians``
    call, bit for bit the forms ``kahler_matrix`` returns.
    """
    flat = kahler_matrix(PotentialId.FLAT, z).real_matrix()
    [image], [diff] = _psi_differential_rows(z.kind, z.coords[None, :],
                                             _real_directions(z.coords.size))
    jac = _real_jacobian_matrix(diff)
    hyp, dual = (TwoFormSample(m).real_matrix()
                 for m in _form_hessians(z.kind, np.stack([z.coords, image]), (-1.0, 1.0)))
    return [(jac.T @ dual @ jac, flat), (jac.T @ flat @ jac, hyp)]


def check_symplectic_duality(z: Element, *,
                             rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Verify both pullback identities of the duality map at a point.

    Returns ``(err1, err2)`` where ``err1`` is the worst
    |(psi^* omega_dual)(u,v) - omega_flat(u,v)| and ``err2`` the worst
    |(psi^* omega_flat)(u,v) - omega_hyp(u,v)| over ``_TANGENT_PAIRS`` random
    unit tangent pairs at z (u then v per pair), each as max |x_u^T (P - S) x_v|
    on a pair (P, S) of ``_pullback_pairs``, x being a vector's real coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    n = z.coords.size
    pairs = _pullback_pairs(z)
    draws = rng.standard_normal((2 * _TANGENT_PAIRS, 2, n))  # per tangent: n real, n imaginary
    tangents = draws[:, 0] + 1.0j * draws[:, 1]
    x = _to_real(tangents / np.sqrt(np.sum(np.abs(tangents) ** 2, axis=1))[:, None])
    err1, err2 = (float(np.max(np.abs(np.sum((x[0::2] @ (p - s)) * x[1::2], axis=1)), initial=0.0))
                  for p, s in pairs)
    return err1, err2


def check_volume_duality(z: Element) -> float:
    """Compare determinants of the pulled-back and native real form matrices.

    The top exterior powers of two 2-forms agree exactly when the determinants
    of their 2N x 2N real matrices do, so this checks
    det(J^T S_dual J) = det(S_flat) and det(J^T S_flat J) = det(S_hyp) on the
    pairs of ``_pullback_pairs``, returning the worse relative mismatch.  The
    four determinants are one ``det`` call on the (4, 2N, 2N) stack.
    """
    dets = det(np.stack([m for pair in _pullback_pairs(z) for m in pair])).real.tolist()
    return worst_of(abs(d_pulled - d_native) / max(abs(d_native), np.finfo(np.float64).tiny)
                    for d_pulled, d_native in zip(dets[0::2], dets[1::2]))


def _beta(kind: JTSKind, coords: np.ndarray, dbox_w_z: np.ndarray, sign: float) -> complex:
    """beta(w) = m1((id + sign z box z)^(-2) z, (d(z box z))(w) z): the
    hyperbolic beta for sign = -1, its dual mirror for sign = +1."""
    resolved = _box_power_rows(kind, coords[None, :], sign, -2)[0]
    return complex(np.sum(resolved * np.conj(dbox_w_z)))


def _dbox(kind: JTSKind, c: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(d(z box z))(w) v = ({w z v} + {z w v})/2 at z = c, as two triple products."""
    return 0.5 * (_triple_coords(kind, w, c, v) + _triple_coords(kind, c, w, v))


def check_lemma_a1(z: Element, direction: Element) -> float:
    """Logarithmic antiholomorphic derivatives of the two generic norms.

    Checks dbar N / N = -m1(quasi-inverse of z, w) and
    dbar N* / N* = +m1((id + z box z)^(-1) z, w), returning the worse residual
    relative to max(1, |analytic value|).  The left-hand sides are the Wirtinger
    split dbar f (w) = (d/dt f(z + t w) + i d/dt f(z + i t w)) / 2 of log N and
    log N*, both directions from one ``_trace_differentials`` call.
    """
    _same_kind(z.kind, direction.kind)
    _require_interior(z.kind, z.coords[None, :], "the logarithmic derivative of N")
    w = direction.coords
    kind, c = z.kind, z.coords
    # d log(N, N*)/dt along w and i w, as Python floats
    along, across = _trace_differentials(kind, c, np.stack([w, 1.0j * w]))[:, 0].tolist()
    residuals = []
    # sign * m1((id + sign z box z)^(-1) z, w), with N for sign -1, N* for +1
    for which, sign in enumerate((-1.0, 1.0)):
        lhs = 0.5 * (along[which] + 1.0j * across[which])
        rhs = sign * complex(np.vdot(w, _box_power_rows(kind, c[None, :], sign, -1)[0]))
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst_of(residuals)


def check_beta_exactness(z: Element, direction: Element) -> float:
    """Verify that beta (and its dual mirror) is the differential of gamma.

    beta(w) = m1((id - z box z)^(-2) z, (d(z box z))(w) z) must equal the
    derivative along w of gamma(z) = m1(G(z box z) z, z), which
    ``_trace_differentials`` reads exactly; the dual variant swaps the sign of
    the box operator and mirrors G.  Both imaginary parts must vanish.  Returns
    the worst residual relative to max(1, |derivative|); gamma, and so the
    check, needs an interior point.
    """
    _same_kind(z.kind, direction.kind)
    _require_interior(z.kind, z.coords[None, :], "the exactness of beta")
    w = direction.coords
    kind, c = z.kind, z.coords
    dbox_w_z = _dbox(kind, c, w, c)
    [derivative] = _trace_differentials(kind, c, w[None, :])[:, 1].tolist()
    residuals = []
    scale = 1.0
    for sign, exact in zip((-1.0, 1.0), derivative):
        beta = _beta(kind, c, dbox_w_z, sign)
        residuals.append(abs(beta.real - exact))
        residuals.append(abs(beta.imag))
        scale = max(scale, abs(exact))
    return worst_of(residuals) / scale


def check_lemma_a2(z: Element, direction: Element) -> float:
    """Trace-derivative identity for the square of the box operator, worst over p in {0, 1, 2}.

    Compares m1((z box z)^p z, (d (z box z)^2)(w) z), by the product rule
    d(z box z)(w) (z box z) z + (z box z) d(z box z)(w) z, against
    m1((z box z)^p z, 2 (z box z) (d(z box z))(w) z), relative to max(1, |rhs|);
    for (z box z)^1 the product rule is the right-hand side itself, and for
    (z box z)^0 both sides are 0.  Powers of z box z go through ``jts._box_apply``.
    """
    _same_kind(z.kind, direction.kind)
    w = direction.coords
    kind, c = z.kind, z.coords
    slot1 = _box_apply(kind, c, 1, c)
    inner = _box_apply(kind, c, 1, _dbox(kind, c, w, c))  # (z box z) (d(z box z))(w) z
    d_square = _dbox(kind, c, w, slot1) + inner  # (d (z box z)^2)(w) z
    residuals = []
    for slot in (c, slot1, _box_apply(kind, c, 1, slot1)):  # (z box z)^p z for p = 0, 1, 2
        lhs = complex(np.sum(slot * d_square.conj()))
        rhs = 2.0 * complex(np.sum(slot * inner.conj()))
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst_of(residuals)


def check_flat_dbar_pullback(z: Element, direction: Element) -> float:
    """Pullback of the antiholomorphic differential of the flat potential.

    The pulled-back (0,1)-part of d m1(u,u) under psi, evaluated on w through
    the exact differential of psi (``_psi_differential_rows``), must equal
    m1(quasi-inverse of z, w) + beta(w)/2.  Returns the residual relative to
    max(1, |right-hand side|); the differential refuses a z outside the domain.
    """
    _same_kind(z.kind, direction.kind)
    w = direction.coords
    kind = z.kind
    [image], [[d_psi_w]] = _psi_differential_rows(kind, z.coords[None, :], w[None, :])
    lhs = complex(np.vdot(d_psi_w, image))

    dbox_w_z = _dbox(kind, z.coords, w, z.coords)
    rhs = (complex(np.vdot(w, _box_power_rows(kind, z.coords[None, :], -1.0, -1)[0]))
           + 0.5 * _beta(kind, z.coords, dbox_w_z, -1.0))
    return abs(lhs - rhs) / max(1.0, abs(rhs))
