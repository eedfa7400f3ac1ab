"""The symplectic duality map between a bounded domain and its flat ambient space.

``psi`` maps a domain point z to B(z,z)^(-1/4) z in the ambient space and
``psi_inverse`` maps back via B(u,-u)^(-1/4) u.  Each direction can be
evaluated along three independent routes (Bergman power, box power,
spectral resolution); they agree to high accuracy on valid inputs, and the
``*_route_spread`` helpers turn any disagreement beyond 1e-7 into a hard
internal-consistency failure.

The default route, BOX_HALF, is (id -+ z box z)^(-1/2) z, evaluated by
:func:`psi_rows` on every row of a (K, N) coordinate array through
``spectral._box_power_rows``, which works on the p x p Gram side (a closed
form for the spin factor) and builds no N x N operator.

``psi`` and ``psi_inverse`` on BOX_HALF are the K = 1 case of ``psi_rows``.
"""
from __future__ import annotations

import enum
import itertools

import numpy as np

from .errors import ConsistencyError, ContractError, DomainError
from .jts import (Element, _same_kind, bergman_operator, embed, in_domain, isotropy_action,
                  restrict)
from .kinds import (JTSKind, TypeIV, ambient_to_coords, coords_to_ambient, coords_to_matrix,
                    format_kind, join_coords, matrix_to_coords, simple_factors, split_coords)
from .linalg import _eig_power, frobenius, hermitian_power, worst_of
from .spectral import (_box_power_rows, _box_power_simple, _gram, _rows, log_norm_rows,
                       spectral_decompose)

__all__ = [
    "DualityRoute",
    "psi",
    "psi_inverse",
    "psi_rows",
    "psi_route_spread",
    "psi_inverse_route_spread",
    "check_equivariance",
    "check_hereditary",
]

#: Relative spread between routes above which the implementation is considered
#: internally inconsistent (an order of magnitude of slack over the 1e-9 the
#: routes are expected to achieve).
ROUTE_AGREEMENT_LIMIT = 1e-7


class DualityRoute(enum.Enum):
    """Computation route for :func:`psi` / :func:`psi_inverse`.

    BERGMAN_QUARTER   B(z,z)^(-1/4) z          (the defining formula)
    BOX_HALF          (id - z box z)^(-1/2) z  (default; the Gram-side power
                      (I - Z Z*)^(-1/2) Z for matrix kinds, a closed form for
                      the spin factor -- see :func:`psi_rows`)
    SPECTRAL          sum_j lambda_j (1 - lambda_j^2)^(-1/2) c_j
    """

    BERGMAN_QUARTER = "bergman-quarter"
    BOX_HALF = "box-half"
    SPECTRAL = "spectral"


def _outside_message(kind: JTSKind) -> str:
    return (f"psi needs an interior point of the {format_kind(kind)} domain "
            "(largest spectral value must be < 1)")


def psi_rows(kind: JTSKind, coords: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """The BOX_HALF route of psi (sign = -1) or psi_inverse (sign = +1) on every
    row of a (K, N) coordinate array; returns the (K, N) images.  Any other
    sign raises ContractError.

    For sign = -1 every row must lie in the domain: one ``log_norm_rows``
    call tests the whole stack, and any row on or outside the boundary raises
    DomainError.  Rows are processed by the same steps whatever K is, so a
    row's image does not depend on the batch it is mapped in.
    """
    coords = _rows(kind, coords, sign)
    if sign < 0.0:
        _check_inside(kind, coords)
    return _box_power_rows(kind, coords, sign, -0.5)


def _check_inside(kind: JTSKind, coords: np.ndarray) -> None:
    """psi's domain check of a (K, N) stack: one ``log_norm_rows`` call, and
    DomainError when any row lies on or outside the boundary."""
    try:
        log_norm_rows(kind, coords, -1.0)
    except DomainError:
        raise DomainError(_outside_message(kind)) from None


def _psi_differential_rows(kind: JTSKind, coords: np.ndarray,
                           dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi's images (K, N) of the rows z_k of a (K, N) coordinate array, and
    its exact derivatives (K, D, N) along the rows w_d of a (D, N) direction
    array: entry [k, d] is d/dt psi(z_k + t w_d) at real t = 0.

    The images are bit for bit ``psi_rows``'s, and the rows it refuses are
    refused here.  Types I-III take A = I - Z Z* = V diag(w) V* (I - Z* Z
    for a tall Z) from one stacked eigensolve, the one ``hermitian_power``
    makes, and along W, with dA = -(W Z* + Z W*) (-(W* Z + Z* W) when tall),

        d psi = V (F o V* dA V) V* Z + A^(-1/2) W   (Z d(A^(-1/2)) + W A^(-1/2) when tall),

    F_ij = -1/(sqrt w_i sqrt w_j (sqrt w_i + sqrt w_j)) being the divided
    differences of x^(-1/2), which take its derivative at w_i = w_j
    (Daleckii-Krein; Higham, Functions of Matrices, SIAM 2008, ch. 3).  The
    spin factor differentiates the closed form of ``_box_power_rows`` by the
    chain rule in a = |x|^2 and q = x.x.  Products go factor by factor.
    """
    coords = _rows(kind, coords, -1.0)
    dirs = _rows(kind, dirs, -1.0)
    _check_inside(kind, coords)
    pieces = [_psi_differential_simple(f, c, d) for f, c, d in
              zip(simple_factors(kind), split_coords(kind, coords), split_coords(kind, dirs))]
    return (join_coords(kind, [image for image, _ in pieces]),
            join_coords(kind, [deriv for _, deriv in pieces]))


def _psi_differential_simple(kind: JTSKind, coords: np.ndarray,
                             dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(kind, TypeIV):
        image = _box_power_simple(kind, coords, -1.0, -0.5)
        x = coords_to_ambient(kind, coords)[:, None, :]  # (K, 1, n) against (D, n)
        y = coords_to_ambient(kind, dirs)
        u = coords_to_ambient(kind, image)[:, None, :]
        a = (np.abs(x) ** 2).sum(axis=-1, keepdims=True)
        q = (x * x).sum(axis=-1, keepdims=True)
        root = np.sqrt(1.0 - 2.0 * a + np.abs(q) ** 2)  # sqrt N
        half = np.sqrt(2.0 - 2.0 * a + 2.0 * root)
        # u = ((1 + root) x - q conj(x)) / (root half), differentiated along y
        da = 2.0 * (np.conj(x) * y).sum(axis=-1, keepdims=True).real
        dq = 2.0 * (x * y).sum(axis=-1, keepdims=True)
        droot = ((np.conj(q) * dq).real - da) / root
        dden = droot * half + root * (droot - da) / half
        du = (droot * x + (1.0 + root) * y - dq * np.conj(x) - q * np.conj(y) - dden * u) \
            / (root * half)
        return image, ambient_to_coords(kind, du)
    mat = coords_to_matrix(kind, coords)  # (K, p, q)
    gram, wide = _gram(mat)
    eye = np.eye(gram.shape[-1], dtype=np.complex128)
    w, v, power = _eig_power(eye - gram, -0.5)
    adj = np.conj(mat).swapaxes(-1, -2)[:, None]  # (K, 1, q, p) against (D, p, q)
    mat_k, dmat = mat[:, None], coords_to_matrix(kind, dirs)
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
    return matrix_to_coords(kind, image), matrix_to_coords(kind, deriv)


def _point_map(el: Element, route: DualityRoute, sign: float) -> Element:
    """(id + sign * el box el)^(-1/2) el along one route: psi for sign = -1,
    psi_inverse for sign = +1.  Only sign = -1 needs an interior point."""
    if route is DualityRoute.BOX_HALF:
        return Element(el.kind, psi_rows(el.kind, el.coords[None, :], sign)[0])
    if sign < 0.0 and not in_domain(el):
        raise DomainError(_outside_message(el.kind))
    if route is DualityRoute.BERGMAN_QUARTER:
        b = bergman_operator(el, Element(el.kind, -sign * el.coords)).matrix
        coords = hermitian_power(b, -0.25) @ el.coords
    elif route is DualityRoute.SPECTRAL:
        dec = spectral_decompose(el)
        coords = np.zeros_like(el.coords)
        for lam, c in zip(dec.values, dec.frame):
            coords = coords + (lam / np.sqrt(1.0 + sign * lam * lam)) * c.coords
    else:  # pragma: no cover - enum exhausted above
        raise ContractError(f"unknown duality route {route!r}")
    return Element(el.kind, coords)


def psi(z: Element, route: DualityRoute = DualityRoute.BOX_HALF) -> Element:
    """Map a domain point to the ambient space.

    Raises DomainError when z lies on or outside the domain boundary
    (largest spectral value >= 1).
    """
    return _point_map(z, route, -1.0)


def psi_inverse(u: Element, route: DualityRoute = DualityRoute.BOX_HALF) -> Element:
    """Map any ambient point back into the domain.

    Defined on the whole ambient space; the image always satisfies
    ``in_domain`` because mu/(1+mu^2)^(1/2) < 1 for every spectral value mu.
    """
    return _point_map(u, route, 1.0)


def _route_spread(el: Element, point_map, label: str) -> float:
    """Largest pairwise disagreement of ``point_map``'s three routes at el,
    relative to max(1, |el|); raises ConsistencyError above 1e-7."""
    images = [point_map(el, route).coords for route in DualityRoute]
    scale = max(1.0, el.norm())
    worst = worst_of(frobenius(a - b) / scale for a, b in itertools.combinations(images, 2))
    if worst > ROUTE_AGREEMENT_LIMIT:
        raise ConsistencyError(
            f"{label} routes disagree by {worst:.3e} "
            f"(limit {ROUTE_AGREEMENT_LIMIT:.1e})"
        )
    return worst


def psi_route_spread(z: Element) -> float:
    """Largest pairwise disagreement of the three psi routes, relative to max(1, |z|).

    Raises ConsistencyError when the spread exceeds 1e-7.
    """
    return _route_spread(z, psi, "psi")


def psi_inverse_route_spread(u: Element) -> float:
    """Largest pairwise disagreement of the three psi_inverse routes.

    Relative to max(1, |u|); raises ConsistencyError above 1e-7.
    """
    return _route_spread(u, psi_inverse, "psi_inverse")


def check_equivariance(params, z: Element) -> float:
    """Residual of psi(tau z) = tau psi(z) for an isotropy tau, relative to max(1, |z|)."""
    moved, image = psi_rows(z.kind, np.stack([isotropy_action(params, z).coords, z.coords]))
    expected = isotropy_action(params, Element(z.kind, image))
    return frobenius(moved - expected.coords) / max(1.0, z.norm())


def check_hereditary(sub: JTSKind, super_: JTSKind, z: Element) -> float:
    """Residual of the hereditary property for a subtriple embedding.

    Embeds z into the bigger system, applies psi there, and measures both the
    mismatch against the embedded image of the small psi and the part of the
    big image that sticks out of the embedded subspace.  Returns the larger of
    the two, relative to max(1, |z|).
    """
    _same_kind(sub, z.kind)
    lifted = embed(sub, super_, z)
    image = psi(lifted)
    expected = embed(sub, super_, psi(z))
    mismatch = frobenius(image.coords - expected.coords)
    # Projection onto the embedded subspace and back; any discrepancy means the
    # image failed to stay inside it.
    projected = embed(sub, super_, restrict(sub, super_, image))
    leakage = frobenius(projected.coords - image.coords)
    return worst_of((mismatch, leakage)) / max(1.0, z.norm())
