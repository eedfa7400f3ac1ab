"""The symplectic duality map between a bounded domain and its flat ambient space.

``psi`` maps a domain point z to B(z,z)^(-1/4) z and ``psi_inverse`` maps an
ambient point u back via B(u,-u)^(-1/4) u, each along three independent
routes (Bergman power, box power, spectral resolution); the
``*_route_spread`` helpers turn a disagreement beyond 1e-7 into a hard
internal-consistency failure.  The default route, BOX_HALF, is
(id -+ z box z)^(-1/2) z, which :func:`psi_rows` maps over the rows of a
(K, N) array (``psi`` and ``psi_inverse`` are its K = 1 case) and
``_psi_differential_rows`` differentiates exactly; both go factor by factor
through the closed forms of ``spectral``.
"""
from __future__ import annotations

import enum
import itertools

import numpy as np

from .errors import ConsistencyError, ContractError
from .jts import Element, _same_kind, bergman_operator, embed, isotropy_action, restrict
from .kinds import JTSKind, join_coords, simple_factors, split_coords
from .linalg import frobenius, hermitian_power, worst_of
from .spectral import (_box_power_rows, _psi_differential_simple, _require_interior, _rows,
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


def psi_rows(kind: JTSKind, coords: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """The BOX_HALF route of psi (sign = -1) or psi_inverse (sign = +1) on every
    row of a (K, N) coordinate array; returns the (K, N) images.  Any other
    sign raises ContractError.

    For sign = -1 every row must lie in the domain: one
    ``spectral._require_interior`` call tests the whole stack, and any row on
    or outside the boundary raises DomainError.  Rows are processed by the
    same steps whatever K is, so a row's image does not depend on the batch
    it is mapped in.
    """
    coords = _rows(kind, coords, sign)
    if sign < 0.0:
        _require_interior(kind, coords, "psi")
    return _box_power_rows(kind, coords, sign, -0.5)


def _psi_differential_rows(kind: JTSKind, coords: np.ndarray,
                           dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi's images (K, N) of the rows z_k of a (K, N) coordinate array, and
    its exact derivatives (K, D, N) along the rows w_d of a (D, N) direction
    array: entry [k, d] is d/dt psi(z_k + t w_d) at real t = 0.

    The images are bit for bit ``psi_rows``'s, and the rows it refuses are
    refused here.  Each simple factor is differentiated in closed form by
    ``spectral._psi_differential_simple``; products go factor by factor.
    """
    coords = _rows(kind, coords, -1.0)
    dirs = _rows(kind, dirs, -1.0)
    _require_interior(kind, coords, "psi")
    images, derivs = zip(*(_psi_differential_simple(f, c, d) for f, c, d in zip(
        simple_factors(kind), split_coords(kind, coords), split_coords(kind, dirs))))
    return join_coords(kind, images), join_coords(kind, derivs)


def _point_map(el: Element, route: DualityRoute, sign: float) -> Element:
    """(id + sign * el box el)^(-1/2) el along one route: psi for sign = -1,
    psi_inverse for sign = +1.  Only sign = -1 needs an interior point."""
    if route is DualityRoute.BOX_HALF:
        return Element(el.kind, psi_rows(el.kind, el.coords[None, :], sign)[0])
    if sign < 0.0:
        _require_interior(el.kind, el.coords[None, :], "psi")
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
    """Map an ambient point back into the domain.

    Every image is interior in exact arithmetic (mu/(1+mu^2)^(1/2) < 1 for each spectral value
    mu), in double precision only while 1 - lambda^2 = 1/(1+mu^2) survives roundoff.  Images
    pass ``in_domain`` at |u| = 1e4 but leave the domain from |u| ~ 2.0e4 on IV:4 along e_1,
    3.2e5 on a rank-one I:2,2 point (BOX_HALF; BERGMAN_QUARTER raises DomainError from 1.3e4)
    and 7.9e7 on I:1,1, II:4 and III:3; far larger points overflow.
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
