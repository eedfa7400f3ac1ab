"""The symplectic duality map between a bounded domain and its flat ambient space.

``psi`` maps a domain point z to B(z,z)^(-1/4) z in the ambient space and
``psi_inverse`` maps back via B(u,-u)^(-1/4) u.  Each direction can be
evaluated along three independent routes (Bergman power, box power,
spectral resolution); they agree to high accuracy on valid inputs, and the
``*_route_spread`` helpers turn any disagreement beyond 1e-7 into a hard
internal-consistency failure.

The default route, BOX_HALF, is (id -+ z box z)^(-1/2) z, evaluated by
:func:`psi_rows` on every row of a (K, N) coordinate array without building
the N x N box operator:

* types I, II and III: f(z box z) z = f(Z Z*) Z, so psi(Z) = (I - Z Z*)^(-1/2) Z
  and psi^-1(U) = (I + U U*)^(-1/2) U, on the smaller Gram side
  (Z (I - Z* Z)^(-1/2) when Z has more rows than columns), with the K powers
  taken by one stacked ``hermitian_power`` call;
* the spin factor, with x = coords / sqrt(2), a = sum |x_j|^2, q = sum x_j^2:
  psi(x) = ((1 + sqrt N) x - q conj(x)) / (sqrt N sqrt(2 - 2a + 2 sqrt N)) with
  N = 1 - 2a + |q|^2, and
  psi^-1(x) = ((1 + sqrt N*) x + q conj(x)) / (sqrt N* sqrt(2 + 2a + 2 sqrt N*))
  with N* = 1 + 2a + |q|^2;
* products factor by factor.

``psi`` and ``psi_inverse`` on BOX_HALF are the K = 1 case of ``psi_rows``.
"""
from __future__ import annotations

import enum

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError
from .jts import (
    Element,
    bergman_operator,
    embed,
    in_domain,
    isotropy_action,
    restrict,
)
from .kinds import JTSKind, format_kind
from .linalg import frobenius, hermitian_power
from .spectral import _gram, log_norm_rows, spectral_decompose

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


def _box_half_simple(kind: JTSKind, coords: np.ndarray, sign: float) -> np.ndarray:
    """(id + sign * z box z)^(-1/2) z for each row of a simple-kind (K, N) array;
    the matrix kinds take their K Gram-side powers in one stacked call."""
    if isinstance(kind, _k.TypeIV):
        x = _k.coords_to_ambient(kind, coords)
        a = (np.abs(x) ** 2).sum(axis=-1)
        q = (x * x).sum(axis=-1)
        root = np.sqrt(1.0 + sign * 2.0 * a + np.abs(q) ** 2)  # sqrt N or sqrt N*
        scale = root * np.sqrt(2.0 + sign * 2.0 * a + 2.0 * root)
        out = ((1.0 + root)[:, None] * x + sign * q[:, None] * np.conj(x)) / scale[:, None]
        return _k.ambient_to_coords(kind, out)
    mat = _k.coords_to_matrix(kind, coords)
    gram, wide = _gram(mat)
    shifted = np.eye(gram.shape[-1], dtype=np.complex128) + sign * gram
    power = hermitian_power(shifted, -0.5)
    return _k.matrix_to_coords(kind, power @ mat if wide else mat @ power)


def psi_rows(kind: JTSKind, coords: np.ndarray, sign: float = -1.0) -> np.ndarray:
    """The BOX_HALF route of psi (sign = -1) or psi_inverse (sign = +1) on every
    row of a (K, N) coordinate array; returns the (K, N) images.

    For sign = -1 every row must lie in the domain: one ``log_norm_rows``
    call tests the whole stack, and any row on or outside the boundary raises
    DomainError.  Rows are processed by the same steps whatever K is, so a
    row's image does not depend on the batch it is mapped in.
    """
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != 2 or coords.shape[1] != _k.ambient_dim(kind):
        raise ContractError(
            f"{format_kind(kind)} needs a (K, {_k.ambient_dim(kind)}) coordinate "
            f"array, got shape {coords.shape}"
        )
    if sign < 0.0:
        try:
            log_norm_rows(kind, coords, -1.0)
        except DomainError:
            raise DomainError(_outside_message(kind)) from None
    if isinstance(kind, _k.Product):
        return np.concatenate([
            _box_half_simple(f, c, sign)
            for f, c in zip(kind.factors, _k.split_coords(kind, coords))
        ], axis=-1)
    return _box_half_simple(kind, coords, sign)


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
    worst = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            worst = max(worst, frobenius(images[i] - images[j]) / scale)
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
    if z.kind != sub:
        raise ContractError(
            f"element lives in {format_kind(z.kind)}, expected {format_kind(sub)}"
        )
    lifted = embed(sub, super_, z)
    image = psi(lifted)
    expected = embed(sub, super_, psi(z))
    mismatch = frobenius(image.coords - expected.coords)
    # Projection onto the embedded subspace and back; any discrepancy means the
    # image failed to stay inside it.
    projected = embed(sub, super_, restrict(sub, super_, image))
    leakage = frobenius(projected.coords - image.coords)
    return max(mismatch, leakage) / max(1.0, z.norm())
