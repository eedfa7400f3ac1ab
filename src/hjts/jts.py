"""Triple products, the operators D/Q/B, trace form, genus, and embeddings.

The triple product is the package's algebraic primitive: {u, v, w} is
C-bilinear and symmetric in (u, w) and C-antilinear in v, satisfies the
Jordan identity, and has tr D(u, u) > 0 for u != 0, where D(u, v)w = {u,v,w}.

Matrix kinds evaluate {U, V, W} = U V* W + W V* U on their natural matrix
representation (antisymmetric and symmetric matrices are closed under it, so
types II and III ride on the type I formula); the spin factor uses
{x, y, z} = 2(<x,y>z + <z,y>x - (x.z) conj(y)) on ambient vectors; products
act componentwise.  All operators are materialized as matrices in the
m1-orthonormal coordinate basis, which makes D(z, z) and B(z, z) entrywise
Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kinds as _k
from .errors import ConsistencyError, ContractError, DomainError
from .linalg import as_matrix, as_vector, frobenius

__all__ = [
    "Element",
    "LinearOperator",
    "AntilinearOperator",
    "zero",
    "basis_elements",
    "triple_product",
    "d_operator",
    "box_operator",
    "q_operator",
    "bergman_operator",
    "m1_form",
    "m1_norm",
    "genus",
    "in_domain",
    "isotropy_action",
    "embed",
    "restrict",
    "embedding_target",
    "jordan_residual",
]


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the triple system: kind plus m1-orthonormal coordinates."""

    kind: _k.JTSKind
    coords: np.ndarray

    def __post_init__(self) -> None:
        c = as_vector(self.coords, dim=_k.ambient_dim(self.kind), name="coords")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def norm(self) -> float:
        """m1 length (= euclidean length of the coordinates)."""
        return frobenius(self.coords)


def zero(kind: _k.JTSKind) -> Element:
    return Element(kind, np.zeros(_k.ambient_dim(kind), dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class _Operator:
    """Kind plus a validated N x N coordinate matrix; the subclasses say how
    the matrix acts."""

    kind: _k.JTSKind
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = _k.ambient_dim(self.kind)
        m = as_matrix(self.matrix, square=True, name="operator matrix")
        if m.shape[0] != n:
            raise ContractError(f"operator matrix must be {n}x{n}, got {m.shape}")
        object.__setattr__(self, "matrix", m)


class LinearOperator(_Operator):
    """Complex-linear operator in coordinates: el -> matrix @ coords."""

    def __call__(self, el: Element) -> Element:
        _same_kind(self.kind, el.kind)
        return Element(self.kind, self.matrix @ el.coords)


class AntilinearOperator(_Operator):
    """Conjugate-linear operator: el -> matrix @ conj(coords)."""

    def __call__(self, el: Element) -> Element:
        _same_kind(self.kind, el.kind)
        return Element(self.kind, self.matrix @ np.conj(el.coords))


def _same_kind(a: _k.JTSKind, b: _k.JTSKind) -> None:
    if a != b:
        raise ContractError(f"kind mismatch: {_k.format_kind(a)} vs {_k.format_kind(b)}")


@lru_cache(maxsize=None)
def basis_elements(kind: _k.JTSKind) -> tuple:
    """The m1-orthonormal basis as a tuple of Elements."""
    n = _k.ambient_dim(kind)
    eye = np.eye(n, dtype=np.complex128)
    return tuple(Element(kind, eye[k]) for k in range(n))


# --------------------------------------------------------------------------
# Triple product and derived operators

def _triple_coords(kind: _k.JTSKind, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """{u, v, w} on coordinate arrays; leading axes of u, v and w broadcast."""
    if isinstance(kind, _k.Product):
        us, vs, ws = (_k.split_coords(kind, c) for c in (u, v, w))
        return _k.join_coords(
            kind, [_triple_coords(f, a, b, c) for f, a, b, c in zip(kind.factors, us, vs, ws)]
        )
    if isinstance(kind, _k.TypeIV):
        x = _k.coords_to_ambient(kind, u)
        y = _k.coords_to_ambient(kind, v)
        z = _k.coords_to_ambient(kind, w)
        herm_xy = np.sum(x * np.conj(y), axis=-1, keepdims=True)
        herm_zy = np.sum(z * np.conj(y), axis=-1, keepdims=True)
        bil_xz = np.sum(x * z, axis=-1, keepdims=True)
        out = 2.0 * (herm_xy * z + herm_zy * x - bil_xz * np.conj(y))
        return _k.ambient_to_coords(kind, out)
    a = _k.coords_to_matrix(kind, u)
    b = _k.coords_to_matrix(kind, v)
    c = _k.coords_to_matrix(kind, w)
    bstar = np.conj(b).swapaxes(-1, -2)
    return _k.matrix_to_coords(kind, a @ bstar @ c + c @ bstar @ a)


def triple_product(u: Element, v: Element, w: Element) -> Element:
    """{u, v, w}: bilinear symmetric in (u, w), antilinear in v."""
    _same_kind(u.kind, v.kind)
    _same_kind(u.kind, w.kind)
    return Element(u.kind, _triple_coords(u.kind, u.coords, v.coords, w.coords))


def d_operator(u: Element, v: Element) -> LinearOperator:
    """D(u, v): w -> {u, v, w}; one triple product broadcast over the basis gives all columns."""
    _same_kind(u.kind, v.kind)
    eye = np.eye(_k.ambient_dim(u.kind), dtype=np.complex128)
    return LinearOperator(u.kind, _triple_coords(u.kind, u.coords, v.coords, eye).T)


def box_operator(z: Element) -> LinearOperator:
    """z box z = D(z, z)/2; its largest eigenvalue is the top squared spectral value."""
    return LinearOperator(z.kind, 0.5 * d_operator(z, z).matrix)


def q_operator(u: Element) -> AntilinearOperator:
    """Quadratic representation Q(u): v -> {u, v, u}/2 (antilinear); basis
    coordinates are real, so one broadcast triple product gives every column."""
    eye = np.eye(_k.ambient_dim(u.kind), dtype=np.complex128)
    return AntilinearOperator(u.kind, 0.5 * _triple_coords(u.kind, u.coords, eye, u.coords).T)


def bergman_operator(u: Element, v: Element) -> LinearOperator:
    """B(u, v) = id - D(u, v) + Q(u)Q(v), assembled as one linear matrix.

    The composite of the two antilinear Q's is linear with matrix
    Q_u @ conj(Q_v).
    """
    _same_kind(u.kind, v.kind)
    n = _k.ambient_dim(u.kind)
    d = d_operator(u, v).matrix
    qq = q_operator(u).matrix @ np.conj(q_operator(v).matrix)
    return LinearOperator(u.kind, np.eye(n, dtype=np.complex128) - d + qq)


def m1_form(x: Element, y: Element) -> complex:
    """Generic trace form m1(x, y); the coordinate bases make it the dot form."""
    _same_kind(x.kind, y.kind)
    return complex(np.vdot(y.coords, x.coords))


def m1_norm(x: Element) -> float:
    return math.sqrt(max(m1_form(x, x).real, 0.0))


def _primitive_tripotent(kind: _k.JTSKind) -> Element:
    """A primitive tripotent with m1(c, c) = 1 (first basis member works for
    matrix kinds; the spin factor needs the isotropic vector (e1 + i e2)/2)."""
    if isinstance(kind, _k.TypeIV):
        coords = np.zeros(kind.n, dtype=np.complex128)
        coords[0] = 1.0 / math.sqrt(2.0)
        coords[1] = 1.0j / math.sqrt(2.0)
        return Element(kind, coords)
    if isinstance(kind, _k.Product):
        raise ContractError("primitive tripotents are per simple factor")
    return basis_elements(kind)[0]


def genus(kind: _k.JTSKind):
    """Genus g with det B(z,z) = N(z)^g, computed as tr D(c, c) on a primitive
    tripotent; returns an int for simple kinds, a list of ints per factor.

    Raises ConsistencyError if the trace strays more than 1e-8 from an
    integer (it never should; this guards the operator plumbing).
    """
    if isinstance(kind, _k.Product):
        return [genus(f) for f in kind.factors]
    c = _primitive_tripotent(kind)
    g = float(np.trace(d_operator(c, c).matrix).real)
    if abs(g - round(g)) > 1e-8:
        raise ConsistencyError(f"genus of {_k.format_kind(kind)} is not an integer: {g!r}")
    return int(round(g))


def in_domain(z: Element) -> bool:
    """True iff the largest spectral value is < 1 (B(z, z) positive definite).

    Tested through the Cholesky pivots of id - Gram (a strict positive
    definiteness certificate equivalent to lambda_1 < 1) rather than by
    computing the spectral values, since this sits on the hot path of every
    map evaluation.
    """
    from .spectral import log_generic_norm_minus  # deferred: spectral builds on this module

    try:
        log_generic_norm_minus(z)
    except DomainError:
        return False
    return True


# --------------------------------------------------------------------------
# Isotropy actions

def _check_unitary(u: np.ndarray, n: int, what: str) -> np.ndarray:
    m = as_matrix(u, square=True, name=what)
    if m.shape[0] != n:
        raise ContractError(f"{what} must be {n}x{n}, got {m.shape}")
    if frobenius(m.conj().T @ m - np.eye(n)) > 1e-10 * n:
        raise ContractError(f"{what} is not unitary")
    return m


def isotropy_action(params, z: Element) -> Element:
    """Apply a linear isotropy of the kind's domain at 0.

    params by kind: TypeI -> (U, V) unitaries acting Z -> U Z V*;
    TypeII/TypeIII -> unitary U acting Z -> U Z U^T; TypeIV -> (theta, O)
    with O real orthogonal acting x -> exp(i theta) O x; Product -> a
    sequence of per-factor params.
    """
    kind = z.kind
    if isinstance(kind, _k.Product):
        if not isinstance(params, (tuple, list)) or len(params) != len(kind.factors):
            raise ContractError("product action needs one params entry per factor")
        pieces = _k.split_coords(kind, z.coords)
        moved = [
            isotropy_action(p, Element(f, c)).coords
            for p, f, c in zip(params, kind.factors, pieces)
        ]
        return Element(kind, _k.join_coords(kind, moved))
    if isinstance(kind, _k.TypeI):
        u, v = params
        u = _check_unitary(u, kind.p, "U")
        v = _check_unitary(v, kind.q, "V")
        mat = u @ _k.coords_to_matrix(kind, z.coords) @ v.conj().T
        return Element(kind, _k.matrix_to_coords(kind, mat))
    if isinstance(kind, (_k.TypeII, _k.TypeIII)):
        u = _check_unitary(params, kind.n, "U")
        mat = u @ _k.coords_to_matrix(kind, z.coords) @ u.T
        return Element(kind, _k.matrix_to_coords(kind, mat))
    if isinstance(kind, _k.TypeIV):
        theta, orth = params
        o = _check_unitary(orth, kind.n, "O")
        if frobenius(o.imag) > 1e-12 * kind.n:
            raise ContractError("type IV rotation must be real orthogonal")
        return Element(kind, complex(np.exp(1j * float(theta))) * (o.real @ z.coords))
    raise ContractError(f"not a kind: {kind!r}")


# --------------------------------------------------------------------------
# Sub-system embeddings

def _factor_block_shape(f: _k.JTSKind) -> tuple[int, int]:
    if isinstance(f, _k.TypeI):
        return f.p, f.q
    if isinstance(f, (_k.TypeII, _k.TypeIII)):
        return f.n, f.n
    raise ContractError(
        f"{_k.format_kind(f)} has no supported matrix embedding (spin factors are excluded)"
    )


def embedding_target(sub: _k.JTSKind) -> _k.TypeI:
    """The smallest TypeI kind that `embed` maps `sub` into."""
    shapes = [_factor_block_shape(f) for f in _k.simple_factors(sub)]
    return _k.TypeI(sum(s[0] for s in shapes), sum(s[1] for s in shapes))


def embed(sub: _k.JTSKind, super_: _k.JTSKind, z: Element) -> Element:
    """Realize `z` inside a larger TypeI system (triple-product homomorphism).

    Supported: TypeI(p', q') into TypeI(p, q) as the top-left block;
    TypeII(n)/TypeIII(n) into TypeI(m, m), m >= n, as the matrices they
    already are; products of the above into block-diagonal position.  Spin
    factors have no matrix realization here and are rejected.
    """
    _same_kind(sub, z.kind)
    if not isinstance(super_, _k.TypeI):
        raise ContractError(f"embedding target must be TypeI, got {_k.format_kind(super_)}")
    factors = _k.simple_factors(sub)
    shapes = [_factor_block_shape(f) for f in factors]
    need_p = sum(s[0] for s in shapes)
    need_q = sum(s[1] for s in shapes)
    if super_.p < need_p or super_.q < need_q:
        raise ContractError(
            f"{_k.format_kind(sub)} needs at least TypeI({need_p},{need_q}), "
            f"got {_k.format_kind(super_)}"
        )
    big = np.zeros((super_.p, super_.q), dtype=np.complex128)
    pieces = (
        _k.split_coords(sub, z.coords) if isinstance(sub, _k.Product) else [z.coords]
    )
    at_p = at_q = 0
    for f, (bp, bq), piece in zip(factors, shapes, pieces):
        big[at_p:at_p + bp, at_q:at_q + bq] = _k.coords_to_matrix(f, piece)
        at_p += bp
        at_q += bq
    return Element(super_, _k.matrix_to_coords(super_, big))


def restrict(sub: _k.JTSKind, super_: _k.JTSKind, w: Element) -> Element:
    """Project a TypeI element back onto the embedded copy of `sub`.

    This is the m1-orthogonal partial inverse of `embed`: block extraction
    followed by (anti)symmetrization.  embed(restrict(w)) == w exactly when
    w lies in the embedded subspace, which is what containment checks use.
    """
    _same_kind(super_, w.kind)
    if not isinstance(super_, _k.TypeI):
        raise ContractError(f"embedding target must be TypeI, got {_k.format_kind(super_)}")
    factors = _k.simple_factors(sub)
    shapes = [_factor_block_shape(f) for f in factors]
    big = _k.coords_to_matrix(super_, w.coords)
    pieces = []
    at_p = at_q = 0
    for f, (bp, bq) in zip(factors, shapes):
        block = big[at_p:at_p + bp, at_q:at_q + bq]
        pieces.append(_k.matrix_to_coords(f, block))
        at_p += bp
        at_q += bq
    coords = _k.join_coords(sub, pieces) if isinstance(sub, _k.Product) else pieces[0]
    return Element(sub, coords)


def jordan_residual(x: Element, y: Element, u: Element, v: Element, w: Element) -> float:
    """Scaled residual of the Jordan identity
    {x,y,{u,v,w}} - {u,v,{x,y,w}} = {{x,y,u},v,w} - {u,{v,x,y},w}."""
    lhs = triple_product(x, y, triple_product(u, v, w)).coords \
        - triple_product(u, v, triple_product(x, y, w)).coords
    rhs = triple_product(triple_product(x, y, u), v, w).coords \
        - triple_product(u, triple_product(v, x, y), w).coords
    scale = max(1.0, x.norm() * y.norm() * u.norm() * v.norm() * w.norm())
    return frobenius(lhs - rhs) / scale
