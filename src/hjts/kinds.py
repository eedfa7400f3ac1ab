"""Kind descriptors for the classical triple-system families.

A *kind* names one of the classical Hermitian positive Jordan triple systems
(or a finite product of them):

* ``TypeI(p, q)``   -- complex p x q matrices,
* ``TypeII(n)``     -- antisymmetric n x n matrices,
* ``TypeIII(n)``    -- symmetric n x n matrices,
* ``TypeIV(n)``     -- the spin factor on C^n, n >= 3,
* ``Product(...)``  -- componentwise product of simple kinds.

Elements are always handled as coordinate vectors in a fixed basis that is
orthonormal for the trace form m1.  The bases are: matrix units E_jk
(row-major) for type I; E_jk - E_kj over the strict upper triangle for type
II; E_jj and (E_jk + E_kj)/sqrt(2) over the upper triangle for type III; and
e_j/sqrt(2) for type IV, whose natural ("ambient") vector is therefore
coords/sqrt(2).  This module owns the conversions between coordinates and
those natural representations, plus the textual kind grammar used by the CLI:
``"I:p,q" | "II:n" | "III:n" | "IV:n" | "prod(K1;K2;...)"``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ContractError

__all__ = [
    "TypeI",
    "TypeII",
    "TypeIII",
    "TypeIV",
    "Product",
    "JTSKind",
    "parse_kind",
    "format_kind",
    "ambient_dim",
    "rank",
    "simple_factors",
    "coords_to_matrix",
    "matrix_to_coords",
    "coords_to_ambient",
    "ambient_to_coords",
    "split_coords",
    "join_coords",
]

_SQRT2 = math.sqrt(2.0)


def _check_count(value, name: str, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ContractError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class TypeI:
    """Rectangular matrices: p x q complex, rank min(p, q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        _check_count(self.p, "p", 1)
        _check_count(self.q, "q", 1)


@dataclass(frozen=True)
class TypeII:
    """Antisymmetric n x n complex matrices, rank floor(n/2)."""

    n: int

    def __post_init__(self) -> None:
        _check_count(self.n, "n", 2)


@dataclass(frozen=True)
class TypeIII:
    """Symmetric n x n complex matrices, rank n."""

    n: int

    def __post_init__(self) -> None:
        _check_count(self.n, "n", 1)


@dataclass(frozen=True)
class TypeIV:
    """Spin factor on C^n (the Lie-ball triple), rank 2.

    n >= 3 by convention: the lower-dimensional spin factors coincide with
    products of discs / type I systems and would only duplicate kinds.
    """

    n: int

    def __post_init__(self) -> None:
        _check_count(self.n, "n", 3)


@dataclass(frozen=True)
class Product:
    """Componentwise product of simple kinds; nested products are flattened."""

    factors: tuple

    def __post_init__(self) -> None:
        raw = self.factors
        if isinstance(raw, (TypeI, TypeII, TypeIII, TypeIV, Product)):
            raw = (raw,)
        if not isinstance(raw, (tuple, list)):
            raise ContractError("Product factors must be a sequence of kinds")
        flat: list = []
        for f in raw:
            if isinstance(f, Product):
                flat.extend(f.factors)
            elif isinstance(f, (TypeI, TypeII, TypeIII, TypeIV)):
                flat.append(f)
            else:
                raise ContractError(f"not a kind: {f!r}")
        if not flat:
            raise ContractError("Product needs at least one factor")
        object.__setattr__(self, "factors", tuple(flat))


JTSKind = Union[TypeI, TypeII, TypeIII, TypeIV, Product]

_SIMPLE = (TypeI, TypeII, TypeIII, TypeIV)


def ambient_dim(kind: JTSKind) -> int:
    """Complex dimension of the underlying vector space."""
    if isinstance(kind, TypeI):
        return kind.p * kind.q
    if isinstance(kind, TypeII):
        return kind.n * (kind.n - 1) // 2
    if isinstance(kind, TypeIII):
        return kind.n * (kind.n + 1) // 2
    if isinstance(kind, TypeIV):
        return kind.n
    if isinstance(kind, Product):
        return sum(ambient_dim(f) for f in kind.factors)
    raise ContractError(f"not a kind: {kind!r}")


def rank(kind: JTSKind) -> int:
    """Length of a frame (maximal orthogonal tripotent system)."""
    if isinstance(kind, TypeI):
        return min(kind.p, kind.q)
    if isinstance(kind, TypeII):
        return kind.n // 2
    if isinstance(kind, TypeIII):
        return kind.n
    if isinstance(kind, TypeIV):
        return 2
    if isinstance(kind, Product):
        return sum(rank(f) for f in kind.factors)
    raise ContractError(f"not a kind: {kind!r}")


def simple_factors(kind: JTSKind) -> tuple:
    """The simple factors of a kind (itself, if already simple)."""
    if isinstance(kind, Product):
        return kind.factors
    if isinstance(kind, _SIMPLE):
        return (kind,)
    raise ContractError(f"not a kind: {kind!r}")


# --------------------------------------------------------------------------
# Kind grammar

_PATTERNS = (
    (re.compile(r"I:(\d+),(\d+)"), lambda m: TypeI(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"II:(\d+)"), lambda m: TypeII(int(m.group(1)))),
    (re.compile(r"III:(\d+)"), lambda m: TypeIII(int(m.group(1)))),
    (re.compile(r"IV:(\d+)"), lambda m: TypeIV(int(m.group(1)))),
)


def _split_top_level(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ContractError(f"unbalanced parentheses in kind: {body!r}")
        elif ch == ";" and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise ContractError(f"unbalanced parentheses in kind: {body!r}")
    parts.append(body[start:])
    return parts


def parse_kind(text: str) -> JTSKind:
    """Parse ``"I:p,q" | "II:n" | "III:n" | "IV:n" | "prod(K1;K2;...)"``.

    The grammar is case-sensitive and whitespace-free; anything else raises
    ContractError.
    """
    if not isinstance(text, str):
        raise ContractError(f"kind must be a string, got {type(text).__name__}")
    s = text.strip()
    if s.startswith("prod(") and s.endswith(")"):
        return Product(tuple(parse_kind(p) for p in _split_top_level(s[5:-1])))
    for pattern, build in _PATTERNS:
        m = pattern.fullmatch(s)
        if m:
            try:
                return build(m)
            except ContractError as exc:
                raise ContractError(f"invalid kind {s!r}: {exc}") from None
    raise ContractError(f"cannot parse kind: {text!r}")


def format_kind(kind: JTSKind) -> str:
    """Inverse of parse_kind."""
    if isinstance(kind, TypeI):
        return f"I:{kind.p},{kind.q}"
    if isinstance(kind, TypeII):
        return f"II:{kind.n}"
    if isinstance(kind, TypeIII):
        return f"III:{kind.n}"
    if isinstance(kind, TypeIV):
        return f"IV:{kind.n}"
    if isinstance(kind, Product):
        return "prod(" + ";".join(format_kind(f) for f in kind.factors) + ")"
    raise ContractError(f"not a kind: {kind!r}")


# --------------------------------------------------------------------------
# Coordinates <-> natural representations

@lru_cache(maxsize=None)
def _triu_strict(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n, 1)
    return rows, cols


@lru_cache(maxsize=None)
def _triu_full(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.triu_indices(n)
    return rows, cols


def coords_to_matrix(kind: JTSKind, coords: np.ndarray) -> np.ndarray:
    """Matrix representation of a type I/II/III coordinate vector.

    Leading axes of ``coords`` are batch axes: shape (..., N) maps to
    (..., p, q) for type I and (..., n, n) for types II and III.
    """
    if isinstance(kind, TypeI):
        return coords.reshape(coords.shape[:-1] + (kind.p, kind.q))
    if isinstance(kind, TypeII):
        n = kind.n
        rows, cols = _triu_strict(n)
        m = np.zeros(coords.shape[:-1] + (n, n), dtype=np.complex128)
        m[..., rows, cols] = coords
        m[..., cols, rows] = -coords
        return m
    if isinstance(kind, TypeIII):
        n = kind.n
        rows, cols = _triu_full(n)
        scaled = np.where(rows == cols, coords, coords / _SQRT2)
        m = np.zeros(coords.shape[:-1] + (n, n), dtype=np.complex128)
        m[..., rows, cols] = scaled
        m[..., cols, rows] = scaled
        return m
    raise ContractError(f"{format_kind(kind)} has no matrix representation")


def matrix_to_coords(kind: JTSKind, matrix: np.ndarray) -> np.ndarray:
    """Coordinates of a matrix; projects away roundoff (anti)symmetry drift.

    Leading axes of ``matrix`` are batch axes, as in ``coords_to_matrix``.
    """
    if isinstance(kind, TypeI):
        shape = (kind.p, kind.q)
    elif isinstance(kind, (TypeII, TypeIII)):
        shape = (kind.n, kind.n)
    else:
        raise ContractError(f"{format_kind(kind)} has no matrix representation")
    if matrix.shape[-2:] != shape:
        raise ContractError(f"expected shape {shape}, got {matrix.shape}")
    if isinstance(kind, TypeI):
        return np.asarray(matrix, dtype=np.complex128).reshape(matrix.shape[:-2] + (-1,)).copy()
    if isinstance(kind, TypeII):
        rows, cols = _triu_strict(kind.n)
        return 0.5 * (matrix[..., rows, cols] - matrix[..., cols, rows])
    rows, cols = _triu_full(kind.n)
    sym = 0.5 * (matrix[..., rows, cols] + matrix[..., cols, rows])
    return np.where(rows == cols, sym, sym * _SQRT2)


def coords_to_ambient(kind: TypeIV, coords: np.ndarray) -> np.ndarray:
    """Spin-factor vector in the standard basis of C^n (basis is e_j/sqrt2)."""
    if not isinstance(kind, TypeIV):
        raise ContractError("ambient vectors are a type IV notion")
    return coords / _SQRT2


def ambient_to_coords(kind: TypeIV, ambient: np.ndarray) -> np.ndarray:
    if not isinstance(kind, TypeIV):
        raise ContractError("ambient vectors are a type IV notion")
    return np.asarray(ambient, dtype=np.complex128) * _SQRT2


def split_coords(kind: Product, coords: np.ndarray) -> list[np.ndarray]:
    """Per-factor coordinate slices of a product element (last axis; leading
    axes are batch axes)."""
    if not isinstance(kind, Product):
        raise ContractError("split_coords needs a Product kind")
    if coords.shape[-1] != ambient_dim(kind):
        raise ContractError(
            f"{format_kind(kind)} needs {ambient_dim(kind)} coordinates, got {coords.shape[-1]}"
        )
    out, at = [], 0
    for f in kind.factors:
        d = ambient_dim(f)
        out.append(coords[..., at:at + d])
        at += d
    return out


def join_coords(kind: Product, pieces) -> np.ndarray:
    """Inverse of ``split_coords``: concatenates the pieces on the last axis."""
    if not isinstance(kind, Product):
        raise ContractError("join_coords needs a Product kind")
    if len(pieces) != len(kind.factors):
        raise ContractError(f"expected {len(kind.factors)} pieces, got {len(pieces)}")
    return np.concatenate([np.asarray(p, dtype=np.complex128) for p in pieces], axis=-1)
