"""Kind descriptors, the textual grammar, and coordinate packing."""

import numpy as np
import pytest

from hjts.errors import ContractError
from hjts.kinds import (
    Product,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    ambient_dim,
    ambient_to_coords,
    coords_to_ambient,
    coords_to_matrix,
    format_kind,
    join_coords,
    matrix_to_coords,
    parse_kind,
    rank,
    simple_factors,
    split_coords,
)

ALL_SIMPLE = [TypeI(1, 1), TypeI(2, 3), TypeII(4), TypeII(5), TypeIII(3), TypeIV(4)]


def test_grammar_round_trips():
    texts = ["I:1,1", "I:2,3", "II:5", "III:2", "IV:7",
             "prod(I:1,1;IV:3)", "prod(II:4;III:2;I:1,2)"]
    for text in texts:
        kind = parse_kind(text)
        assert format_kind(kind) == text
        assert parse_kind(format_kind(kind)) == kind


def test_parse_rejects_junk():
    for bad in ["", "V:3", "I:2", "I:2,2,2", "II:x", "I:-1,2", "prod()",
                "prod(I:1,1", "prod(I:1,1;(II:4)", "prod(I:1,1;IV:3))", "iv:4", "I : 2,2",
                "II:2.5", 42]:
        with pytest.raises(ContractError):
            parse_kind(bad)


def test_constructor_validation():
    with pytest.raises(ContractError):
        TypeI(0, 2)
    with pytest.raises(ContractError):
        TypeII(1)
    with pytest.raises(ContractError):
        TypeIII(0)
    with pytest.raises(ContractError):
        TypeIV(2)  # low-dimensional spin factors are excluded by convention
    with pytest.raises(ContractError):
        TypeI(2.0, 2)
    with pytest.raises(ContractError):
        Product(())


def test_product_flattens_nested():
    inner = Product((TypeI(1, 1), TypeIII(2)))
    outer = Product((inner, TypeIV(3)))
    assert outer.factors == (TypeI(1, 1), TypeIII(2), TypeIV(3))
    assert simple_factors(outer) == outer.factors
    assert simple_factors(TypeII(4)) == (TypeII(4),)
    nested = parse_kind("prod(I:1,1;prod(II:4;IV:3))")  # a ';' inside parentheses
    assert nested.factors == (TypeI(1, 1), TypeII(4), TypeIV(3))
    assert format_kind(nested) == "prod(I:1,1;II:4;IV:3)"


def test_dims_and_ranks():
    assert ambient_dim(TypeI(2, 3)) == 6
    assert ambient_dim(TypeII(4)) == 6      # strictly upper triangular entries
    assert ambient_dim(TypeIII(3)) == 6     # upper triangle including diagonal
    assert ambient_dim(TypeIV(5)) == 5
    assert ambient_dim(Product((TypeI(1, 1), TypeIV(3)))) == 4
    assert rank(TypeI(2, 3)) == 2
    assert rank(TypeII(4)) == 2
    assert rank(TypeII(5)) == 2
    assert rank(TypeIII(3)) == 3
    assert rank(TypeIV(9)) == 2
    assert rank(Product((TypeI(1, 2), TypeIII(2)))) == 3  # additive


@pytest.mark.parametrize("kind", ALL_SIMPLE)
def test_matrix_round_trip(kind):
    rng = np.random.default_rng(ambient_dim(kind))
    coords = rng.standard_normal(ambient_dim(kind)) + 1j * rng.standard_normal(ambient_dim(kind))
    if isinstance(kind, TypeIV):
        with pytest.raises(ContractError):
            coords_to_matrix(kind, coords)
        return
    mat = coords_to_matrix(kind, coords)
    if isinstance(kind, TypeII):
        assert np.allclose(mat, -mat.T)
    if isinstance(kind, TypeIII):
        assert np.allclose(mat, mat.T)
    assert np.allclose(matrix_to_coords(kind, mat), coords)


@pytest.mark.parametrize("kind", [TypeI(2, 3), TypeII(4), TypeIII(3)],
                         ids=["I:2,3", "II:4", "III:3"])
def test_coords_to_matrix_batched_equals_row_by_row(kind):
    rng = np.random.default_rng(4)
    n = ambient_dim(kind)
    batch = rng.standard_normal((2, 5, n)) + 1j * rng.standard_normal((2, 5, n))
    mats = coords_to_matrix(kind, batch)
    rows = np.array([[coords_to_matrix(kind, c) for c in block] for block in batch])
    assert mats.shape == rows.shape
    assert np.array_equal(mats, rows)


@pytest.mark.parametrize("kind", [TypeI(2, 3), TypeII(4), TypeIII(3)],
                         ids=["I:2,3", "II:4", "III:3"])
def test_matrix_to_coords_batched_equals_row_by_row(kind):
    rng = np.random.default_rng(6)
    p, q = (kind.p, kind.q) if isinstance(kind, TypeI) else (kind.n, kind.n)
    mats = rng.standard_normal((2, 5, p, q)) + 1j * rng.standard_normal((2, 5, p, q))
    coords = matrix_to_coords(kind, mats)
    rows = np.array([[matrix_to_coords(kind, m) for m in block] for block in mats])
    assert coords.shape == (2, 5, ambient_dim(kind))
    assert np.array_equal(coords, rows)


def test_matrix_to_coords_projects_drift():
    # the converter removes (anti)symmetry drift rather than rejecting it
    assert np.allclose(matrix_to_coords(TypeII(4), np.eye(4, dtype=complex)), 0.0)
    lop = np.array([[0, 1], [0, 0]], dtype=complex)
    sym = matrix_to_coords(TypeIII(2), lop)
    assert np.allclose(coords_to_matrix(TypeIII(2), sym), 0.5 * (lop + lop.T))
    with pytest.raises(ContractError):
        matrix_to_coords(TypeI(2, 2), np.zeros((2, 3), dtype=complex))


def test_spin_ambient_scaling():
    # coordinates carry the sqrt(2) so that m1 stays the plain dot product
    kind = TypeIV(3)
    coords = np.array([1.0, 2.0, 3.0], dtype=complex)
    amb = coords_to_ambient(kind, coords)
    assert np.allclose(amb, coords / np.sqrt(2.0))
    assert np.allclose(ambient_to_coords(kind, amb), coords)


def test_split_and_join_coords():
    kind = Product((TypeI(1, 2), TypeIV(3), TypeIII(2)))
    rng = np.random.default_rng(9)
    coords = rng.standard_normal(ambient_dim(kind)).astype(complex)
    pieces = split_coords(kind, coords)
    assert [len(p) for p in pieces] == [2, 3, 3]
    assert np.array_equal(join_coords(kind, pieces), coords)
    with pytest.raises(ContractError):
        split_coords(kind, coords[:-1])
    with pytest.raises(ContractError):
        join_coords(kind, [pieces[0], pieces[1][:-1], pieces[2]])  # pieces too short
    # leading axes are batch axes
    stacked = np.stack([coords, 2.0 * coords])
    for piece, batched in zip(pieces, split_coords(kind, stacked)):
        assert np.array_equal(batched, np.stack([piece, 2.0 * piece]))


def test_a_simple_kind_is_its_own_single_factor():
    kind = TypeIII(2)
    coords = np.arange(3, dtype=complex) + 1j
    (piece,) = split_coords(kind, coords)
    assert piece.tobytes() == coords.tobytes()
    assert join_coords(kind, [piece]).tobytes() == coords.tobytes()
    stacked = np.stack([coords, 2.0 * coords])
    (batched,) = split_coords(kind, stacked)
    assert join_coords(kind, [batched]).tobytes() == stacked.tobytes()
    with pytest.raises(ContractError):
        split_coords(kind, coords[:-1])
    with pytest.raises(ContractError):
        join_coords(kind, [piece, piece])
    with pytest.raises(ContractError):
        join_coords(kind, [np.zeros(5)])


def test_kinds_are_hashable_values():
    assert TypeI(2, 2) == TypeI(2, 2)
    assert len({TypeI(2, 2), TypeI(2, 2), TypeII(4)}) == 2
    with pytest.raises(Exception):
        TypeI(2, 2).p = 3  # frozen
