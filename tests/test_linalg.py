"""Gaussian elimination: rref, rank and kernel bases over F_7 and Q."""

from fractions import Fraction

import pytest

from fiberbound import PrimeField, RationalField
from fiberbound.linalg import kernel_basis, rank, rref

# Row 0 has a zero in the first column (a row swap is needed), column 1 is
# zero, and row 2 = row 0 + 2 * row 1 is dependent.  Over F_7 the entries 8
# and 13 arrive unreduced.
M = [[0, 0, 2, 1, 3],
     [1, 0, 3, 0, 5],
     [2, 0, 8, 1, 13]]

H = Fraction(1, 2)
EXPECTED_RREF = {
    PrimeField(7): [[1, 0, 0, 2, 4], [0, 0, 1, 4, 5], [0, 0, 0, 0, 0]],
    RationalField(): [[1, 0, 0, -3 * H, H], [0, 0, 1, H, 3 * H], [0] * 5],
}


def _matrix(F):
    return [[F.conv(x) for x in row] for row in M]


def _times(F, rows, v):
    p = F.char
    out = [sum(a * b for a, b in zip(row, v)) for row in rows]
    return [x % p for x in out] if p else out


@pytest.mark.parametrize("F", list(EXPECTED_RREF), ids=repr)
def test_rref_swaps_skips_zero_column_and_drops_dependent_row(F):
    red, pivots = rref(F, _matrix(F))
    assert pivots == [0, 2]
    assert red == EXPECTED_RREF[F]
    assert rank(F, _matrix(F)) == 2


@pytest.mark.parametrize("F", list(EXPECTED_RREF), ids=repr)
def test_kernel_basis_spans_the_kernel(F):
    basis = kernel_basis(F, _matrix(F), 5)
    assert len(basis) == 5 - 2
    free = [1, 3, 4]
    for v, fcol in zip(basis, free):
        assert _times(F, _matrix(F), v) == [0, 0, 0]
        assert [v[c] for c in free] == [1 if c == fcol else 0 for c in free]
        if F.char:
            assert all(isinstance(x, int) and 0 <= x < F.char for x in v)
        else:
            assert all(isinstance(x, Fraction) for x in v)


def test_rank_of_full_and_empty_matrices():
    F = PrimeField(7)
    assert rank(F, []) == 0
    assert rank(F, [[0, 3], [5, -1]]) == 2
    assert rank(F, [[7, 14], [0, 0]]) == 0
    assert kernel_basis(F, [[0, 0]], 2) == [[1, 0], [0, 1]]
