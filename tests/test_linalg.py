"""Gaussian elimination: rref, rank and kernel bases over F_p and Q."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import fiberbound.linalg as linalg
from fiberbound import PrimeField, RationalField
from fiberbound.fields import DEFAULT_PRIME
from fiberbound.linalg import (_pack, first_pivotless, kernel_basis,
                               packing, rank, rank_mod_p, rref)

from conftest import independent_rank_mod_p

# rank and rref need only `char` and `inv`; PrimeField models odd primes only.
F2 = SimpleNamespace(char=2, inv=lambda a: pow(a, -1, 2))

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
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for x in v), v


def test_rank_of_full_and_empty_matrices():
    F = PrimeField(7)
    assert rank(F, []) == 0
    assert rank(F, [[0, 3], [5, -1]]) == 2
    assert rank(F, [[7, 14], [0, 0]]) == 0
    assert kernel_basis(F, [[0, 0]], 2) == [[1, 0], [0, 1]]


def _with_units(nrows, ncols, units, draw):
    """Random nrows x ncols matrix whose rows `units` are the unit vectors."""
    rows = [[draw() for _ in range(ncols)] for _ in range(nrows)]
    for k, i in enumerate(units):
        rows[i] = [1 if j == k else 0 for j in range(ncols)]
    return rows


def _known_rank(rng, nrows, ncols, r, draw):
    """A B with A (nrows x r) injective and B (r x ncols) onto: rank r."""
    a = _with_units(nrows, r, rng.sample(range(nrows), r), draw)
    bt = _with_units(ncols, r, rng.sample(range(ncols), r), draw)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


@pytest.mark.parametrize("F", [F2, PrimeField(7), PrimeField(101),
                               PrimeField(DEFAULT_PRIME)],
                         ids=["F2", "F7", "F101", "F2^31-1"])
def test_packed_rank_on_products_of_known_rank(F):
    p = F.char
    rng = random.Random(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        r = rng.randint(0, min(nrows, ncols))
        # negative and unreduced entries
        m = _known_rank(rng, nrows, ncols, r, lambda: rng.randint(-3 * p, 3 * p))
        assert rank(F, m) == r
        assert len(rref(F, m)[1]) == r
        assert independent_rank_mod_p(p, m) == r


@pytest.mark.parametrize("p", [2, 7, 101, DEFAULT_PRIME])
def test_first_pivotless_is_the_first_dependent_column(p):
    # The least c whose columns 0..c have rank c, from rows packed with
    # negative and unreduced entries; None when every column is independent.
    # With one end at the last column, the rank returned is the whole rank.
    rng = random.Random(p + 1)
    seen = set()
    for _ in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        r = rng.randint(0, min(nrows, ncols))
        m = _known_rank(rng, nrows, ncols, r, lambda: rng.randint(-3 * p, 3 * p))
        expected = next((c for c in range(ncols) if independent_rank_mod_p(
            p, [row[:c + 1] for row in m]) == c), None)
        _, width = packing(SimpleNamespace(char=p), nrows)
        found = first_pivotless(p, width, [_pack(p, row, width) for row in m],
                                [ncols])
        assert (found if found is None else found[0]) == expected
        assert found is None or found[1] == r
        seen.add(expected if expected is None else expected > 0)
    assert seen == {None, False, True}


def test_rank_of_empty_matrices_and_zero_columns():
    F = PrimeField(101)
    assert rank(F, [[], []]) == 0
    assert rank(F, [[0, 0, 0]] * 3) == 0
    assert rank(F, [[0, 5, 0, 101], [0, 10, 0, -202], [0, 1, 0, 3]]) == 2
    Q = RationalField()
    assert rank(Q, []) == 0
    assert rank(Q, [[Fraction(0)] * 2] * 2) == 0


def test_rational_rank_equals_fraction_rank_on_deficient_matrices():
    Q = RationalField()
    rng = random.Random(5)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        r = rng.randint(0, min(nrows, ncols) - 1)
        m = _known_rank(rng, nrows, ncols, r,
                        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        assert rank(Q, m) == len(rref(Q, m)[1]) == r


def test_rational_rank_falls_back_when_the_prime_divides_a_minor(monkeypatch):
    # Full rank over Q; mod 2^31 - 1 row 1 equals row 0 scaled to integers.
    P = DEFAULT_PRIME
    m = [[Fraction(1, 2), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(2 + P), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(3)]]
    calls = []
    real = linalg.rref

    def counting(F, rows):
        calls.append(len(rows))
        return real(F, rows)

    monkeypatch.setattr(linalg, "rref", counting)
    Q = RationalField()
    assert rank_mod_p(Q, m) == 2 and calls == []
    assert rank(Q, m) == 3 and calls == [3]
    assert rank(Q, [[1, 1], [1, 1 + P]]) == 2 and calls == [3, 2]
    assert rank(Q, [row[:2] for row in m[:2]] + [[Fraction(3), Fraction(6)]]) == 2
    calls.clear()
    assert rank(Q, [[Fraction(1, 3), Fraction(2)], [Fraction(0), Fraction(5, 7)]]) == 2
    assert calls == [2]


def _slot_masks(width, nslots):
    """(ones, evens) as `_eliminate` builds them for nslots slots."""
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * nslots, "little")
    evens = int.from_bytes((b"\xff" * width).ljust(2 * width, b"\0")
                           * (nslots // 2 + 1), "little")
    return ones, evens


PRIMES = [2, 3, 7, 101, DEFAULT_PRIME, 2 ** 61 - 1]


@pytest.mark.parametrize("p", PRIMES)
def test_the_pivot_reduction_is_the_slot_wise_remainder(p):
    # Every slot below nrows p^2 comes out as its remainder mod p, in odd and
    # even slot counts, at the edges 0, p - 1, p, 2p - 1 and nrows p^2 - 1,
    # which a quotient one too high or too low, or no final subtraction,
    # gets wrong.
    rng = random.Random(p + 2)
    for nrows in (1, 2, 17, 300):
        _, width = packing(SimpleNamespace(char=p), nrows)
        bits = 8 * width
        edges = [0, p - 1, p, 2 * p - 1, nrows * p * p - 1]
        for nslots in (1, 2, 5, 6, 11):
            ones, evens = _slot_masks(width, nslots)
            for _ in range(12):
                slots = [rng.choice(edges) if rng.random() < 0.6
                         else rng.randrange(nrows * p * p)
                         for _ in range(nslots)]
                x = sum(v << bits * i for i, v in enumerate(slots))
                expected = sum(v % p << bits * i for i, v in enumerate(slots))
                assert linalg._reduced(x, p, bits, ones, evens) == expected
            top = nrows * p * p - 1
            x = sum(top << bits * i for i in range(nslots))
            assert linalg._reduced(x, p, bits, ones, evens) == \
                sum(top % p << bits * i for i in range(nslots))


def _staircase(rng, p, nrows, ncols):
    """Rows with random runs of leading zeros, some of them zero rows, and a
    few rows repeated as multiples of earlier ones."""
    rows = []
    for _ in range(nrows):
        lead = rng.randint(0, ncols)
        row = [0] * lead + [rng.randint(-3 * p, 3 * p) * (rng.random() < 0.8)
                            for _ in range(ncols - lead)]
        if rows and rng.random() < 0.3:
            f = rng.randint(1, p)
            row = [f * x + y for x, y in zip(rng.choice(rows), row)] \
                if rng.random() < 0.5 else [f * x for x in rng.choice(rows)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", PRIMES)
def test_packed_elimination_on_staircase_matrices(p):
    # rank_mod_p and first_pivotless against the independent elimination, at
    # row counts on both sides of the first step in the slot width.
    F = SimpleNamespace(char=p)
    step = next(n for n in range(2, 1 << 12)
                if packing(F, n)[1] > packing(F, n - 1)[1])
    rng = random.Random(p + 3)
    for nrows in (1, 2, 3, 5, 9, step - 1, step):
        for _ in range(4 if nrows < 100 else 1):
            ncols = rng.randint(1, 12)
            m = _staircase(rng, p, nrows, ncols)
            r = independent_rank_mod_p(p, m)
            assert rank_mod_p(F, m) == r
            expected = next((c for c in range(ncols) if independent_rank_mod_p(
                p, [row[:c + 1] for row in m]) == c), None)
            _, width = packing(F, nrows)
            ends = sorted(set(rng.sample(range(1, ncols + 1),
                                         rng.randint(1, ncols))) | {ncols})
            found = first_pivotless(p, width,
                                    [_pack(p, row, width) for row in m], ends)
            if expected is None:
                assert found is None
            else:
                end = next(e for e in ends if e > expected)
                assert found == (expected, independent_rank_mod_p(
                    p, [row[:end] for row in m]))
