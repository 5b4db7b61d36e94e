"""Exact dense linear algebra over the coefficient field.

Entries are plain ints over F_p, reduced mod p = F.char; over the
rationals (p = 0) an entry is an int or a Fraction, and `kernel_basis`
returns each as an int when it is integral and a Fraction otherwise.  The
input rows may hold unreduced ints.
`rank_mod_p` and `first_pivotless` share one forward elimination, on rows
packed into one int each (the word packing of FFLAS-FFPACK, Dumas, Giorgi
& Pernet 2008); `first_pivotless` stops at the first column without a
pivot.  `rref` serves `kernel_basis` and the exact `rank`, which ranks
only small scalar matrices.
"""

from __future__ import annotations

import math

from .fields import DEFAULT_PRIME
from .poly import unpack_slots


def rref(F, rows: list) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    p = F.char
    rows = [[x % p for x in r] for r in rows] if p else [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        prow = [x * inv % p for x in rows[r]] if p else [x * inv for x in rows[r]]
        rows[r] = prow
        for i, row in enumerate(rows):
            factor = row[c]
            if i == r or not factor:
                continue
            if p:
                rows[i] = [(x - factor * y) % p for x, y in zip(row, prow)]
            else:
                rows[i] = [x - factor * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank_mod_p(F, rows: list) -> int:
    """Rank of a list of equal-length rows over F_p, exact.  Over Q, the rank
    mod DEFAULT_PRIME of the rows scaled to integers: at most the rank over
    Q, so a full one certifies it."""
    ncols = len(rows[0]) if rows else 0
    p = F.char
    if p:
        return _packed_rank(p, rows, ncols)
    integral = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        integral.append([x.numerator * (den // x.denominator) for x in row])
    return _packed_rank(DEFAULT_PRIME, integral, ncols)


def rank(F, rows: list) -> int:
    """Exact rank of a list of equal-length rows: the pivot count of `rref`."""
    return len(rref(F, rows)[1])


def _packed_rank(p: int, rows: list, ncols: int) -> int:
    """Rank over F_p of integer rows: the pivot count of `_eliminate`."""
    width = _slot_width(p, len(rows))
    live = [r for r in (_pack(p, row, width) for row in rows) if r]
    return sum(_eliminate(p, live, ncols, width))


def first_pivotless(F, nrows: int, ncols: int, entries) -> int | None:
    """The first column without a pivot under forward elimination mod p,
    that is the least c whose columns 0..c are dependent mod p, or None when
    all ncols columns are independent.  `entries` gives the nonzero cells
    as (row, column, int) triples, each cell at most once; they are written
    straight into the packed rows, and elimination stops at that column.
    Over Q the ints are taken mod DEFAULT_PRIME, where a full column rank
    certifies one over Q."""
    p = F.char or DEFAULT_PRIME
    width = _slot_width(p, nrows)
    bufs = [bytearray(ncols * width) for _ in range(nrows)]
    for r, c, x in entries:
        bufs[r][c * width:(c + 1) * width] = (x % p).to_bytes(width, "little")
    live = [r for r in (int.from_bytes(b, "little") for b in bufs) if r]
    return next((c for c, pivot in enumerate(_eliminate(p, live, ncols, width))
                 if not pivot), None)


def _slot_width(p: int, nrows: int) -> int:
    """Bytes per column of a packed row of an nrows-row matrix over F_p:
    2 bitlen(p) + bitlen(nrows) + 2 bits, which hold nrows * p^2 (see
    `_eliminate`), rounded up to whole bytes."""
    return (2 * p.bit_length() + nrows.bit_length() + 2 + 7) // 8


def _pack(p: int, entries, width: int) -> int:
    """One int holding the entries mod p, entry c in the c-th width-byte
    slot, lowest first."""
    return int.from_bytes(b"".join([(x % p).to_bytes(width, "little")
                                    for x in entries]), "little")


def _eliminate(p: int, live: list, ncols: int, width: int):
    """Forward elimination over F_p on packed nonzero rows; yields, column by
    column, whether the column holds a pivot.

    Column c of a row is its c-th slot of `width` bytes, lowest first, and
    each row drops its lowest slot per column.  A pivot row is reduced and
    scaled to lead with 1; a row is updated as row + off - f * pivot with
    f < p and p^2 in every slot of `off`, so no slot borrows, and after at
    most len(live) - 1 updates a slot is still below len(live) * p^2,
    which `_slot_width` of at least len(live) rows holds.
    """
    bits = 8 * width
    mask = (1 << bits) - 1
    off = int.from_bytes((p * p).to_bytes(width, "little") * ncols, "little")
    for c in range(ncols):
        k = next((i for i, r in enumerate(live) if (r & mask) % p), None)
        if k is None:
            yield False
            live = [s for r in live if (s := r >> bits)]
        else:
            slots = unpack_slots(live.pop(k), width,
                                 range(0, (ncols - c) * width, width))
            inv = pow(slots[0], -1, p)
            pivot = _pack(p, [x * inv for x in slots], width)
            yield True
            live = [s for r in live
                    if (s := (r + off - f * pivot if (f := (r & mask) % p)
                              else r) >> bits)]
        off >>= bits


def kernel_basis(F, rows: list, ncols: int) -> list:
    """Basis of the right kernel, one vector per free column (RREF-normalised)."""
    p = F.char
    red, pivots = rref(F, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [0] * ncols
        v[fcol] = 1
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol] % p if p else F.conv(-red[i][fcol])
        basis.append(v)
    return basis
