"""Exact dense linear algebra over the coefficient field.

Entries are plain ints over F_p, reduced mod p = F.char; over the
rationals (p = 0) an entry is an int or a Fraction, and `kernel_basis`
returns each as an int when it is integral and a Fraction otherwise.  The
input rows may hold unreduced ints.
`rank_mod_p` eliminates forward only, on rows packed into one int each (the
word packing of FFLAS-FFPACK, Dumas, Giorgi & Pernet 2008); `rref` serves
`kernel_basis` and the exact `rank`, which ranks only small scalar matrices.
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
    """Rank over F_p of integer rows by forward elimination on packed rows.

    Column c of a row is its c-th slot of `width` bytes, lowest first.  A
    pivot row is reduced and scaled to lead with 1; a row is updated as
    row + off - f * pivot with f < p and p^2 in every slot of `off`, so no
    slot borrows, and after at most len(rows) - 1 updates a slot is still
    below len(rows) * p^2.  Each row drops its lowest slot per column.
    """
    if not rows or not ncols:
        return 0
    width = (2 * p.bit_length() + len(rows).bit_length() + 2 + 7) // 8
    bits = 8 * width
    mask = (1 << bits) - 1
    shifts = range(0, ncols * bits, bits)

    def pack(entries) -> int:
        return sum([(x % p) << s for x, s in zip(entries, shifts) if x])

    live = [r for r in map(pack, rows) if r]
    off = int.from_bytes((p * p).to_bytes(width, "little") * ncols, "little")
    found = 0
    for c in range(ncols):
        k = next((i for i, r in enumerate(live) if (r & mask) % p), None)
        if k is None:
            live = [s for r in live if (s := r >> bits)]
        else:
            slots = unpack_slots(live.pop(k), width,
                                 range(0, (ncols - c) * width, width))
            inv = pow(slots[0], -1, p)
            pivot = pack([x * inv for x in slots])
            found += 1
            live = [s for r in live
                    if (s := (r + off - f * pivot if (f := (r & mask) % p)
                              else r) >> bits)]
        off >>= bits
    return found


def kernel_basis(F, rows: list, ncols: int) -> list:
    """Basis of the right kernel, one vector per free column (RREF-normalised)."""
    p = F.char
    red, pivots = rref(F, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [F.zero] * ncols
        v[fcol] = F.one
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol] % p if p else F.conv(-red[i][fcol])
        basis.append(v)
    return basis
