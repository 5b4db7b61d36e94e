"""Exact dense linear algebra over the coefficient field.

Entries are plain ints over F_p, reduced mod p = F.char; over the
rationals (p = 0) an entry is an int or a Fraction, and `kernel_basis`
returns each as an int when it is integral and a Fraction otherwise.  The
input rows may hold unreduced ints.
`rank_mod_p` and `first_pivotless` share one forward elimination,
`_eliminate`, on rows packed into one int each (the word packing of
FFLAS-FFPACK, Dumas, Giorgi & Pernet 2008): column c of a row is its c-th
slot of W = 8 * width bits, lowest first, and no step of it loops over the
slots of a row in Python.  `first_pivotless` stops at the end of the
block of columns that holds the first column without a pivot.  `rref`
serves `kernel_basis` and the exact `rank`, which ranks only small scalar
matrices.

* Pivot reduction, Barrett's (CRYPTO '86) on every slot at once
  (`_reduced`).  A slot holds x < nrows p^2 < 2^(W-2) (`packing`).  The
  even slots, and the odd ones shifted down, each sit in a slot of 2W bits,
  where x R < 2^(2W) for R = floor(2^W / p), so one product forms every
  x R with no carry.  With 2^W = R p + s and 0 <= s < p,
  x R / 2^W = x/p - x s / (p 2^W) lies in (x/p - 1, x/p], so
  q = floor(x R / 2^W) is floor(x/p) or one less, and x - q p lies in
  [0, 2p).  Every slot of that difference is nonnegative, so the packed
  subtraction borrows nowhere.  Then y + 2^(W-1) - p, with p < 2^(W-1),
  stays below 2^W in every slot and has bit W-1 set just where y >= p, and
  subtracting p there leaves y mod p.
* Updates by a negated pivot.  The reduced pivot y is stored as p - y in
  every slot of its extent, unscaled, so each slot lies in [1, p].  A row r
  with lowest slot r_0 becomes (r + f (p - y)) >> W with f = r_0 l^-1 mod p,
  l the pivot's lowest slot, whose dropped slot r_0 - f l vanishes mod p.
  An update adds less than p^2 to a slot; a row starts below p and is
  updated at most nrows - 1 times, so its slots stay below nrows p^2.
* Rows join at their first nonzero column.  At a column c, forward
  elimination changes a row only by a multiple of the pivot, with a factor
  that vanishes when the row's entry at c does, and a zero entry is never a
  pivot.  So a row that is zero before column c is only shifted until c,
  and packing it from c and adding it to the live rows there leaves the
  live rows at c the same, up to order.  Column c holds a pivot just when
  the rank of columns 0..c exceeds that of columns 0..c-1, whatever the
  order, so the pivot pattern does not change.
"""

from __future__ import annotations

import math

from .fields import DEFAULT_PRIME


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
    if not F.char:
        dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
        rows = [[x.numerator * (den // x.denominator) for x in row]
                for row, den in zip(rows, dens)]
    p, width = packing(F, len(rows))
    return sum(_eliminate(p, width, [_pack(p, row, width) for row in rows],
                          ncols))


def rank(F, rows: list) -> int:
    """Exact rank of a list of equal-length rows: the pivot count of `rref`."""
    return len(rref(F, rows)[1])


def first_pivotless(p: int, width: int, rows: list, ends) -> tuple | None:
    """(c, r) for packed rows mod p (`packing`): c is the first column
    without a pivot under forward elimination, that is the least c whose
    columns 0..c are dependent mod p, and r the rank of the columns below
    the least of the ascending `ends` above c, which is their pivot count;
    elimination stops there.  None when all ends[-1] columns are
    independent."""
    pivots = _eliminate(p, width, rows, ends[-1])
    c = next((c for c, pivot in enumerate(pivots) if not pivot), None)
    if c is None:
        return None
    end = next(e for e in ends if e > c)
    return c, c + sum(next(pivots) for _ in range(c + 1, end))


def packing(F, nrows: int) -> tuple[int, int]:
    """(p, width) of the packed elimination of an nrows-row matrix over F:
    the prime, F.char or DEFAULT_PRIME over Q, and the bytes per column,
    2 bitlen(p) + bitlen(nrows) + 2 bits rounded up to whole bytes, so that
    a slot below nrows p^2 is below 2^(8 width - 2)."""
    p = F.char or DEFAULT_PRIME
    return p, (2 * p.bit_length() + nrows.bit_length() + 2 + 7) // 8


def _pack(p: int, entries, width: int) -> int:
    """One int holding the entries mod p, entry c in the c-th width-byte
    slot, lowest first."""
    return int.from_bytes(b"".join([(x % p).to_bytes(width, "little")
                                    for x in entries]), "little")


def _reduced(x: int, p: int, bits: int, ones: int, evens: int) -> int:
    """x with each bits-wide slot below 2^(bits-2) reduced mod p: `ones`
    holds 1 in every slot of x, `evens` all ones in its even slots (see the
    module docstring)."""
    barrett = (1 << bits) // p
    lo = (x & evens) * barrett >> bits & evens
    hi = (x >> bits & evens) * barrett >> bits & evens
    y = x - (lo | hi << bits) * p
    return y - ((y + ((1 << bits - 1) - p) * ones) >> bits - 1 & ones) * p


def _eliminate(p: int, width: int, rows: list, ncols: int):
    """Forward elimination mod p on packed rows of ncols slots; yields,
    column by column, whether the column holds a pivot.  Each nonzero row
    joins at its first nonzero column; the pivot is reduced by `_reduced`
    and negated, and each row drops its lowest slot per column."""
    bits = 8 * width
    mask = (1 << bits) - 1
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * ncols, "little")
    evens = int.from_bytes((b"\xff" * width).ljust(2 * width, b"\0")
                           * (ncols // 2 + 1), "little")
    joins = [[] for _ in range(ncols)]
    for x in rows:
        if x:
            c = ((x & -x).bit_length() - 1) // bits
            joins[c].append(x >> c * bits)
    live = []
    for joining in joins:
        live += joining
        k = next((i for i, r in enumerate(live) if (r & mask) % p), None)
        if k is None:
            yield False
            live = [s for r in live if (s := r >> bits)]
        else:
            y = _reduced(live.pop(k), p, bits, ones, evens)
            npivot = p * ones - y
            inv = pow(y & mask, -1, p)
            yield True
            live = [s for r in live
                    if (s := (r + f * npivot if (f := (r & mask) * inv % p)
                              else r) >> bits)]
        ones >>= bits


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
