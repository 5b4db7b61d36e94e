"""Exact dense linear algebra over the session field (Gaussian elimination).

Entries are plain ints over F_p, reduced mod p = F.char, or Fractions over
the rationals (p = 0); the input rows may hold unreduced ints.
"""

from __future__ import annotations


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


def rank(F, rows: list) -> int:
    return len(rref(F, rows)[1])


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
            v[pcol] = -red[i][fcol] % p if p else -red[i][fcol]
        basis.append(v)
    return basis
