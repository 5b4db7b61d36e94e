"""Exact dense linear algebra over the session field (Gaussian elimination)."""

from __future__ import annotations


def rref(F, rows: list) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not F.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(F, rows: list) -> int:
    return len(rref(F, rows)[1])


def kernel_basis(F, rows: list, ncols: int) -> list:
    """Basis of the right kernel, one vector per free column (RREF-normalised)."""
    red, pivots = rref(F, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        v = [F.zero] * ncols
        v[fcol] = F.one
        for i, pcol in enumerate(pivots):
            v[pcol] = F.neg(red[i][fcol])
        basis.append(v)
    return basis

