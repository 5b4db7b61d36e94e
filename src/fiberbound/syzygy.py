"""Graded pieces of the syzygy module of (f_0, ..., f_n) by exact linear algebra.

The degree-nu piece is the kernel of the linear map sending coefficient
vectors of (a_0, ..., a_n), each a_i of degree nu, to the coefficients of
sum a_i f_i in degree nu + d.  The initial degree of the syzygy module is
found by scanning nu upwards; a Koszul relation guarantees a hit by nu = d.

`graded_syzygy_kernel` settles one degree: a full rank mod p means no
syzygy and no elimination, and otherwise one exact RREF gives the basis,
each vector re-verified symbolically.  `indeg_syzygy` calls it at every
degree that counting does not certify.  Degree 0 is never certified by
counting, so a linearly dependent map comes back with its degree-0 basis,
whose vectors are the linear relations.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import NamedTuple

from .errors import NoSyzygyFound, SyzygyCheckFailed
from .jacobian import RationalMapInput
from .linalg import kernel_basis, rank_mod_p
from .poly import MvPoly, monomials_of_degree


class IndegResult(NamedTuple):
    indeg: int
    basis: list | None = None  # verified, unless counting certified the hit


def _degree_matrix(inp: RationalMapInput, nu: int) -> tuple[list, list]:
    """(source monomials, rows) of (a_0..a_n) -> sum a_i f_i in degree nu;
    column i * len(source) + j holds a_i's coefficient of source[j]."""
    source = monomials_of_degree(inp.nvars, nu)
    target = monomials_of_degree(inp.nvars, nu + inp.d)
    index = {e: i for i, e in enumerate(target)}
    ncols = len(inp.f) * len(source)
    rows = [[0] * ncols for _ in range(len(target))]
    col = 0
    for fi in inp.f:
        for mu in source:
            # e -> e + mu is injective, so each cell receives one coefficient.
            for e, c in fi.terms.items():
                rows[index[tuple(map(add, e, mu))]][col] = c
            col += 1
    return source, rows


def graded_syzygy_kernel(inp: RationalMapInput, nu: int) -> list:
    """Basis of the degree-nu syzygies, as (n+1)-tuples of MvPoly.

    A full `rank_mod_p` returns [] with no elimination; over Q that rank can
    only understate the true one, so it certifies there too.  Otherwise one
    `kernel_basis` RREF gives the basis.  Each tuple is re-multiplied as a
    syzygy, and the basis size must equal the kernel dimension the rank
    leaves over F_p, and be at most it over Q.
    """
    if nu < 0:
        raise ValueError("degree must be nonnegative")
    F = inp.field
    nvars = inp.nvars
    source, rows = _degree_matrix(inp, nu)
    k = len(source)
    ncols = len(inp.f) * k
    r = rank_mod_p(F, rows)
    if r == ncols:
        return []
    basis = []
    for v in kernel_basis(F, rows, ncols):
        # Entry i of the syzygy holds the coefficients v[i*k:(i+1)*k].
        tup = tuple(MvPoly(F, nvars, dict(zip(source, v[i * k:(i + 1) * k])))
                    for i in range(len(inp.f)))
        combo = MvPoly.zero(F, nvars)
        for ai, fi in zip(tup, inp.f):
            combo = combo + ai * fi
        if not combo.is_zero():
            raise SyzygyCheckFailed("kernel vector failed symbolic re-verification")
        basis.append(tup)
    if len(basis) > ncols - r or (F.char and len(basis) < ncols - r):
        raise NoSyzygyFound(f"degree {nu}: kernel basis of size {len(basis)}, "
                            f"but the rank leaves {ncols - r}")
    return basis


def indeg_syzygy(inp: RationalMapInput) -> IndegResult:
    """Smallest nu with a nonzero syzygy.  Above degree 0, more coefficient
    tuples (n+1) C(nu+m, m) than combinations C(nu+d+m, m) certify one by
    counting, with no matrix; `graded_syzygy_kernel` settles every other
    degree.  The search runs to d, where a Koszul relation
    f_j e_i - f_i e_j makes it always succeed."""
    m = inp.m
    for nu in range(inp.d + 1):
        if nu and len(inp.f) * comb(nu + m, m) > comb(nu + inp.d + m, m):
            return IndegResult(indeg=nu)
        basis = graded_syzygy_kernel(inp, nu)
        if basis:
            return IndegResult(indeg=nu, basis=basis)
    raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")


def linear_dependence_check(inp: RationalMapInput):
    """(dependent?, relation), the relation being the first vector of the
    degree-0 syzygy basis when there is one."""
    basis = graded_syzygy_kernel(inp, 0)
    return (True, constant_relation(basis[0])) if basis else (False, None)


def constant_relation(syzygy: tuple) -> tuple:
    """The scalars c_i of a degree-0 syzygy (c_0, ..., c_n)."""
    return tuple(a.terms.get((0,) * a.nvars, 0) for a in syzygy)
