"""Graded pieces of the syzygy module of (f_0, ..., f_n) by exact linear algebra.

The degree-nu piece is the kernel of the linear map sending coefficient
vectors of (a_0, ..., a_n), each a_i of degree nu, to the coefficients of
sum a_i f_i in degree nu + d.  The initial degree of the syzygy module is
found by scanning nu upwards; a Koszul relation guarantees a hit by nu = d.

`indeg_syzygy` needs no vectors: it takes ranks, and builds a kernel basis
(RREF, re-verified symbolically) only at a hit that counting does not
certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add

from .errors import NoSyzygyFound, SyzygyCheckFailed
from .jacobian import RationalMapInput
from .linalg import kernel_basis, rank
from .poly import MvPoly, grlex_key


def monomials_of_degree(nvars: int, deg: int) -> list:
    """All exponent tuples of the given total degree, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), deg, nvars)
    out.sort(key=grlex_key, reverse=True)
    return out


@dataclass
class GradedKernelBasis:
    degree: int
    basis: list          # list of (n+1)-tuples of MvPoly
    dimension: int


@dataclass
class IndegResult:
    indeg: int | None    # None marks +infinity within the searched range
    searched_up_to: int


def _degree_matrix(inp: RationalMapInput, nu: int) -> tuple[list, list]:
    """(source monomials, rows) of (a_0..a_n) -> sum a_i f_i in degree nu;
    column i * len(source) + j holds a_i's coefficient of source[j]."""
    F = inp.field
    source = monomials_of_degree(inp.nvars, nu)
    target = monomials_of_degree(inp.nvars, nu + inp.d)
    index = {e: i for i, e in enumerate(target)}
    ncols = len(inp.f) * len(source)
    rows = [[F.zero] * ncols for _ in range(len(target))]
    col = 0
    for fi in inp.f:
        for mu in source:
            # e -> e + mu is injective, so each cell receives one coefficient.
            for e, c in fi.terms.items():
                rows[index[tuple(map(add, e, mu))]][col] = c
            col += 1
    return source, rows


def graded_syzygy_kernel(inp: RationalMapInput, nu: int) -> GradedKernelBasis:
    """Kernel basis in degree nu, RREF-normalised and re-verified symbolically."""
    if nu < 0:
        raise ValueError("degree must be nonnegative")
    return _verified_kernel(inp, nu, *_degree_matrix(inp, nu))


def _verified_kernel(inp: RationalMapInput, nu: int, source: list,
                     rows: list) -> GradedKernelBasis:
    """Kernel basis of the degree-nu matrix `rows` from `_degree_matrix`,
    each vector re-verified as a syzygy by multiplying it out."""
    F = inp.field
    nvars = inp.nvars
    k = len(source)
    vectors = kernel_basis(F, rows, len(inp.f) * k)
    basis = []
    for v in vectors:
        # Entry i of the syzygy holds the coefficients v[i*k:(i+1)*k].
        tup = tuple(MvPoly(F, nvars, dict(zip(source, v[i * k:(i + 1) * k])))
                    for i in range(len(inp.f)))
        combo = MvPoly.zero(F, nvars)
        for ai, fi in zip(tup, inp.f):
            combo = combo + ai * fi
        if not combo.is_zero():
            raise SyzygyCheckFailed("kernel vector failed symbolic re-verification")
        basis.append(tup)
    return GradedKernelBasis(degree=nu, basis=basis, dimension=len(basis))


def indeg_syzygy(inp: RationalMapInput) -> IndegResult:
    """Smallest nu with a nonzero syzygy.  The search runs to d, where a
    Koszul relation f_j e_i - f_i e_j makes it always succeed."""
    dims = (_syzygy_dimension(inp, nu) for nu in range(inp.d + 1))
    return indeg_from_dimensions(inp, dims, inp.d)


def _syzygy_dimension(inp: RationalMapInput, nu: int) -> int:
    """dim Syz_nu, or a positive lower bound when there are more columns
    than rows; a kernel basis is built, from the same matrix, only at a
    deficient rank."""
    m = inp.nvars - 1
    ncols = len(inp.f) * comb(nu + m, m)
    nrows = comb(nu + inp.d + m, m)
    if ncols > nrows:
        return ncols - nrows
    source, rows = _degree_matrix(inp, nu)
    r = rank(inp.field, rows)
    if r == ncols:
        return 0
    dim = _verified_kernel(inp, nu, source, rows).dimension
    if dim != ncols - r:
        raise NoSyzygyFound(f"degree {nu}: kernel basis of size {dim}, "
                            f"but the rank leaves {ncols - r}")
    return dim


def indeg_from_dimensions(inp: RationalMapInput, dims, cap: int) -> IndegResult:
    """Initial degree from the kernel dimensions in degrees 0..cap, in order.

    Stops at the first nonzero dimension, so `dims` may be a lazy iterable.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for nu, dim in enumerate(dims):
        if dim > 0:
            return IndegResult(indeg=nu, searched_up_to=nu)
    if cap >= inp.d and inp.n >= 1:
        raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")
    return IndegResult(indeg=None, searched_up_to=cap)
