"""Graded pieces of the syzygy module of (f_0, ..., f_n) by exact linear algebra.

The degree-nu piece is the kernel of the linear map sending coefficient
vectors of (a_0, ..., a_n), each a_i of degree nu, to the coefficients of
sum a_i f_i in degree nu + d.  The initial degree of the syzygy module is
found by scanning nu upwards; a Koszul relation guarantees a hit by nu = d.

`indeg_syzygy` needs no vectors: it takes ranks, and builds a kernel basis
(RREF, re-verified symbolically) only at a hit that counting does not
certify.  Degree 0 is always ranked, so a linearly dependent map comes back
with its degree-0 basis, whose vectors are the linear relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add

from .errors import NoSyzygyFound, SyzygyCheckFailed
from .jacobian import RationalMapInput
from .linalg import kernel_basis, rank
from .poly import MvPoly


def monomials_of_degree(nvars: int, deg: int) -> list:
    """All exponent tuples of the given total degree, graded-lex descending:
    within one degree that is lex order, which the recursion emits."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), deg, nvars)
    return out


@dataclass
class GradedKernelBasis:
    basis: list          # list of (n+1)-tuples of MvPoly

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class IndegResult:
    indeg: int | None    # None marks +infinity within the searched range
    searched_up_to: int
    basis: list | None = None  # verified, when built (always at indeg 0)


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
    return _verified_kernel(inp, *_degree_matrix(inp, nu))


def _verified_kernel(inp: RationalMapInput, source: list,
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
    return GradedKernelBasis(basis=basis)


def indeg_syzygy(inp: RationalMapInput) -> IndegResult:
    """Smallest nu with a nonzero syzygy.  The search runs to d, where a
    Koszul relation f_j e_i - f_i e_j makes it always succeed."""
    pieces = (_syzygy_piece(inp, nu) for nu in range(inp.d + 1))
    return indeg_from_pieces(inp, pieces, inp.d)


def _syzygy_piece(inp: RationalMapInput, nu: int) -> tuple[int, list | None]:
    """(dim Syz_nu, its verified basis or None).  Above degree 0, more
    columns than rows give a positive lower bound and no basis; otherwise a
    basis is built, from the matrix just ranked, at a deficient rank."""
    m = inp.nvars - 1
    ncols = len(inp.f) * comb(nu + m, m)
    nrows = comb(nu + inp.d + m, m)
    if nu and ncols > nrows:
        return ncols - nrows, None
    source, rows = _degree_matrix(inp, nu)
    r = rank(inp.field, rows)
    if r == ncols:
        return 0, None
    basis = _verified_kernel(inp, source, rows).basis
    if len(basis) != ncols - r:
        raise NoSyzygyFound(f"degree {nu}: kernel basis of size {len(basis)}, "
                            f"but the rank leaves {ncols - r}")
    return len(basis), basis


def indeg_from_pieces(inp: RationalMapInput, pieces, cap: int) -> IndegResult:
    """Initial degree from the (dimension, basis or None) of the graded
    pieces in degrees 0..cap, in order.  Stops at the first nonzero
    dimension, so `pieces` may be a lazy iterable."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for nu, (dim, basis) in enumerate(pieces):
        if dim > 0:
            return IndegResult(indeg=nu, searched_up_to=nu, basis=basis)
    if cap >= inp.d and inp.n >= 1:
        raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")
    return IndegResult(indeg=None, searched_up_to=cap)


def linear_dependence_check(inp: RationalMapInput):
    """(dependent?, relation), the relation being the first vector of the
    degree-0 syzygy basis when there is one."""
    basis = graded_syzygy_kernel(inp, 0).basis
    return (True, constant_relation(basis[0])) if basis else (False, None)


def constant_relation(syzygy: tuple) -> tuple:
    """The scalars c_i of a degree-0 syzygy (c_0, ..., c_n)."""
    return tuple(a.terms.get((0,) * a.nvars, a.field.zero) for a in syzygy)
