"""Graded pieces of the syzygy module of (f_0, ..., f_n) by exact linear algebra.

The degree-nu piece is the kernel of the Macaulay matrix M_nu, which sends
coefficient vectors of (a_0, ..., a_n), each a_i of degree nu, to the
coefficients of sum a_i f_i in degree nu + d.

`graded_syzygy_kernel` settles one degree: a full rank mod p means no
syzygy and no elimination, and otherwise one exact RREF gives the basis,
each vector re-verified symbolically.

`indeg_syzygy` finds the initial degree without ranking every degree.  Let
the columns (i, mu) of M_nu run by decreasing X0 exponent of mu.
Multiplication by X0 is injective, so the first (n+1) C(k+m, m) columns
are X0^(nu-k) M_k, and one forward elimination of M_nu gives the rank of
every M_k with k <= nu.  If its first pivotless column lies in block k (mu
of X0 exponent nu - k), then every M_j with j < k has full column rank mod
p, hence over Q too, and M_k is deficient mod p.  Probes at degrees 1, 2,
4, ... (Bentley & Yao's unbounded search) stop at the first one with a
pivotless column, and `graded_syzygy_kernel` builds the basis at its k.
Degree 0 is never certified by counting, so a linearly dependent map comes
back with its degree-0 basis, whose vectors are the linear relations.
"""

from __future__ import annotations

from math import comb, lcm
from operator import add
from typing import NamedTuple

from .errors import NoSyzygyFound, SyzygyCheckFailed
from .jacobian import RationalMapInput
from .linalg import first_pivotless, kernel_basis, rank_mod_p
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


def _deficient_block(inp: RationalMapInput, nu: int) -> int | None:
    """The least k <= nu whose M_k has deficient rank mod p (over Q, at
    `first_pivotless`'s prime), or None: one forward elimination of M_nu with
    its columns (mu, i) in the lex descending order of mu, which is by
    decreasing X0 exponent.  Over Q each form is scaled by the lcm of its
    denominators, which scales columns and keeps the rank."""
    n1 = len(inp.f)
    source = monomials_of_degree(inp.nvars, nu)
    target = monomials_of_degree(inp.nvars, nu + inp.d)
    index = {e: i for i, e in enumerate(target)}
    forms = []
    for fi in inp.f:
        den = lcm(*(c.denominator for c in fi.terms.values()))
        forms.append([(e, c.numerator * (den // c.denominator))
                      for e, c in fi.terms.items()])
    entries = ((index[tuple(map(add, e, mu))], j * n1 + i, c)
               for j, mu in enumerate(source)
               for i, terms in enumerate(forms) for e, c in terms)
    c = first_pivotless(inp.field, len(target), n1 * len(source), entries)
    return None if c is None else nu - source[c // n1][0]


def indeg_syzygy(inp: RationalMapInput) -> IndegResult:
    """Smallest nu with a nonzero syzygy.  Above degree 0, more coefficient
    tuples (n+1) C(nu+m, m) than combinations C(nu+d+m, m) certify one by
    counting at `hit`, with no matrix.  Probes at degrees 1, 2, 4, ...,
    capped at hit - 1 (at d when counting certifies none), find the first
    degree k deficient mod p, and `graded_syzygy_kernel` builds its basis.
    Over Q the rank mod p may understate: when the exact kernel at k is
    empty, each higher degree, all deficient mod p, goes to it in turn.  A
    Koszul relation f_j e_i - f_i e_j makes the search succeed by d."""
    m, d = inp.m, inp.d
    hit = next((nu for nu in range(1, d + 1)
                if len(inp.f) * comb(nu + m, m) > comb(nu + d + m, m)), None)
    top = d if hit is None else hit - 1
    probe = 1
    while (k := _deficient_block(inp, min(probe, top))) is None and probe < top:
        probe *= 2
    for nu in range(top + 1 if k is None else k, top + 1):
        basis = graded_syzygy_kernel(inp, nu)
        if basis:
            return IndegResult(indeg=nu, basis=basis)
    if hit is None:
        raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")
    return IndegResult(indeg=hit)


def linear_dependence_check(inp: RationalMapInput):
    """(dependent?, relation), the relation being the first vector of the
    degree-0 syzygy basis when there is one."""
    basis = graded_syzygy_kernel(inp, 0)
    return (True, constant_relation(basis[0])) if basis else (False, None)


def constant_relation(syzygy: tuple) -> tuple:
    """The scalars c_i of a degree-0 syzygy (c_0, ..., c_n)."""
    return tuple(a.terms.get((0,) * a.nvars, 0) for a in syzygy)
