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
pivotless column.  That probe eliminates on to the end of block k, whose
pivot count is the rank of M_k mod p, and `graded_syzygy_kernel` builds the
basis at k with that rank, ranking nothing again.  Over Q the rank mod p is
at most the rank over Q, so the basis size stays bounded by what it leaves.
Degree 0 is never certified by counting, so a linearly dependent map comes
back with its degree-0 basis, whose vectors are the linear relations.

A probe keys each monomial e by the int sum e_j B^j, B = nu + d + 1: every
exponent is below B, so the keys are distinct and key(e + mu) =
key(e) + key(mu), and each cell of M_nu costs one addition, one dict lookup
and one slice write of bytes computed once per term.  The rows reach
`linalg._eliminate` whole; a row e of M_nu is zero in every column whose mu
does not divide e, so the rows of low X0 exponent join the elimination late,
at their first nonzero column, which leaves the pivot pattern unchanged: up
to that column the row would only be shifted, since its factor there is 0.
"""

from __future__ import annotations

from math import comb, lcm
from operator import add, mul
from typing import NamedTuple

from .errors import NoSyzygyFound, SyzygyCheckFailed
from .jacobian import RationalMapInput
from .linalg import first_pivotless, kernel_basis, packing, rank_mod_p
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


def graded_syzygy_kernel(inp: RationalMapInput, nu: int,
                         rank: int | None = None) -> list:
    """Basis of the degree-nu syzygies, as (n+1)-tuples of MvPoly.

    A full `rank_mod_p` returns [] with no elimination; over Q that rank can
    only understate the true one, so it certifies there too.  A caller that
    has ranked M_nu mod p already, at `linalg.packing`'s prime, passes that
    `rank` instead.  Otherwise one `kernel_basis` RREF gives the basis.
    Each tuple is re-multiplied as a syzygy, and the basis size must equal
    the kernel dimension the rank leaves over F_p, and be at most it over Q.
    """
    if nu < 0:
        raise ValueError("degree must be nonnegative")
    F = inp.field
    nvars = inp.nvars
    source, rows = _degree_matrix(inp, nu)
    k = len(source)
    ncols = len(inp.f) * k
    r = rank_mod_p(F, rows) if rank is None else rank
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


def _deficient_block(inp: RationalMapInput, nu: int) -> tuple | None:
    """(k, rank M_k) for the least k <= nu whose M_k has deficient rank mod p
    (over Q, at `packing`'s prime), or None: one forward elimination of M_nu
    with its columns (mu, i) in the lex descending order of mu, which is by
    decreasing X0 exponent, run to the end of block k.  Over Q each form is
    scaled by the lcm of its denominators, which scales columns and keeps
    the rank."""
    n1, m = len(inp.f), inp.m
    source = monomials_of_degree(inp.nvars, nu)
    # Every exponent is below B = nu + d + 1, so the keys sum e_j B^j of the
    # rows' monomials are distinct, and key(e + mu) = key(e) + key(mu).
    powers = [(nu + inp.d + 1) ** j for j in range(inp.nvars)]
    targets = monomials_of_degree(inp.nvars, nu + inp.d)
    p, width = packing(inp.field, len(targets))
    size = n1 * len(source) * width
    rows = {sum(map(mul, e, powers)): bytearray(size) for e in targets}
    forms = []
    for fi in inp.f:
        den = lcm(*(c.denominator for c in fi.terms.values()))
        forms.append([(sum(map(mul, e, powers)),
                       (c.numerator * (den // c.denominator) % p)
                       .to_bytes(width, "little"))
                      for e, c in fi.terms.items()])
    at = 0
    for mu in source:
        shift = sum(map(mul, mu, powers))
        for terms in forms:
            column = slice(at, at + width)
            # e -> e + mu is injective, so each cell receives one coefficient.
            for key, cell in terms:
                rows[key + shift][column] = cell
            at += width
    packed = [int.from_bytes(b, "little") for b in rows.values()]
    found = first_pivotless(p, width, packed,
                            [n1 * comb(k + m, m) for k in range(nu + 1)])
    if found is None:
        return None
    c, r = found
    return nu - source[c // n1][0], r


def indeg_syzygy(inp: RationalMapInput) -> IndegResult:
    """Smallest nu with a nonzero syzygy.  Above degree 0, more coefficient
    tuples (n+1) C(nu+m, m) than combinations C(nu+d+m, m) certify one by
    counting at `hit`, with no matrix.  Probes at degrees 1, 2, 4, ...,
    capped at hit - 1 (at d when counting certifies none), find the first
    degree k deficient mod p and the rank of M_k, and
    `graded_syzygy_kernel` builds its basis with that rank.  Over Q the
    rank mod p may understate: when the exact kernel at k is empty, each
    higher degree, all deficient mod p, goes to it in turn.  A Koszul
    relation f_j e_i - f_i e_j makes the search succeed by d."""
    m, d = inp.m, inp.d
    hit = next((nu for nu in range(1, d + 1)
                if len(inp.f) * comb(nu + m, m) > comb(nu + d + m, m)), None)
    top = d if hit is None else hit - 1
    probe = 1
    while (found := _deficient_block(inp, min(probe, top))) is None \
            and probe < top:
        probe *= 2
    k, r = found or (top + 1, None)
    for nu in range(k, top + 1):
        basis = graded_syzygy_kernel(inp, nu, r)
        if basis:
            return IndegResult(indeg=nu, basis=basis)
        r = None
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
