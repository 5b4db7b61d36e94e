"""Fiber equations, discovery of contracted divisors, and the degree-bound
chain certificate.

Every divisor contracted by the map lies inside Z(F), so the target points
with (m-1)-dimensional fibers are images of points of Z(squarefree(F)); the
fiber equation h_y then comes out of a GCD of linear combinations of the
forms.

Discovery walks random affine lines in random coordinate charts and factors
the restriction of squarefree(F) to each line completely over F_p.  Each
irreducible factor q is a closed point of degree deg q on the line, and
points of every degree count: a component of Z(F) can be F_p-rational as a
divisor while carrying almost no F_p-rational points (conjugate lines
meeting in a single base point, say).  The line's point at infinity is one
more closed point when it lies on Z(F).  The image of each point is read
off the restrictions of the forms, and whenever it turns out to be rational
its fiber equation is computed.  Discovery stops at the first line with no
base point among these points, which finds every record (see
`discover_fibers`); `budget` caps the walk only when no line does, and the
coverage numbers in the result quantify anything left unexplained.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import (AllCombinationsZero, BasePointError, CharDividesDegree,
                     RationalModeUnsupported)
from .gcd import gcd_multivariate, squarefree_decompose, squarefree_part
from .jacobian import RationalMapInput, build_jacobian
from .linalg import rank
from .poly import MvPoly
from .univariate import u_deg, u_factor, u_rem, u_sub
# Kept bound here: bench/trace_layers.py wraps fibers.u_roots and
# fibers.irreducible_quadratics.
from .univariate import irreducible_quadratics, u_roots  # noqa: F401


class ProjectivePoint(NamedTuple):
    """Point of projective space, normalised so the first nonzero coordinate is 1."""

    coords: tuple

    @classmethod
    def create(cls, field, coords) -> "ProjectivePoint":
        coords = tuple(map(field.conv, coords))
        pivot = next((c for c in coords if c), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = field.inv(pivot)
        return cls(tuple(field.conv(c * inv) for c in coords))

    def pivot_index(self) -> int:
        """Index of the first nonzero coordinate, which is 1."""
        return next(i for i, c in enumerate(self.coords) if c)

    def to_str(self, field) -> str:
        return "(" + " : ".join(str(field.lift_balanced(c)) for c in self.coords) + ")"


class FiberRecord(NamedTuple):
    """A target point with an (m-1)-dimensional fiber and its equation."""

    y: ProjectivePoint
    h: MvPoly
    sqfree: list          # [(P_e, e)] pairwise-coprime square-free parts
    deg_h: int
    weighted_deg: int     # sum (2e-1) deg P_e

    @classmethod
    def at(cls, inp: RationalMapInput, y: ProjectivePoint) -> "FiberRecord":
        """The record of y: h_y, its square-free parts and their degrees
        (deg_h 0 and no parts when y has no divisorial fiber)."""
        h = fiber_equation(inp, y)
        sq = squarefree_decompose(h)
        return cls(y=y, h=h, sqfree=sq, deg_h=h.total_degree(),
                   weighted_deg=sum((2 * e - 1) * p.total_degree()
                                    for p, e in sq))


class DiscoveryResult:
    """What `discover_fibers` found: the records, sorted by point, and the
    counts of the walk (no records and all counts 0 when F is constant)."""

    __slots__ = ("budget", "records", "squarefree_f_degree", "covered_degree",
                 "base_locus_skips", "nonrational_skips", "degenerate_lines",
                 "lines", "decisive")

    def __init__(self, budget: int):
        self.budget = budget
        self.records: list = []
        self.squarefree_f_degree = 0
        self.covered_degree = 0   # sum of deg(squarefree(h_y)) over the records
        self.base_locus_skips = 0
        self.nonrational_skips = 0
        self.degenerate_lines = 0
        self.lines = 0            # lines walked, at most budget
        self.decisive = False     # discovery stopped on a decisive line


class BoundChainReport(NamedTuple):
    sum_deg: int
    sum_weighted: int
    degF: int
    outer: int
    chain_ok: bool
    witness_divides: bool
    refined: int | None = None
    refined_ok: bool | None = None

    @property
    def ok(self) -> bool:
        """The chain holds, the witness divides F, and the refined bound,
        when there is one, holds."""
        return (self.chain_ok and self.witness_divides
                and self.refined_ok is not False)


def fiber_equation(inp: RationalMapInput, y: ProjectivePoint) -> MvPoly:
    """Equation of the divisorial part of the fiber over the normalised point
    y (constant 1 if none).

    With i0 = y.pivot_index(), so y_{i0} = 1, the combinations l_i(f) = f_i -
    y_i f_{i0} all vanish on the fiber; their GCD is h_y.
    """
    if len(y.coords) != inp.n + 1:
        raise ValueError(f"point must have {inp.n + 1} coordinates")
    ell = inp.f[y.pivot_index()]
    combos = [fi - ell.scale(yi) for fi, yi in zip(inp.f, y.coords)]
    if all(li.is_zero() for li in combos):
        raise AllCombinationsZero("every combination l_i(f) vanishes identically")
    return gcd_multivariate(*combos)


def _lines(h: MvPoly, budget: int, seed: int):
    """Walk `budget` random affine lines t -> a + t*b, each in a random
    chart (a[c] = 1, b[c] = 0) drawn from its own rng; per line yield
    (a, b, u), u being h restricted to the line (empty when h vanishes on it).
    """
    F = h.field
    n = h.nvars
    for i in range(budget):
        rng = random.Random(seed * 1_000_003 + i)
        c = rng.randrange(n)
        a = [F.rand(rng) for _ in range(n)]
        a[c] = 1
        while True:
            b = [F.rand(rng) for _ in range(n)]
            b[c] = 0
            if any(b):
                break
        yield a, b, h.on_line(a, b)


def discover_fibers(inp: RationalMapInput, F: MvPoly, budget: int = 200,
                    seed: int = 0) -> DiscoveryResult:
    """Find the target points with (m-1)-dimensional fibers on lines through
    Z(sf), sf = squarefree(F), stopping at the first decisive line.

    On each line L, the restriction u = sf|_L is factored completely; every
    distinct irreducible factor is a closed point of Z(sf) on L, and the
    point at infinity b (b[c] = 0 in the line's chart) is one more when deg
    u < deg sf.  Each point off the base locus is pushed through the map,
    and a rational image y gets its fiber equation once per target point.
    L is decisive when none of these points is a base point.

    One decisive line finds every record.  A divisor C contracted to a
    rational y lies in Z(F), so it is a union of components of Z(sf) and
    meets L in some closed point x of Z(sf), off the base locus.  The map is
    constantly y on C wherever it is defined, so the image of x is y and
    y's fiber equation gives its record.  This needs no simple
    intersection: if L is tangent to Z(sf) at x, or x is a singular point
    of Z(sf), x is a repeated factor of u (or b has multiplicity deg sf -
    deg u > 1), and it is still listed once.  Discovery therefore stops after the first
    decisive line, or as soon as the records cover all of sf; `budget` caps
    the lines walked when neither happens.
    """
    Fld = inp.field
    p = Fld.char
    if not p:
        raise RationalModeUnsupported("fiber discovery needs a prime field")
    if F.is_zero():
        raise ValueError("F must be nonzero")
    res = DiscoveryResult(budget=budget)
    if F.is_constant():
        return res
    sf = squarefree_part(F)
    deg_sf = res.squarefree_f_degree = sf.total_degree()
    seen: set = set()
    for a, b, u in _lines(sf, budget, seed):
        res.lines += 1
        if not u:
            res.degenerate_lines += 1
            continue
        f_on_line = [fi.on_line(a, b) for fi in inp.f]
        # Each closed point's image as residues of the f_i|L: modulo an
        # irreducible factor q of u, and at infinity, where f_i(a + t b) =
        # f_i(b) t^d + lower terms, the t^d row.
        points = [[u_rem(fl, q, p) for fl in f_on_line]
                  for q in u_factor(Fld, u)]
        if u_deg(u) < deg_sf:
            points.append([fl[inp.d:] for fl in f_on_line])
        res.decisive = True
        for residues in points:
            # The residues have degree below deg q (constants at infinity),
            # so the image is rational iff each is an F_p-multiple y_i of
            # the pivot residue.
            pivot = next((r for r in residues if r), None)
            if pivot is None:
                res.base_locus_skips += 1
                res.decisive = False
                continue
            inv = Fld.inv(pivot[-1])
            # Normalised already: 0 before the pivot, 1 at it, reduced mod p.
            y = tuple(r[-1] * inv % p if r else 0 for r in residues)
            if any(u_sub(r, [yi * c for c in pivot], p)
                   for r, yi in zip(residues, y)):
                res.nonrational_skips += 1
            elif y not in seen:
                seen.add(y)
                rec = FiberRecord.at(inp, ProjectivePoint(y))
                if rec.deg_h:
                    res.records.append(rec)
                    res.covered_degree += sum(q.total_degree()
                                              for q, _ in rec.sqfree)
        if res.decisive or res.covered_degree == deg_sf:
            break
    res.records.sort(key=lambda r: r.y.coords)
    return res


def verify_bound_chain(inp: RationalMapInput, fibers: list, F: MvPoly,
                       indeg: int | None = None) -> BoundChainReport:
    """Certify sum deg(h_y) <= sum (2e-1) deg(P_e) <= deg F <= 3(d-1).

    Also checks the divisibility witness prod P_e^(2e-1) | F, and, when an
    initial syzygy degree is supplied, the refined bound deg F <= 3(d-1) - indeg.
    The refined bound is proved for P^2 --> P^n with n >= 3 only (on a
    square Jacobian deg F = 3(d-1) whenever det J != 0), so elsewhere it is
    left None.  Partial discovery can only weaken the left side, never
    violate the chain.  A violation is reported, not raised: `ok` on the
    returned report is the one verdict.
    """
    sum_deg = sum(r.deg_h for r in fibers)
    sum_weighted = sum(r.weighted_deg for r in fibers)
    degF = F.total_degree()
    outer = 3 * (inp.d - 1)
    witness = MvPoly.one(inp.field, inp.nvars)
    for r in fibers:
        for p, e in r.sqfree:
            witness = witness * p ** (2 * e - 1)
    chain_ok = sum_deg <= sum_weighted <= degF <= outer
    refined = None
    refined_ok = None
    if indeg is not None and inp.m == 2 and inp.n >= 3:
        refined = outer - indeg
        refined_ok = degF <= refined
    return BoundChainReport(sum_deg=sum_deg, sum_weighted=sum_weighted,
                            degF=degF, outer=outer, chain_ok=chain_ok,
                            witness_divides=witness.divides(F),
                            refined=refined, refined_ok=refined_ok)


class RankCheck(NamedTuple):
    rank_j: int
    rank_dphi: int
    consistent: bool


def tangent_rank_check(inp: RationalMapInput, q: ProjectivePoint) -> RankCheck:
    """Compare rank J(q) with the rank of the tangent map at q.

    The tangent map rank comes from the quotient-rule matrix of the affine
    coordinates g_i = f_i / f_{i0} in the chart of q's pivot coordinate,
    q.pivot_index(), where q is 1; the two ranks must differ by exactly 1
    off the base locus when the characteristic does not divide d.
    """
    F = inp.field
    p = F.char
    if p and inp.d % p == 0:
        raise CharDividesDegree("rank relation needs p not dividing d")
    if len(q.coords) != inp.nvars:
        raise ValueError(f"point must have {inp.nvars} coordinates")
    coords = q.coords
    fvals = [fi.evaluate(coords) for fi in inp.f]
    if not any(fvals):
        raise BasePointError("point lies in the base locus")
    jac_at_q = [[entry.evaluate(coords) for entry in row]
                for row in build_jacobian(inp)]
    rank_j = rank(F, jac_at_q)
    c = q.pivot_index()
    i0 = next(i for i, v in enumerate(fvals) if v)
    dphi = []
    for i in range(inp.n + 1):
        if i == i0:
            continue
        row = []
        for j in range(inp.nvars):
            if j == c:
                continue
            # numerator of the quotient rule; the f_{i0}^2 denominator is a
            # nonzero scalar and cannot change the rank (rank reduces mod p)
            row.append(fvals[i0] * jac_at_q[i][j] - fvals[i] * jac_at_q[i0][j])
        dphi.append(row)
    rank_d = rank(F, dphi)
    return RankCheck(rank_j=rank_j, rank_dphi=rank_d,
                     consistent=rank_j == rank_d + 1)

