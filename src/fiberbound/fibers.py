"""Fiber equations, hypersurface sampling, discovery of contracted divisors,
and the degree-bound chain certificate.

Every divisor contracted by the map lies inside Z(F), so sampling the
square-free part of F and pushing sample points through the map finds the
target points with (m-1)-dimensional fibers; the fiber equation h_y then
comes out of a GCD of linear combinations of the forms.

Sampling walks random affine lines in random coordinate charts.  Rational
roots of F restricted to a line give rational sample points.  A component
of Z(F) can be F_p-rational as a divisor while carrying almost no
F_p-rational points (conjugate lines meeting in a single base point, say);
to still find its image, the sampler also inspects irreducible quadratic
factors of the line restriction, which describe conjugate point pairs over
F_{p^2}.  Arithmetic on such a pair happens modulo the quadratic, and
whenever the image point turns out to be rational it is processed exactly
like a rational sample.  Closed points of higher degree are not chased;
the coverage numbers in the result quantify anything left unexplained.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (AllCombinationsZero, BasePointError, ChainViolation,
                     CharDividesDegree, RationalModeUnsupported)
from .gcd import gcd_multivariate, squarefree_decompose, squarefree_part
from .jacobian import RationalMapInput, build_jacobian, minors
from .linalg import rank
from .poly import MvPoly
from .univariate import (irreducible_quadratics, u_deg, u_divmod, u_invmod,
                         u_mulmod, u_rem, u_roots)


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of projective space, normalised so the first nonzero coordinate is 1."""

    coords: tuple

    @classmethod
    def create(cls, field, coords) -> "ProjectivePoint":
        p = field.char
        coords = tuple(field.conv(c) if isinstance(c, int) else c for c in coords)
        pivot = next((c for c in coords if c), None)
        if pivot is None:
            raise ValueError("projective point needs a nonzero coordinate")
        inv = field.inv(pivot)
        return cls(tuple(c * inv % p if p else c * inv for c in coords))

    def pivot_index(self, field) -> int:
        for i, c in enumerate(self.coords):
            if c:
                return i
        raise ValueError("zero point")

    def to_str(self, field) -> str:
        return "(" + " : ".join(str(field.lift_balanced(c)) for c in self.coords) + ")"


@dataclass
class FiberRecord:
    """A target point with an (m-1)-dimensional fiber and its equation."""

    y: ProjectivePoint
    h: MvPoly
    sqfree: list          # [(P_e, e)] pairwise-coprime square-free parts
    deg_h: int
    weighted_deg: int     # sum (2e-1) deg P_e


@dataclass
class DiscoveryResult:
    records: list
    squarefree_f_degree: int
    covered_degree: int   # sum of deg(squarefree(h_y)) over the records
    base_locus_skips: int
    nonrational_skips: int
    degenerate_lines: int
    seed: int
    budget: int


@dataclass
class BoundChainReport:
    fibers: list
    sum_deg: int
    sum_weighted: int
    degF: int
    outer: int
    chain_ok: bool
    witness_divides: bool
    indeg: int | None = None
    refined: int | None = None
    refined_ok: bool | None = None


def fiber_equation(inp: RationalMapInput, y, pivot: int | None = None) -> MvPoly:
    """Equation of the divisorial part of the fiber over y (constant 1 if none).

    With i0 the pivot coordinate of y, the combinations l_i(f) = f_i -
    y_i * f_{i0} / y_{i0} all vanish on the fiber; their GCD is h_y.
    """
    F = inp.field
    if isinstance(y, ProjectivePoint):
        coords = y.coords
    else:
        coords = ProjectivePoint.create(F, y).coords
    if len(coords) != inp.n + 1:
        raise ValueError(f"point must have {inp.n + 1} coordinates")
    if pivot is None:
        pivot = next(i for i, c in enumerate(coords) if c)
    elif not coords[pivot]:
        raise ValueError("pivot coordinate must be nonzero")
    ell = inp.f[pivot].scale(F.inv(coords[pivot]))
    combos = []
    for i, fi in enumerate(inp.f):
        li = fi - ell.scale(coords[i])
        if not li.is_zero():
            combos.append(li)
    if not combos:
        raise AllCombinationsZero("every combination l_i(f) vanishes identically")
    g = combos[0]
    for c in combos[1:]:
        if g.is_constant():
            break
        g = gcd_multivariate(g, c)
    if g.is_constant():
        return MvPoly.one(F, inp.nvars)
    return g.monic()


def _random_line(field, nvars: int, rng: random.Random):
    """Affine line t -> a + t*b in a random chart (a[c] = 1, b[c] = 0)."""
    c = rng.randrange(nvars)
    a = [field.rand(rng) for _ in range(nvars)]
    a[c] = field.one
    while True:
        b = [field.rand(rng) for _ in range(nvars)]
        b[c] = field.zero
        if any(b):
            return a, b


def _line_roots(h: MvPoly, budget: int, seed: int):
    """Walk `budget` random lines; per line yield (rng, a, b, u, roots).

    u is h restricted to t -> a + t*b (empty when h vanishes on the line)
    and roots are its F_p roots.  The rng is the line's own, positioned
    after the root-finding seed was drawn.
    """
    F = h.field
    for i in range(budget):
        rng = random.Random(seed * 1_000_003 + i)
        a, b = _random_line(F, h.nvars, rng)
        u = h.on_line(a, b)
        roots = u_roots(F, u, seed=rng.randrange(1 << 30)) if u else []
        yield rng, a, b, u, roots


def _point_on_line(p: int, a: list, b: list, t0) -> list:
    return [(ai + t0 * bi) % p for ai, bi in zip(a, b)]


def sample_hypersurface_points(h: MvPoly, budget: int, seed: int = 0) -> list:
    """Rational points on Z(h) found along `budget` random lines, deduplicated.

    Deterministic per seed; may return fewer points than asked for.
    """
    F = h.field
    if not F.char:
        raise RationalModeUnsupported("hypersurface sampling needs a prime field")
    if h.is_constant():
        raise ValueError("hypersurface sampling needs a nonconstant polynomial")
    found = {ProjectivePoint.create(F, _point_on_line(F.char, a, b, t0))
             for _, a, b, _, roots in _line_roots(h, budget, seed)
             for t0 in roots}
    return sorted(found, key=lambda pt: pt.coords)


def discover_fibers(inp: RationalMapInput, F: MvPoly, budget: int = 200,
                    seed: int = 0) -> DiscoveryResult:
    """Find target points with (m-1)-dimensional fibers by sampling Z(squarefree(F))."""
    Fld = inp.field
    p = Fld.char
    if not p:
        raise RationalModeUnsupported("fiber discovery needs a prime field")
    if F.is_zero():
        raise ValueError("F must be nonzero")
    if F.is_constant():
        return DiscoveryResult(records=[], squarefree_f_degree=0, covered_degree=0,
                               base_locus_skips=0, nonrational_skips=0,
                               degenerate_lines=0, seed=seed, budget=budget)
    sf = squarefree_part(F)
    seen: dict = {}
    records: list = []
    base_skips = 0
    nonrational = 0
    degenerate = 0

    def consider(y_coords) -> None:
        pt = ProjectivePoint.create(Fld, y_coords)
        if pt.coords in seen:
            return
        h = fiber_equation(inp, pt)
        if h.total_degree() < 1:
            seen[pt.coords] = None
            return
        sq = squarefree_decompose(h)
        rec = FiberRecord(y=pt, h=h, sqfree=sq,
                          deg_h=h.total_degree(),
                          weighted_deg=sum((2 * e - 1) * p.total_degree()
                                           for p, e in sq))
        seen[pt.coords] = rec
        records.append(rec)

    for rng, a, b, u, roots in _line_roots(sf, budget, seed):
        if not u:
            degenerate += 1
            continue
        for t0 in roots:
            x = _point_on_line(p, a, b, t0)
            fvals = [fi.evaluate(x) for fi in inp.f]
            if not any(fvals):
                base_skips += 1
                continue
            consider(fvals)
        # Conjugate point pairs: irreducible quadratic factors of the restriction,
        # which need two degrees of u beyond its distinct rational roots.
        if u_deg(u) - len(roots) < 2:
            continue
        # Dividing each root out once keeps the modulus of the search small.
        rest = u
        for r in roots:
            rest = u_divmod(rest, [-r % p, 1], p)[0]
        quads = irreducible_quadratics(Fld, rest, seed=rng.randrange(1 << 30))
        if not quads:
            continue
        f_on_line = [fi.on_line(a, b) for fi in inp.f]
        for q in quads:
            residues = [u_rem(fl, q, p) for fl in f_on_line]
            pivot = next((k for k, r in enumerate(residues) if r), None)
            if pivot is None:
                base_skips += 1
                continue
            inv = u_invmod(residues[pivot], q, p)
            ys = []
            for r in residues:
                prod = u_mulmod(r, inv, q, p)
                if u_deg(prod) > 0:
                    nonrational += 1
                    break
                ys.append(prod[0] if prod else 0)
            else:
                consider(ys)

    records.sort(key=lambda r: r.y.coords)
    covered = sum(sum(p.total_degree() for p, _ in r.sqfree) for r in records)
    return DiscoveryResult(records=records,
                           squarefree_f_degree=sf.total_degree(),
                           covered_degree=covered,
                           base_locus_skips=base_skips,
                           nonrational_skips=nonrational,
                           degenerate_lines=degenerate,
                           seed=seed, budget=budget)


def verify_bound_chain(inp: RationalMapInput, fibers: list, F: MvPoly,
                       indeg: int | None = None,
                       strict: bool = True) -> BoundChainReport:
    """Certify sum deg(h_y) <= sum (2e-1) deg(P_e) <= deg F <= 3(d-1).

    Also checks the divisibility witness prod P_e^(2e-1) | F, and, when an
    initial syzygy degree is supplied, the refined bound deg F <= 3(d-1) - indeg.
    Partial discovery can only weaken the left side, never violate the chain.
    """
    sum_deg = sum(r.deg_h for r in fibers)
    sum_weighted = sum(r.weighted_deg for r in fibers)
    degF = F.total_degree()
    outer = 3 * (inp.d - 1)
    witness = MvPoly.one(inp.field, inp.nvars)
    for r in fibers:
        for p, e in r.sqfree:
            witness = witness * p ** (2 * e - 1)
    witness_ok = witness.is_constant() or witness.divides(F)
    chain_ok = sum_deg <= sum_weighted <= degF <= outer
    refined = None
    refined_ok = None
    if indeg is not None:
        refined = outer - indeg
        refined_ok = degF <= refined
    report = BoundChainReport(fibers=fibers, sum_deg=sum_deg,
                              sum_weighted=sum_weighted, degF=degF, outer=outer,
                              chain_ok=chain_ok, witness_divides=witness_ok,
                              indeg=indeg, refined=refined, refined_ok=refined_ok)
    if strict and not (chain_ok and witness_ok and refined_ok is not False):
        raise ChainViolation(report)
    return report


@dataclass
class RankCheck:
    rank_j: int
    rank_dphi: int
    consistent: bool


def tangent_rank_check(inp: RationalMapInput, q) -> RankCheck:
    """Compare rank J(q) with the rank of the tangent map at q.

    The tangent map rank comes from the quotient-rule matrix of the affine
    coordinates g_i = f_i / f_{i0} in the chart where the pivot coordinate
    of q equals 1; the two ranks must differ by exactly 1 off the base locus
    when the characteristic does not divide d.
    """
    F = inp.field
    p = F.char
    if p and inp.d % p == 0:
        raise CharDividesDegree("rank relation needs p not dividing d")
    if not isinstance(q, ProjectivePoint):
        q = ProjectivePoint.create(F, q)
    if len(q.coords) != inp.nvars:
        raise ValueError(f"point must have {inp.nvars} coordinates")
    coords = q.coords
    fvals = [fi.evaluate(coords) for fi in inp.f]
    if not any(fvals):
        raise BasePointError("point lies in the base locus")
    jac_at_q = [[entry.evaluate(coords) for entry in row]
                for row in build_jacobian(inp)]
    rank_j = rank(F, jac_at_q)
    c = q.pivot_index(F)
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


def minor_vanishing_check(inp: RationalMapInput, h: MvPoly, minors3=None) -> bool:
    """Does squarefree(h) divide every nonzero 3-minor exactly?"""
    if h.is_constant():
        return True
    sf = squarefree_part(h)
    if sf.is_constant():
        return True
    if minors3 is None:
        minors3 = minors(build_jacobian(inp), 3)
    for mn in minors3:
        p = mn.poly if hasattr(mn, "poly") else mn
        if p.is_zero():
            continue
        if not sf.divides(p):
            return False
    return True
