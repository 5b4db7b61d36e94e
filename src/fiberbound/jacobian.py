"""Jacobian matrices, minor ideals, their GCD F, and the Euler syzygy.

The matrix J(f) has one row per form f_i and one column per variable; the
3-minors generate the ideal whose generator GCD, F, contains every divisor
contracted by the map.  For surface maps (m = 2, n = 3) the four signed
maximal minors assemble into a syzygy of the f_i of degree 3(d-1) - deg F.

`jacobian_report` first tries to prove F = 1 on one line; only when the
line proves nothing does it expand the 3-minors, once, and F, the flag
I_{m+1}(J) != 0 (on P^2 the top minors are the 3-minors) and the Euler
syzygy read them off the report.  F's gcd hands back each minor's cofactor
M_i / F, and the Euler syzygy is made of those, so no minor is divided
twice.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import NamedTuple

from .errors import (AllMinorsZero, ArityMismatch, BadInput,
                     CharDividesDegree, CommonFactor, FDoesNotDivideMinor,
                     MixedDegrees, NotDivisible, NotHomogeneous,
                     SingularChange, SOutOfRange)
from .fields import PrimeField
from .gcd import gcd_cofactors, gcd_multivariate
from .linalg import rank, rank_mod_p
# Kept bound here: bench/trace_layers.py wraps jacobian.kernel_basis.
from .linalg import kernel_basis  # noqa: F401
from .poly import (MvPoly, _kronecker_layout, _pack, _packs, _slot_bytes,
                   _unpack_signed)
from .univariate import u_add, u_gcd, u_mul, u_reduce, u_sub

# The line test's prime over Q, where it runs on the coefficients mod q.
_LINE_PRIME = 2 ** 31 - 1
# Seed of the line's points.  A line that proves nothing costs only the
# expansion that would have run anyway, so no seed changes a result.
_LINE_SEED = 0x11AE


class RationalMapInput(NamedTuple):
    """A rational map P^m --> P^n given by n+1 forms of common degree d."""

    field: object
    varnames: tuple
    f: tuple

    @property
    def m(self) -> int:
        return len(self.varnames) - 1

    @property
    def n(self) -> int:
        return len(self.f) - 1

    @property
    def nvars(self) -> int:
        return len(self.varnames)

    @property
    def d(self) -> int:
        for fi in self.f:
            if not fi.is_zero():
                return fi.total_degree()
        raise ValueError("all forms are zero")

    @classmethod
    def create(cls, field, polys, varnames=None) -> "RationalMapInput":
        """Validate and build: homogeneous forms, one common degree,
        gcd(f_0,...,f_n) = 1, and characteristic not dividing d."""
        polys = tuple(polys)
        if not polys:
            raise ValueError("need at least one form")
        nvars = polys[0].nvars
        for fp in polys:
            if fp.nvars != nvars:
                raise ArityMismatch("forms live in different polynomial rings")
        if varnames is None:
            varnames = tuple(f"X{i}" for i in range(nvars))
        varnames = tuple(varnames)
        if len(varnames) != nvars:
            raise ArityMismatch("variable name list does not match the ring")
        nonzero = [fp for fp in polys if not fp.is_zero()]
        if not nonzero:
            raise BadInput("all forms are zero")
        for fp in nonzero:
            if not fp.is_homogeneous():
                raise NotHomogeneous("form is not homogeneous: "
                                     + fp.to_str(varnames))
        degs = {fp.total_degree() for fp in nonzero}
        if len(degs) > 1:
            raise MixedDegrees(f"forms have degrees {sorted(degs)}")
        d = degs.pop()
        if d < 1:
            raise NotHomogeneous("forms must have positive degree")
        g = gcd_multivariate(*nonzero)
        if not g.is_constant():
            raise CommonFactor(g, varnames)
        p = field.char
        if p and d % p == 0:
            raise CharDividesDegree(f"characteristic {p} divides degree {d}")
        return cls(field=field, varnames=varnames, f=polys)


def build_jacobian(inp: RationalMapInput) -> list:
    """(n+1) x (m+1) matrix of partial derivatives d f_i / d X_j."""
    return [[fi.derivative(j) for j in range(inp.nvars)] for fi in inp.f]


class Minor(NamedTuple):
    rows: tuple
    cols: tuple
    poly: MvPoly


def _index_sets(jac: list, s: int) -> list:
    """(rows, cols) of every s-minor of jac, each set strictly increasing."""
    return [(rows, cols)
            for rows in itertools.combinations(range(len(jac)), s)
            for cols in itertools.combinations(range(len(jac[0])), s)]


def _det(jac: list, rows: tuple, cols: tuple, memo: dict, ring=None):
    """The minor of jac on rows x cols, expanded along its first row in the
    ring (zero, mul, add, sub) of its entries, by default `MvPoly`'s; memo
    keeps the sub-minors by (rows, cols), so minors that share one compute
    it once."""
    if len(rows) == 1:
        return jac[rows[0]][cols[0]]
    if (rows, cols) not in memo:
        acc, mul, add, sub = ring or (
            MvPoly.zero(jac[0][0].field, jac[0][0].nvars), MvPoly.__mul__,
            MvPoly.__add__, MvPoly.__sub__)
        for j, col in enumerate(cols):
            entry = jac[rows[0]][col]
            if not entry:
                continue
            term = mul(entry, _det(jac, rows[1:], cols[:j] + cols[j + 1:],
                                   memo, ring))
            acc = sub(acc, term) if j % 2 else add(acc, term)
        memo[rows, cols] = acc
    return memo[rows, cols]


def minors(jac: list, s: int) -> list:
    """All s-minors by cofactor expansion, zero minors included, in the
    order of `_index_sets`, so no minor appears twice.  Dense forms over
    F_p expand as packed ints (`_packed_entries`), other entries as
    `MvPoly`s."""
    nrows, ncols = len(jac), len(jac[0])
    if not 1 <= s <= min(nrows, ncols):
        raise SOutOfRange(f"minor size {s} outside 1..{min(nrows, ncols)}")
    memo: dict = {}
    packed = _packed_entries(jac, s)
    if packed is None:
        return [Minor(rows, cols, _det(jac, rows, cols, memo))
                for rows, cols in _index_sets(jac, s)]
    pjac, unpack = packed
    ring = (0, operator.mul, operator.add, operator.sub)
    return [Minor(rows, cols, unpack(_det(pjac, rows, cols, memo, ring)))
            for rows, cols in _index_sets(jac, s)]


def _packed_entries(jac: list, s: int):
    """(the entries of jac as packed ints, the unpacking of a packed
    s-minor into an `MvPoly`), or None where the entries do not pack: they
    must be forms over F_p of one degree k, and the one with the fewest
    terms must pack with itself by `_packs`' rule (dense enough).

    The entries, coefficients in [0, p), go to `_kronecker_layout` for
    degree s k, with X0 dropped.  Packing is evaluation at an integer point,
    so the expansion over ints is the packed minor of the entries lifted to
    Z, which the constructor reduces mod p.  Its monomials have degree s k,
    below the layout's base s k + 1, so distinct ones get distinct slots.
    Every
    coefficient of it lies in (-B, B), B = s! T^(s-1) p^s, T the most terms
    of any entry: the minor is a signed sum of s! products of s entries,
    and a coefficient of one product sums at most T^(s-1) products of s
    coefficients (the terms of s - 1 factors fix the last one's), each
    product at most (p-1)^s.  So slots of `_slot_bytes(2B)` hold each
    coefficient, and `_unpack_signed` with bias B reads it back.
    """
    entries = [e for row in jac for e in row if e]
    if not entries or not entries[0].field.char:
        return None
    field, nvars = entries[0].field, entries[0].nvars
    thin = min(entries, key=lambda e: len(e.terms))
    k = thin.total_degree()
    if not _packs(thin, thin) or any(
            not e.is_homogeneous() or e.total_degree() != k for e in entries):
        return None
    p = field.char
    bias = (math.factorial(s) * max(len(e.terms) for e in entries) ** (s - 1)
            * p ** s)
    width = _slot_bytes(2 * bias)
    weights, exps, offsets = _kronecker_layout(nvars, s * k, width)

    def unpack(x: int) -> MvPoly:
        return MvPoly(field, nvars,
                      dict(zip(exps, _unpack_signed(x, width, offsets, bias))))

    return [[_pack(e.terms, weights, width) if e else 0 for e in row]
            for row in jac], unpack


def gcd_of_minors(minors3, cofactors: bool = False):
    """GCD of the given minors, monic; AllMinorsZero when every minor
    vanishes.  With `cofactors`, (F, [M_i / F]) as `gcd_cofactors` gives it."""
    if all(mn.poly.is_zero() for mn in minors3):
        raise AllMinorsZero("I_3(J(f)) = 0: every 3-minor vanishes")
    return (gcd_cofactors if cofactors else gcd_multivariate)(
        *(mn.poly for mn in minors3))


def _residue(c, q: int) -> int:
    """A coefficient mod q: an int, or a Fraction whose denominator q does
    not divide."""
    return c if type(c) is int else c.numerator * pow(c.denominator, -1, q)


class _Line:
    """The line L: t -> a + t b over F_q, with a = (1, a_1, ..., a_m) and
    b = (0, b_1, ..., b_m) seeded, where q = p over F_p and q = _LINE_PRIME
    over Q.  In this chart X0 is the constant 1, and the point at infinity
    b lies on X0 = 0.  The powers of each a_j + t b_j, and the restriction
    of each monomial, are built once, when first needed, and shared by
    every restriction."""

    __slots__ = ("field", "a", "b", "powers", "monomials")

    def __init__(self, field, nvars: int):
        q = field.char or _LINE_PRIME
        self.field = field if field.char else PrimeField(q)
        rng = random.Random(_LINE_SEED)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(nvars - 1)]
        self.a = (1,) + tuple(aj for aj, _ in pairs)
        self.b = (0,) + tuple(bj for _, bj in pairs)
        self.powers = [[[1]] for _ in pairs]
        self.monomials: dict = {}

    def at_infinity(self, f: MvPoly) -> int:
        """f(b) mod q, the top coefficient of f∘L when f is a form."""
        q = self.field.char
        value = 0
        for e, c in f.terms.items():
            if not e[0]:
                c = _residue(c, q)
                for bj, k in zip(self.b[1:], e[1:]):
                    c = c * pow(bj, k, q) % q
                value += c
        return value % q

    def restrict(self, f: MvPoly) -> list:
        """f∘L mod q, dense in t."""
        q = self.field.char
        acc = [0] * (f.total_degree() + 1)
        for e, c in f.terms.items():
            mono = self.monomials.get(e[1:])
            if mono is None:
                mono = [1]
                for j, k in enumerate(e[1:], 1):
                    row = self.powers[j - 1]
                    while len(row) <= k:
                        lin = [self.a[j], self.b[j]]
                        row.append(u_reduce(u_mul(row[-1], lin), q))
                    mono = u_reduce(u_mul(mono, row[k]), q)
                self.monomials[e[1:]] = mono
            c = _residue(c, q)
            for i, v in enumerate(mono):
                acc[i] += c * v
        return u_reduce(acc, q)


def _line_proof(inp: RationalMapInput, jac: list):
    """(L, [U_i]) when one line L proves F = 1, else None; the U_i = M_i∘L
    are the restricted 3-minors mod q, dense in t, in `minors` order.

    F∘L divides every U_i.  If some U_i has the full degree 3(d-1), its top
    coefficient M_i(b) is nonzero, so F(b) != 0 and deg F∘L = deg F; if the
    gcd of the nonzero U_i is 1 as well, then deg F = 0.  This holds over
    every field.  Without the full degree it fails: with F = X0 and b on
    X0 = 0, F∘L is a constant.  Over Q the test runs mod q: a U_i of full
    degree mod q has a leading coefficient that q does not divide, so the
    degree of the gcd over Q is at most the degree mod q, and a nonzero
    U_i mod q proves M_i != 0.  The test stops at the first evidence
    against F = 1: no nonzero 3-minor of J(b) (so no U_i of full degree),
    a nonzero U_i below full degree, or a non-constant gcd of the first two
    nonzero U_i.
    """
    if not inp.field.char and any(
            type(c) is not int and not c.denominator % _LINE_PRIME
            for fi in inp.f for c in fi.terms.values()):
        return None
    line = _Line(inp.field, inp.nvars)
    q = line.field.char
    # M_i(b) is the top coefficient of U_i.
    if rank_mod_p(line.field, [[line.at_infinity(entry) for entry in row]
                               for row in jac]) < 3:
        return None
    full = 3 * (inp.d - 1)
    rjac = [[line.restrict(entry) for entry in row] for row in jac]
    memo: dict = {}
    ring = ([], u_mul, lambda x, y: u_add(x, y, q), lambda x, y: u_sub(x, y, q))
    u, g = [], None    # g: the gcd of the first nonzero U_i
    for rows, cols in _index_sets(jac, 3):
        ui = _det(rjac, rows, cols, memo, ring)
        u.append(ui)
        if not ui or (g is not None and len(g) == 1):
            continue
        if len(ui) <= full:
            return None
        if g is None:
            g = ui
        else:
            g = u_gcd(g, ui, q)
            if len(g) > 1:
                return None
    return (line, u) if g is not None and len(g) == 1 else None


class JacobianReport:
    """What `jacobian_report` found: F (None when every 3-minor vanishes),
    the flag I_{m+1}(J) != 0, and which 3-minors are nonzero, in `minors`
    order.  When a line proved F = 1, `line` holds that line with the
    restricted minors U_i, and `minors3` is expanded on first read.
    `cofactors` are the quotients M_i / F, in `minors` order: those of F's
    gcd when `jacobian_report` computed F, else divided out on first read
    (FDoesNotDivideMinor when F does not divide a minor)."""

    __slots__ = ("jac", "F", "i_top_nonzero", "minor_nonzero", "line",
                 "_minors3", "_cofactors")

    def __init__(self, jac: list, F: MvPoly | None, i_top_nonzero: bool,
                 minor_nonzero: tuple, line: tuple | None = None,
                 minors3: list | None = None, cofactors: list | None = None):
        self.jac = jac
        self.F = F
        self.i_top_nonzero = i_top_nonzero
        self.minor_nonzero = minor_nonzero
        self.line = line
        self._minors3 = minors3
        self._cofactors = cofactors

    @property
    def minors3(self) -> list:
        if self._minors3 is None:
            self._minors3 = minors(self.jac, 3)
        return self._minors3

    @property
    def cofactors(self) -> list:
        if self._cofactors is None:
            try:
                self._cofactors = [mn.poly.exact_div(self.F)
                                   for mn in self.minors3]
            except NotDivisible as exc:
                raise FDoesNotDivideMinor(
                    f"F does not divide a signed minor: {exc}") from exc
        return self._cofactors

    @property
    def degF(self) -> int | None:
        return self.F.total_degree() if self.F is not None else None

    @property
    def i3_nonzero(self) -> bool:
        return any(self.minor_nonzero)


def jacobian_report(inp: RationalMapInput) -> JacobianReport:
    """J, F and which 3-minors are nonzero: on one line when a line proves
    F = 1 (`_line_proof`), else from the expanded 3-minors.  On the line a
    nonzero U_i shows M_i != 0; a minor whose U_i is 0 is expanded exactly,
    and only that one."""
    jac = build_jacobian(inp)
    if min(inp.n + 1, inp.m + 1) < 3:
        return JacobianReport(jac, None,
                              generic_finiteness_check(inp, jac, False), (),
                              minors3=[])
    proof = _line_proof(inp, jac)
    if proof is None:
        m3 = minors(jac, 3)
        nonzero = tuple(not mn.poly.is_zero() for mn in m3)
        F, cof = gcd_of_minors(m3, True) if any(nonzero) else (None, None)
        return JacobianReport(jac, F,
                              generic_finiteness_check(inp, jac, any(nonzero)),
                              nonzero, minors3=m3, cofactors=cof)
    memo: dict = {}
    nonzero = tuple(bool(ui) or bool(_det(jac, rows, cols, memo))
                    for ui, (rows, cols) in zip(proof[1], _index_sets(jac, 3)))
    return JacobianReport(jac, MvPoly.one(inp.field, inp.nvars),
                          generic_finiteness_check(inp, jac, True), nonzero,
                          line=proof)


class EulerSyzygy(NamedTuple):
    """sum a_i f_i = 0 with a_i = D_i / F for the signed maximal minors D_i,
    of degree delta; a_degrees[i] is deg a_i, -1 when a_i = 0.
    `a` is None when a line proved F = 1: there a_i = D_i, not expanded."""

    delta: int
    a_degrees: tuple
    a: tuple | None = None


def _surface_guard(inp: RationalMapInput) -> None:
    if inp.m != 2 or inp.n != 3:
        raise ValueError("the Euler syzygy construction needs m = 2, n = 3")
    p = inp.field.char
    if p and inp.d % p == 0:
        raise CharDividesDegree("construction invalid when p divides d")


def euler_syzygy(inp: RationalMapInput, jr: JacobianReport) -> EulerSyzygy:
    """Syzygy of degree delta = 3(d-1) - deg F for a surface map (m=2, n=3).

    D_i is (-1)^i times the 3-minor on the rows other than i, so a_i is
    (-1)^i times that minor's cofactor M / F, read off `jr.cofactors`; F is
    `jr.F`.  The combination sum a_i f_i and the degrees are checked.
    AllMinorsZero when every 3-minor vanishes, as there is no F.
    """
    _surface_guard(inp)
    if jr.F is None:
        raise AllMinorsZero("I_3(J(f)) = 0: every 3-minor vanishes")
    F, cof = jr.F, jr.cofactors
    # cof[k] belongs to the minor that leaves out row 3 - k.
    a = [cof[3 - i] if i % 2 == 0 else -cof[3 - i] for i in range(4)]
    combo = sum((ai * fi for ai, fi in zip(a, inp.f)),
                MvPoly.zero(inp.field, inp.nvars))
    if not combo.is_zero():
        raise FDoesNotDivideMinor("constructed tuple is not a syzygy")
    delta = 3 * (inp.d - 1) - F.total_degree()
    for ai in a:
        if not ai.is_zero() and ai.total_degree() != delta:
            raise FDoesNotDivideMinor("syzygy entry has unexpected degree")
    return EulerSyzygy(delta=delta,
                       a_degrees=tuple(ai.total_degree() for ai in a),
                       a=tuple(a))


def line_euler_syzygy(inp: RationalMapInput, jr: JacobianReport) -> EulerSyzygy:
    """The Euler syzygy of a report whose line proved F = 1, read off the
    U_i: a_i = D_i, so delta = 3(d-1) and deg a_i is delta or -1 as the
    minor is nonzero or not.

    Two exact checks stand in for the re-multiplication of `euler_syzygy`.
    Euler's relation d f_i = sum_j X_j df_i/dX_j, for every form, makes the
    first column of det[f | J] a combination of the others when p does not
    divide d, so that determinant is 0; its Laplace expansion along the
    first column is sum_i (-1)^i f_i M_(3-i) = 0 for the true minors
    (M_(3-i) leaves out row i).  The same identity restricted to the line
    is checked on the U_i that were computed.
    """
    _surface_guard(inp)
    for fi, row in zip(inp.f, jr.jac):
        acc = fi.scale(-inp.d)
        for j, entry in enumerate(row):
            acc = acc + entry.shift([int(k == j) for k in range(inp.nvars)])
        if not acc.is_zero():
            raise FDoesNotDivideMinor("Euler's relation fails for a form")
    line, u = jr.line
    q = line.field.char
    combo: list = []
    for i, fi in enumerate(inp.f):
        combo = (u_sub if i % 2 else u_add)(combo, u_mul(line.restrict(fi),
                                                         u[3 - i]), q)
    if combo:
        raise FDoesNotDivideMinor("constructed tuple is not a syzygy on the line")
    delta = 3 * (inp.d - 1)
    return EulerSyzygy(delta=delta,
                       a_degrees=tuple(delta if jr.minor_nonzero[3 - i] else -1
                                       for i in range(4)))


def fitting_invariance_check(inp: RationalMapInput, change, F: MvPoly) -> bool:
    """Recompute F after an invertible scalar change of basis g = C f.

    Returns True when the two GCDs agree up to a scalar (compared monic).
    """
    Fld = inp.field
    C = [[Fld.conv(x) for x in row] for row in change]
    size = inp.n + 1
    if len(C) != size or any(len(r) != size for r in C):
        raise SingularChange(f"change of basis must be {size}x{size}")
    if rank(Fld, C) != size:
        raise SingularChange("change of basis is singular")
    g = tuple(sum((fj.scale(cij) for cij, fj in zip(row, inp.f)),
                  MvPoly.zero(Fld, inp.nvars)) for row in C)
    ginp = RationalMapInput(field=Fld, varnames=inp.varnames, f=g)
    F2 = gcd_of_minors(minors(build_jacobian(ginp), 3))
    return F.monic() == F2.monic()


def generic_finiteness_check(inp: RationalMapInput, jac: list, i3: bool) -> bool:
    """I_{m+1}(J) != 0, given J and whether I_3(J) != 0.

    On P^2 the top minors are the 3-minors, so the answer is i3.  Otherwise
    up to 12 random evaluations (seed 0) give nonvanishing certificates (a
    full `rank_mod_p`, which over Q can only understate the rank); if every
    trial fails, the answer falls back to exact symbolic expansion.
    """
    F = inp.field
    s = inp.m + 1
    if s > inp.n + 1:
        return False
    if s == 3:
        return i3
    rng = random.Random(0)
    for _ in range(12):
        q = [F.rand(rng) for _ in range(s)]
        if rank_mod_p(F, [[entry.evaluate(q) for entry in row] for row in jac]) >= s:
            return True
    return any(not mn.poly.is_zero() for mn in minors(jac, s))
