"""Jacobian matrices, minor ideals, their GCD F, and the Euler syzygy.

The matrix J(f) has one row per form f_i and one column per variable; the
3-minors generate the ideal whose generator GCD, F, contains every divisor
contracted by the map.  For surface maps (m = 2, n = 3) the four signed
maximal minors assemble into a syzygy of the f_i of degree 3(d-1) - deg F.

`jacobian_report` expands the 3-minors once; F, the flag I_{m+1}(J) != 0 (on
P^2 the top minors are the 3-minors) and the Euler syzygy read them off it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (AllMinorsZero, ArityMismatch, CharDividesDegree,
                     CommonFactor, FDoesNotDivideMinor, MixedDegrees,
                     NotDivisible, NotHomogeneous, SingularChange, SOutOfRange)
from .gcd import gcd_multivariate
from .linalg import rank
# Kept bound here: bench/trace_layers.py wraps jacobian.kernel_basis.
from .linalg import kernel_basis  # noqa: F401
from .poly import MvPoly


@dataclass(frozen=True)
class RationalMapInput:
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
            raise ValueError("all forms are zero")
        for fp in nonzero:
            if not fp.is_homogeneous():
                raise NotHomogeneous(f"form is not homogeneous: {fp}")
        degs = {fp.total_degree() for fp in nonzero}
        if len(degs) > 1:
            raise MixedDegrees(f"forms have degrees {sorted(degs)}")
        d = degs.pop()
        if d < 1:
            raise NotHomogeneous("forms must have positive degree")
        g = gcd_multivariate(*nonzero)
        if not g.is_constant():
            raise CommonFactor(g)
        p = field.char
        if p and d % p == 0:
            raise CharDividesDegree(f"characteristic {p} divides degree {d}")
        return cls(field=field, varnames=varnames, f=polys)


def build_jacobian(inp: RationalMapInput) -> list:
    """(n+1) x (m+1) matrix of partial derivatives d f_i / d X_j."""
    return [[fi.derivative(j) for j in range(inp.nvars)] for fi in inp.f]


@dataclass(frozen=True)
class Minor:
    rows: tuple
    cols: tuple
    poly: MvPoly


def minors(jac: list, s: int) -> list:
    """All s-minors by cofactor expansion, zero minors included.

    Index sets are strictly increasing, so no minor appears twice.  Each
    minor is expanded along its first row; the sub-minors it needs are kept
    for the call by (rows, cols), so minors that share one compute it once.
    """
    nrows, ncols = len(jac), len(jac[0])
    if not 1 <= s <= min(nrows, ncols):
        raise SOutOfRange(f"minor size {s} outside 1..{min(nrows, ncols)}")
    memo = {}

    def det(rows: tuple, cols: tuple) -> MvPoly:
        if len(rows) == 1:
            return jac[rows[0]][cols[0]]
        if (rows, cols) not in memo:
            acc = MvPoly.zero(jac[0][0].field, jac[0][0].nvars)
            for j, col in enumerate(cols):
                entry = jac[rows[0]][col]
                if entry.is_zero():
                    continue
                term = entry * det(rows[1:], cols[:j] + cols[j + 1:])
                acc = acc - term if j % 2 else acc + term
            memo[rows, cols] = acc
        return memo[rows, cols]

    out = [Minor(rset, cset, det(rset, cset))
           for rset in itertools.combinations(range(nrows), s)
           for cset in itertools.combinations(range(ncols), s)]
    # det refers to itself, so only the cycle collector would free memo.
    memo.clear()
    return out


def gcd_of_minors(minors3) -> MvPoly:
    """GCD of the given minors, monic; AllMinorsZero when every minor vanishes."""
    if all(mn.poly.is_zero() for mn in minors3):
        raise AllMinorsZero("I_3(J(f)) = 0: every 3-minor vanishes")
    return gcd_multivariate(*(mn.poly for mn in minors3))


@dataclass
class JacobianReport:
    minors3: list
    F: MvPoly | None
    degF: int | None
    i3_nonzero: bool
    i_top_nonzero: bool


def jacobian_report(inp: RationalMapInput) -> JacobianReport:
    jac = build_jacobian(inp)
    m3 = minors(jac, 3) if min(inp.n + 1, inp.m + 1) >= 3 else []
    i3 = any(not mn.poly.is_zero() for mn in m3)
    F = gcd_of_minors(m3) if i3 else None
    return JacobianReport(minors3=m3, F=F,
                          degF=F.total_degree() if F is not None else None,
                          i3_nonzero=i3,
                          i_top_nonzero=generic_finiteness_check(inp, jac, m3))


@dataclass
class EulerSyzygy:
    """Signed maximal minors D_i with a_i = D_i / F and sum a_i f_i = 0."""

    D: tuple
    a: tuple
    delta: int


def euler_syzygy(inp: RationalMapInput, jr: JacobianReport) -> EulerSyzygy:
    """Syzygy of degree delta = 3(d-1) - deg F for a surface map (m=2, n=3).

    D_i is (-1)^i times the 3-minor on the rows other than i, read off
    `jr.minors3`; F is `jr.F`.
    """
    if inp.m != 2 or inp.n != 3:
        raise ValueError("the Euler syzygy construction needs m = 2, n = 3")
    p = inp.field.char
    if p and inp.d % p == 0:
        raise CharDividesDegree("construction invalid when p divides d")
    F, minors3 = jr.F, jr.minors3
    # minors3[k] leaves out row 3 - k.
    D = [minors3[3 - i].poly if i % 2 == 0 else -minors3[3 - i].poly
         for i in range(4)]
    a = []
    for di in D:
        if di.is_zero():
            a.append(MvPoly.zero(inp.field, inp.nvars))
            continue
        try:
            a.append(di.exact_div(F))
        except NotDivisible as exc:
            raise FDoesNotDivideMinor(
                f"F does not divide a signed minor: {exc}") from exc
    combo = sum((ai * fi for ai, fi in zip(a, inp.f)),
                MvPoly.zero(inp.field, inp.nvars))
    if not combo.is_zero():
        raise FDoesNotDivideMinor("constructed tuple is not a syzygy")
    delta = 3 * (inp.d - 1) - F.total_degree()
    for ai in a:
        if not ai.is_zero() and ai.total_degree() != delta:
            raise FDoesNotDivideMinor("syzygy entry has unexpected degree")
    return EulerSyzygy(D=tuple(D), a=tuple(a), delta=delta)


def fitting_invariance_check(inp: RationalMapInput, change, F: MvPoly) -> bool:
    """Recompute F after an invertible scalar change of basis g = C f.

    Returns True when the two GCDs agree up to a scalar (compared monic).
    """
    Fld = inp.field
    C = [[Fld.conv(x) if isinstance(x, int) else x for x in row] for row in change]
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


def generic_finiteness_check(inp: RationalMapInput, jac: list, minors3: list) -> bool:
    """I_{m+1}(J) != 0, given J and its 3-minors.

    On P^2 the top minors are the 3-minors, scanned as they are.  Otherwise
    up to 12 random evaluations (seed 0) give nonvanishing certificates; if
    every trial fails, the answer falls back to exact symbolic expansion.
    """
    F = inp.field
    s = inp.m + 1
    if s > inp.n + 1:
        return False
    if s == 3:
        return any(not mn.poly.is_zero() for mn in minors3)
    rng = random.Random(0)
    for _ in range(12):
        q = [F.rand(rng) for _ in range(s)]
        if rank(F, [[entry.evaluate(q) for entry in row] for row in jac]) >= s:
            return True
    return any(not mn.poly.is_zero() for mn in minors(jac, s))
