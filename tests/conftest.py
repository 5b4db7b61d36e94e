from math import comb

import pytest

from fiberbound import MvPoly, PrimeField, RationalMapInput, gcd
from fiberbound.errors import NoSyzygyFound
from fiberbound.linalg import rank
from fiberbound.syzygy import (IndegResult, graded_syzygy_kernel,
                               monomials_of_degree)


@pytest.fixture(scope="session")
def field():
    return PrimeField()


@pytest.fixture(scope="session")
def xyz(field):
    return tuple(MvPoly.variable(field, 3, j) for j in range(3))


def rand_nonzero(field, rng):
    """A random nonzero element: randrange(1, p) over F_p, and over Q the
    first nonzero draw of `field.rand`."""
    if field.char:
        return rng.randrange(1, field.char)
    while True:
        v = field.rand(rng)
        if v:
            return v


def random_poly(field, nvars, max_deg, rng, homogeneous_deg=None,
                density=0.7):
    """Random polynomial; dense in one degree when homogeneous_deg is set."""
    terms = {}
    if homogeneous_deg is not None:
        for e in monomials_of_degree(nvars, homogeneous_deg):
            if rng.random() < density:
                terms[e] = field.rand(rng)
    else:
        for d in range(max_deg + 1):
            for e in monomials_of_degree(nvars, d):
                if rng.random() < density * 0.5:
                    terms[e] = field.rand(rng)
    p = MvPoly(field, nvars, terms)
    if p.is_zero():
        e = (max_deg if homogeneous_deg is None else homogeneous_deg,) \
            + (0,) * (nvars - 1)
        p = MvPoly(field, nvars, {e: rand_nonzero(field, rng)})
    return p


def random_nonzero_poly(field, nvars, max_deg, rng, **kw):
    while True:
        p = random_poly(field, nvars, max_deg, rng, **kw)
        if not p.is_zero():
            return p


def independent_rank_mod_p(p, rows):
    """Row-echelon rank, written independently of the library's elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        src = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                src = i
                break
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def upward_scan_indeg(inp: RationalMapInput) -> IndegResult:
    """Reference for `indeg_syzygy`: every degree in turn, from 0 up."""
    m = inp.m
    for nu in range(inp.d + 1):
        if nu and len(inp.f) * comb(nu + m, m) > comb(nu + inp.d + m, m):
            return IndegResult(indeg=nu)
        basis = graded_syzygy_kernel(inp, nu)
        if basis:
            return IndegResult(indeg=nu, basis=basis)
    raise NoSyzygyFound("no syzygy found up to d despite the Koszul guarantee")


def _random_gl(field, size, rng):
    while True:
        A = [[field.rand(rng) for _ in range(size)] for _ in range(size)]
        if rank(field, A) == size:
            return A


def _source_change(inp, A):
    """The forms f(A X)."""
    field, nv = inp.field, inp.nvars
    X = [MvPoly.variable(field, nv, j) for j in range(nv)]
    AX = [sum((X[j].scale(c) for j, c in enumerate(row)), MvPoly.zero(field, nv))
          for row in A]
    subst = []
    for f in inp.f:
        acc = MvPoly.zero(field, nv)
        for e, c in f.terms.items():
            t = MvPoly.constant(field, nv, c)
            for j, k in enumerate(e):
                if k:
                    t = t * AX[j] ** k
            acc = acc + t
        subst.append(acc)
    return subst


def _gl_copy(inp, rng):
    """g = B f(A X): the same fibers in random coordinates on both sides."""
    field, nv = inp.field, inp.nvars
    subst = _source_change(inp, _random_gl(field, nv, rng))
    g = [sum((fj.scale(c) for fj, c in zip(subst, row)), MvPoly.zero(field, nv))
         for row in _random_gl(field, len(inp.f), rng)]
    return RationalMapInput.create(field, g)


def _count_brown(monkeypatch) -> list:
    """The (a, b) of every run of Brown's gcd from now on."""
    calls = []
    real = gcd._brown
    monkeypatch.setattr(gcd, "_brown", lambda a, b, *quotients: calls.append(
        (a, b)) or real(a, b, *quotients))
    return calls
