import pytest

from fiberbound import MvPoly, PrimeField
from fiberbound.syzygy import monomials_of_degree


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
