"""F_p root finding and factorization: fixed small-field cases, split products,
known irreducibles, determinism."""

import random

import pytest

from fiberbound import MvPoly, PrimeField, RationalField, RationalModeUnsupported
from fiberbound.univariate import (irreducible_quadratics, sqrt_mod, u_factor,
                                   u_mul, u_roots)


def _with_roots(roots, lead=1) -> list:
    """Dense coefficients of lead * prod (t - r)."""
    out = [lead]
    for r in roots:
        out = u_mul(out, [-r, 1])
    return out


def test_roots_small_field_examples():
    F7 = PrimeField(7)
    assert u_roots(F7, [-1, 0, 1]) == [1, 6]   # t^2 - 1
    assert u_roots(F7, [1, 0, 1]) == []        # -1 is a non-residue mod 7


def test_roots_from_known_construction(field):
    rng = random.Random(31)
    for _ in range(15):
        wanted = sorted({field.rand(rng) for _ in range(rng.randrange(1, 7))})
        prod = _with_roots(wanted, field.rand_nonzero(rng))
        assert u_roots(field, prod) == wanted


def test_roots_with_multiplicity_and_zero_root(field):
    p = _with_roots([0, 0, 0, 2, 2, -5])   # t^3 (t - 2)^2 (t + 5)
    assert u_roots(field, p) == sorted([0, 2, field.conv(-5)])


def test_roots_deterministic_per_seed(field):
    rng = random.Random(33)
    prod = _with_roots([field.rand(rng) for _ in range(8)])
    assert u_roots(field, prod) == u_roots(field, prod)


def test_roots_rational_mode_rejected():
    Q = RationalField()
    with pytest.raises(RationalModeUnsupported):
        u_roots(Q, [-1, 0, 1])


def test_roots_rejects_zero_polynomial(field):
    with pytest.raises(ValueError):
        u_roots(field, [])


def test_roots_of_multivariate_restriction(field):
    # a polynomial using only variable 2 of a 3-variable ring, as its
    # coefficient list along the X2 axis
    x2 = MvPoly.variable(field, 3, 2)
    coeffs = (x2 ** 2 - 4).on_line((0, 0, 0), (0, 0, 1))
    assert u_roots(field, coeffs) == [2, field.conv(-2)]


def test_sqrt_mod_small_and_large():
    for p in (7, 13, 2147483647):
        squares = {pow(a, 2, p) for a in range(1, min(p, 200))}
        for s in list(squares)[:20]:
            r = sqrt_mod(s, p)
            assert r is not None and r * r % p == s
    assert sqrt_mod(3, 7) is None   # non-residue


def test_irreducible_quadratics_extraction(field):
    p = field.p
    rng = random.Random(34)
    # (t^2 + 1) is irreducible since p = 3 mod 4; multiply by split factors
    t2_plus_1 = [1, 0, 1]
    quads = irreducible_quadratics(field, t2_plus_1)
    assert quads == [[1, 0, 1]]
    # a product of two distinct irreducible quadratics splits into both
    a = field.rand_nonzero(rng)
    q2 = [a * a % p + 1, (2 * a) % p, 1]   # (t + a)^2 + 1, also irreducible
    prod = [0] * 5
    for i, ci in enumerate(t2_plus_1):
        for j, cj in enumerate(q2):
            prod[i + j] = (prod[i + j] + ci * cj) % p
    found = irreducible_quadratics(field, prod)
    assert sorted(found) == sorted([t2_plus_1, q2])


def _non_residue(c: int, p: int) -> bool:
    return pow(c % p, (p - 1) // 2, p) == p - 1


def _known_irreducible(p: int, k: int, rng: random.Random) -> list:
    """A monic irreducible of degree k <= 4 over F_p, by a criterion that
    does not use the factorization kernel."""
    while True:
        if k == 1:
            return [rng.randrange(p), 1]
        if k == 2:
            # t^2 + b t + c with a non-square discriminant
            b, c = rng.randrange(p), rng.randrange(p)
            if _non_residue(b * b - 4 * c, p):
                return [c, b, 1]
        elif k == 3 and p < 1000:
            # a cubic is irreducible iff it has no root; try every value
            g = [rng.randrange(p) for _ in range(3)] + [1]
            if all(sum(c * pow(x, i, p) for i, c in enumerate(g)) % p
                   for x in range(p)):
                return g
        elif k == 3:
            # t^3 - c for c not a cube mod p (3 divides p - 1)
            c = rng.randrange(1, p)
            if pow(c, (p - 1) // 3, p) != 1:
                return [-c % p, 0, 0, 1]
        else:
            # q(t^2) with q = t^2 + b t + c irreducible and c a non-square:
            # a root of q is then a non-square in F_{p^2}
            b, c = rng.randrange(p), rng.randrange(p)
            if _non_residue(b * b - 4 * c, p) and _non_residue(c, p):
                return [c, 0, b, 0, 1]


def _product(p: int, factors: list, scale: int) -> list:
    out = [scale]
    for q in factors:
        out = [x % p for x in u_mul(out, q)]
    return out


@pytest.mark.parametrize("p", [101, 2147483647])
def test_factor_products_of_known_irreducibles(p):
    F = PrimeField(p)
    rng = random.Random(35)
    for _ in range(4):
        wanted = []
        for k in (1, 1, 2, 2, 3, 4):
            q = _known_irreducible(p, k, rng)
            if q not in wanted:
                wanted.append(q)
        wanted.sort(key=lambda q: (len(q), q))
        a = _product(p, wanted, rng.randrange(1, p))
        assert u_factor(F, a) == wanted
        # a repeated factor is listed once, and the degree sum then falls
        # short of deg a
        squared = _product(p, wanted + wanted[:1], 1)
        assert u_factor(F, squared) == wanted


@pytest.mark.parametrize("p", [101, 2147483647])
def test_factor_returns_an_irreducible_whole(p):
    F = PrimeField(p)
    rng = random.Random(36)
    for k in (1, 2, 3, 4):
        q = _known_irreducible(p, k, rng)
        scaled = [c * 3 % p for c in q]
        assert u_factor(F, scaled) == [q]
    assert u_factor(F, [5]) == []
    with pytest.raises(ValueError):
        u_factor(F, [])


def test_factor_needs_no_square_free_input():
    # (t - 2)^8 (t^2 + 1) over F_7: its degree exceeds p and (t - 2)^7 is a
    # p-th power, which a square-free pass through gcd(a, a') cannot handle
    F7 = PrimeField(7)
    a = _product(7, [[5, 1]] * 8 + [[1, 0, 1]], 1)
    assert u_factor(F7, a) == [[5, 1], [1, 0, 1]]
    assert u_roots(F7, a) == [2]


@pytest.mark.parametrize("p", [7, 13])
def test_factor_divides_out_every_copy(p):
    # products of known irreducibles, each repeated up to 2p - 1 times
    F = PrimeField(p)
    rng = random.Random(37)
    for _ in range(6):
        wanted = []
        for k in (1, 1, 2, 3, 4):
            q = _known_irreducible(p, k, rng)
            if q not in wanted:
                wanted.append(q)
        wanted.sort(key=lambda q: (len(q), q))
        copies = [q for q in wanted for _ in range(rng.randrange(1, 2 * p))]
        a = _product(p, copies, rng.randrange(1, p))
        assert u_factor(F, a) == wanted
        assert u_roots(F, a) == sorted(-q[0] % p for q in wanted
                                       if len(q) == 2)


def test_factor_rational_mode_rejected():
    # (t - 2)(t - 3) over Q: factoring needs a prime field, as root finding does
    with pytest.raises(RationalModeUnsupported):
        u_factor(RationalField(), [6, -5, 1])
