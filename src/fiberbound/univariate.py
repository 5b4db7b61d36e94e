"""Dense univariate arithmetic, plus F_p root finding.

Polynomials here are plain lists of coefficients, ascending by degree, with
no trailing zeros.  One kernel set serves both fields and is keyed on the
characteristic p (`F.char`): over F_p the coefficients are ints reduced
into [0, p), and over the rationals (p = 0) they are Fractions.  The
kernels do plain int or Fraction arithmetic, never dispatching through the
field object, and reduce mod p once per result; `u_mul` leaves its product
unreduced, so a multiply-then-divide reduces only once.

Factorization over F_p follows the classical route (Cantor-Zassenhaus;
von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14): a distinct-degree
split peels off, for k = 1, 2, ..., the product gcd(a, t^(p^k) - t) of the
irreducible factors of degree k, and a randomised equal-degree split
separates each product into its factors.  Root finding is the k = 1 case,
finishing degree-2 pieces with the quadratic formula.  All randomness flows
through an explicit seed, and the results are sorted, so they do not depend
on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PthPowerHazard, RationalModeUnsupported

if TYPE_CHECKING:
    from .poly import MvPoly


def u_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def u_reduce(a: list, p: int) -> list:
    """a with its coefficients reduced mod p (kept as they are when p = 0), trimmed."""
    return u_trim([x % p for x in a] if p else a)


def u_deg(a: list) -> int:
    return len(a) - 1


def _inv(c, p: int):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def u_sub(a: list, b: list, p: int) -> list:
    out = list(a) + [0] * max(len(b) - len(a), 0)
    for i, y in enumerate(b):
        out[i] -= y
    return u_reduce(out, p)


def u_mul(a: list, b: list) -> list:
    """Product with unreduced coefficients (reduce with u_reduce or u_rem)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def u_monic(a: list, p: int) -> list:
    if not a:
        return a
    inv = _inv(a[-1], p)
    return u_reduce([x * inv for x in a], p)


def u_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder; a may have unreduced coefficients, and the
    remainder is reduced mod p only at the end."""
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    nb = len(b)
    r = list(a)
    q = [0] * max(len(r) - nb + 1, 0)
    inv = _inv(b[-1], p)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] * inv
        if p:
            c %= p
        q[k] = c
        if c:
            for i in range(nb - 1):
                r[k + i] -= b[i] * c
    return u_trim(q), u_reduce(r[:nb - 1], p)


def u_rem(a: list, b: list, p: int) -> list:
    return u_divmod(a, b, p)[1]


def u_gcd(a: list, b: list, p: int) -> list:
    """Monic Euclidean gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, u_rem(a, b, p)
    return u_monic(a, p)


def u_mulmod(a: list, b: list, mod: list, p: int) -> list:
    return u_rem(u_mul(a, b), mod, p)


def u_powmod(base: list, e: int, mod: list, p: int) -> list:
    result = [1]
    base = u_rem(base, mod, p)
    while e:
        if e & 1:
            result = u_mulmod(result, base, mod, p)
        base = u_mulmod(base, base, mod, p)
        e >>= 1
    return result


def u_invmod(a: list, mod: list, p: int) -> list:
    """Inverse of a modulo mod (must be coprime)."""
    r0, r1 = list(mod), u_rem(a, mod, p)
    s0, s1 = [], [1]
    while r1:
        q, r = u_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, u_sub(s0, u_mul(q, s1), p)
    if u_deg(r0) != 0:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    inv = _inv(r0[0], p)
    return u_reduce([x * inv for x in s0], p)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def mvpoly_to_univariate(a: MvPoly) -> tuple[int, list]:
    """(variable index, dense coefficients) for a polynomial in at most one variable."""
    vs = a.variables_present()
    if len(vs) > 1:
        raise ValueError("polynomial involves more than one variable")
    v = vs[0] if vs else 0
    coeffs = [a.field.zero] * (a.degree_in(v) + 1 if a.terms else 0)
    for e, c in a.terms.items():
        coeffs[e[v]] = c
    return v, u_trim(coeffs)


def _distinct_degree(a: list, p: int) -> list:
    """[(k, g_k)]: g_k is the product of the degree-k irreducible factors of
    the monic square-free a.  t^p mod a is computed once; each further
    degree costs one p-th power."""
    out = []
    t = [0, 1]
    h = t
    k = 0
    # Once deg a < 2(k + 1), a has no two factors of degree > k left, so
    # what remains is irreducible.
    while u_deg(a) >= 2 * (k + 1):
        k += 1
        h = u_powmod(h, p, a, p)
        g = u_gcd(u_sub(h, t, p), a, p)
        if u_deg(g) > 0:
            out.append((k, g))
            a = u_divmod(a, g, p)[0]
    if u_deg(a) > 0:
        out.append((u_deg(a), a))
    return out


def _equal_degree(g: list, k: int, p: int, rng: random.Random) -> list:
    """Monic irreducible factors of g, a monic product of distinct
    irreducibles of degree k, by random splitting (Cantor-Zassenhaus; p odd)."""
    dg = u_deg(g)
    if dg <= k:
        return [g] if dg == k else []
    if k == 1 and dg == 2:
        b, c = g[1], g[0]
        s = sqrt_mod(b * b - 4 * c, p)
        inv2 = pow(2, -1, p)
        return [[(b - s) * inv2 % p, 1], [(b + s) * inv2 % p, 1]]
    half = (p ** k - 1) // 2
    while True:
        r = u_trim([rng.randrange(p) for _ in range(dg)])
        if u_deg(r) < 1:
            continue
        d = u_gcd(u_sub(u_powmod(r, half, g, p), [1], p), g, p)
        if 0 < u_deg(d) < dg:
            return (_equal_degree(d, k, p, rng)
                    + _equal_degree(u_divmod(g, d, p)[0], k, p, rng))


def u_factor(F, a: list, seed: int = 0) -> list:
    """The distinct monic irreducible factors of a nonzero a over F_p.

    Sorted by degree, then by coefficients.  a is square-free exactly when
    the factor degrees sum to deg a.  A repeated factor is divided out
    through gcd(a, a'), which needs p > deg a.
    """
    if not a:
        raise ValueError("factorization needs a nonzero polynomial")
    p = F.char
    a = u_monic(u_reduce(a, p), p)
    if u_deg(a) <= 0:
        return []
    g = u_gcd(a, u_reduce([i * c for i, c in enumerate(a)][1:], p), p)   # a'
    if u_deg(g) > 0:
        if p <= u_deg(a):
            raise PthPowerHazard(f"characteristic {p} <= degree {u_deg(a)}: "
                                 "p-th powers would collapse")
        a = u_divmod(a, g, p)[0]
    rng = random.Random(seed)
    factors = [q for k, prod in _distinct_degree(a, p)
               for q in _equal_degree(prod, k, p, rng)]
    return sorted(factors, key=lambda q: (len(q), q))


def u_roots(F, a: list, seed: int = 0) -> list:
    """All roots in F_p of a nonzero dense polynomial, sorted ascending."""
    if not a:
        raise ValueError("root finding needs a nonzero polynomial")
    p = F.char
    a = u_reduce(a, p)
    if u_deg(a) <= 0:
        return []
    a = u_monic(a, p)
    g = u_gcd(u_sub(u_powmod([0, 1], p, a, p), [0, 1], p), a, p)
    return sorted(-q[0] % p for q in _equal_degree(g, 1, p, random.Random(seed)))


def univariate_roots(a: MvPoly, seed: int = 0) -> list:
    """All F_p roots of a polynomial restricted to a single variable.

    Deterministic for a given seed.  Raises RationalModeUnsupported when the
    session field is the rationals.
    """
    if not a.field.char:
        raise RationalModeUnsupported("root finding requires a prime field")
    _, coeffs = mvpoly_to_univariate(a)
    return u_roots(a.field, coeffs, seed)


def irreducible_quadratics(F, a: list, seed: int = 0) -> list:
    """Monic irreducible quadratic factors of a, each listed once."""
    return [q for q in u_factor(F, a, seed) if u_deg(q) == 2]
