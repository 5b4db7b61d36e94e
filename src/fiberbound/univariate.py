"""Dense univariate arithmetic, plus F_p root finding.

Polynomials here are plain lists of coefficients, ascending by degree, with
no trailing zeros.  One kernel set serves both fields and is keyed on the
characteristic p (`F.char`): over F_p the coefficients are ints reduced
into [0, p), and over the rationals (p = 0) each is an int or a Fraction,
either one whatever its value: unlike `MvPoly`, a list here may hold an
integral Fraction.  The kernels do plain int or Fraction arithmetic, never
dispatching through the field object, and reduce mod p once per result;
`u_mul` leaves its product unreduced, so a multiply-then-divide reduces
only once.

Factorization over F_p follows the classical route (Cantor-Zassenhaus;
von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14): a distinct-degree
split peels off, for k = 1, 2, ..., the product gcd(a, t^(p^k) - t) of the
irreducible factors of degree k and divides every copy of them out of a, so
a need not be square-free; a randomised equal-degree split separates each
product into its factors, finishing two linear factors with the quadratic
formula when p = 3 (mod 4).  Roots and irreducible quadratics are the
degree-1 and degree-2 factors.
The splits draw from a fixed internal seed; the results are sorted, so no
seed could change them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import RationalModeUnsupported

# Seed of the equal-degree splits.  Any value gives the same sorted factors.
_SPLIT_SEED = 0


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


def u_eval(a: list, x, p: int):
    """Value of a at x by Horner's rule, reduced mod p (kept as it is when p = 0)."""
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p if p else v * x + c
    return v


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


def _distinct_degree(a: list, p: int) -> list:
    """[(k, g_k)]: g_k is the product of the distinct degree-k irreducible
    factors of the monic a.  a need not be square-free: a is divided by g_k,
    then by its gcd with what is left until that is 1, which takes out every
    copy.  t^p mod a is computed once; each further degree costs one p-th
    power."""
    out = []
    t = [0, 1]
    h = t
    k = 0
    # Once deg a < 2(k + 1), a has no two factors of degree > k left, equal
    # or not, so what remains is irreducible.
    while u_deg(a) >= 2 * (k + 1):
        k += 1
        h = u_powmod(h, p, a, p)
        g = u_gcd(u_sub(h, t, p), a, p)
        if u_deg(g) > 0:
            out.append((k, g))
        while u_deg(g) > 0:
            a = u_divmod(a, g, p)[0]
            g = u_gcd(a, g, p)
    if u_deg(a) > 0:
        out.append((u_deg(a), a))
    return out


def _equal_degree(g: list, k: int, p: int, rng: random.Random) -> list:
    """Monic irreducible factors of g, a monic product of distinct
    irreducibles of degree k, by random splitting (Cantor-Zassenhaus; p odd)."""
    dg = u_deg(g)
    if dg <= k:
        return [g] if dg == k else []
    if k == 1 and dg == 2 and p % 4 == 3:
        # g is a product of two distinct linear factors, so b^2 - 4c is a
        # nonzero square, and its (p + 1)/4-th power is a square root.
        b, c = g[1], g[0]
        s = pow(b * b - 4 * c, (p + 1) // 4, p)
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


def u_factor(F, a: list) -> list:
    """The distinct monic irreducible factors of a nonzero a over F_p.

    Sorted by degree, then by coefficients.  a need not be square-free: the
    distinct-degree split divides out every copy of each factor, so any p
    and any degree work, and a is square-free exactly when the factor
    degrees sum to deg a.  Raises RationalModeUnsupported when F is the
    rationals.
    """
    p = F.char
    if not p:
        raise RationalModeUnsupported("factorization requires a prime field")
    if not a:
        raise ValueError("factorization needs a nonzero polynomial")
    rng = random.Random(_SPLIT_SEED)
    factors = [q for k, prod in _distinct_degree(u_monic(u_reduce(a, p), p), p)
               for q in _equal_degree(prod, k, p, rng)]
    return sorted(factors, key=lambda q: (len(q), q))


def u_roots(F, a: list) -> list:
    """All roots in F_p of a nonzero dense polynomial, sorted ascending: the
    degree-1 view of `u_factor`, and raising as it does."""
    return sorted(-q[0] % F.char for q in u_factor(F, a) if u_deg(q) == 1)


def irreducible_quadratics(F, a: list) -> list:
    """Monic irreducible quadratic factors of a, each listed once: the
    degree-2 view of `u_factor`."""
    return [q for q in u_factor(F, a) if u_deg(q) == 2]
