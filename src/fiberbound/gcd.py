"""Multivariate GCD and square-free decomposition over an exact field.

`gcd_multivariate(*polys)` is the one entry point: it ignores zero inputs
and folds the binary gcd over the rest, stopping once the gcd is constant.
F, each fiber equation h_y and the derivative gcd are such folds, and the
PRS's content gcds use the same fold without the final normalisation.

The binary GCD is a recursive primitive polynomial-remainder sequence: pick
a main variable, split content from primitive part, run pseudo-division
with a primitive-part reduction after every step, and recurse on the
contents down to constants.  One variable needs no base case of its own:
there the contents are constants.  Univariate Euclid on dense coefficient
lists runs only on the probe's specialisations below.

Two cheap reductions make the typical (coprime) case fast:

  * shared monomial content is pulled out up front, exponentwise;
  * before starting a PRS in variable v, both inputs are specialised at a
    few points of the remaining variables.  If neither input drops degree in
    v under the specialisation and the univariate images are coprime, the
    true gcd provably has degree 0 in v, so only the contents can share a
    factor.  (Degree preservation forces the leading coefficient of any
    common divisor to survive the specialisation, so a nonconstant common
    v-part would show up in the univariate gcd.)

Square-free decomposition iterates gcds with the partial derivatives, which
needs the characteristic to exceed the total degree; smaller primes raise
PthPowerHazard.
"""

from __future__ import annotations

import random

from .errors import PthPowerHazard
from .poly import MvPoly
from .univariate import u_deg, u_gcd, u_reduce

_PROBE_SEED = 0x5EEDF1BE
_PROBE_ATTEMPTS = 4


def gcd_multivariate(*polys: MvPoly) -> MvPoly:
    """GCD of any number of polynomials, normalised to graded-lex leading
    coefficient 1.

    Zero inputs are ignored; at least one input must be nonzero.  The
    result divides every input exactly and any common divisor divides it.
    """
    for b in polys[1:]:
        polys[0]._check(b)
    nonzero = [a for a in polys if not a.is_zero()]
    if not nonzero:
        raise ValueError("gcd of zero polynomials is undefined")
    return _gcd_of(nonzero).monic()


def _gcd_of(polys: list) -> MvPoly:
    """Unnormalised gcd of nonzero polynomials, folded in order with an
    early exit once it is constant."""
    g = polys[0]
    for b in polys[1:]:
        if g.is_constant():
            break
        g = _gcd(g, b)
    return g


def _gcd(a: MvPoly, b: MvPoly) -> MvPoly:
    """Unnormalised gcd of two nonzero polynomials."""
    ma, mb = a.min_exponents(), b.min_exponents()
    shared = tuple(map(min, ma, mb))
    if any(ma):
        a = a.shift([-k for k in ma])
    if any(mb):
        b = b.shift([-k for k in mb])
    g = _gcd_core(a, b)
    if any(shared):
        g = g.shift(shared)
    return g


def _gcd_core(a: MvPoly, b: MvPoly) -> MvPoly:
    """GCD of nonzero polynomials that carry no monomial content."""
    one = MvPoly.one(a.field, a.nvars)
    if a.is_constant() or b.is_constant():
        return one
    va, vb = set(a.variables_present()), set(b.variables_present())
    common = sorted(va & vb)
    if not common:
        # Divisors of a poly involve only its own variables, so nothing is shared.
        return one
    v = min(common, key=lambda j: min(a.degree_in(j), b.degree_in(j)))

    if _probe_no_common_part(a, b, v):
        ca, cb = _content(_coeffs_in(a, v)), _content(_coeffs_in(b, v))
        if ca.is_constant() or cb.is_constant():
            return one
        return _gcd(ca, cb)

    ca, pa = _content_and_primitive(a, v)
    cb, pb = _content_and_primitive(b, v)
    cg = one if (ca.is_constant() or cb.is_constant()) else _gcd(ca, cb)

    f, g = (pa, pb) if pa.degree_in(v) >= pb.degree_in(v) else (pb, pa)
    while True:
        r = _prem(f, g, v)
        if r.is_zero():
            break
        if r.degree_in(v) == 0:
            return cg
        r = _content_and_primitive(r, v)[1]
        mr = r.min_exponents()
        if any(mr):
            # v never divides the primitive gcd, so stray monomial factors
            # in a remainder can be dropped.
            r = r.shift([-k for k in mr])
        f, g = g, r
    return cg * g if not cg.is_constant() else g


def _coeffs_in(a: MvPoly, v: int) -> dict:
    """Map v-exponent -> coefficient polynomial (v removed)."""
    buckets: dict = {}
    for e, c in a.terms.items():
        k = e[v]
        e0 = e[:v] + (0,) + e[v + 1:]
        buckets.setdefault(k, {})[e0] = c
    return {k: MvPoly(a.field, a.nvars, t) for k, t in buckets.items()}


def _lead_coeff_in(a: MvPoly, v: int) -> MvPoly:
    d = a.degree_in(v)
    t = {e[:v] + (0,) + e[v + 1:]: c for e, c in a.terms.items() if e[v] == d}
    return MvPoly(a.field, a.nvars, t)


def _content(coeffs: dict) -> MvPoly:
    """Monic gcd of the coefficients from `_coeffs_in`; 1 when it is constant."""
    c = _gcd_of([cf for _, cf in sorted(coeffs.items())])
    if c.is_constant():
        return MvPoly.one(c.field, c.nvars)
    return c.monic()


def _content_and_primitive(a: MvPoly, v: int) -> tuple[MvPoly, MvPoly]:
    coeffs = _coeffs_in(a, v)
    c = _content(coeffs)
    if c.is_constant():
        return c, a.monic()
    terms: dict = {}
    for k, cf in coeffs.items():
        q = cf.exact_div(c)
        for e, x in q.terms.items():
            terms[e[:v] + (k,) + e[v + 1:]] = x
    return c, MvPoly(a.field, a.nvars, terms).monic()


def _prem(f: MvPoly, g: MvPoly, v: int) -> MvPoly:
    """Sloppy pseudo-remainder of f by g in variable v.

    The leading-coefficient power is whatever the loop needs; the primitive
    PRS takes primitive parts afterwards, so the exact normalisation of the
    classical prem is irrelevant here.
    """
    dg = g.degree_in(v)
    lg = _lead_coeff_in(g, v)
    r = f
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < dg:
            break
        lr = _lead_coeff_in(r, v)
        exps = [0] * f.nvars
        exps[v] = dr - dg
        r = lg * r - (lr * g).shift(exps)
    return r


def _specialize(a: MvPoly, v: int, point: dict) -> list:
    """Dense univariate image of a in v with the other variables evaluated."""
    p = a.field.char
    out = [0] * (a.degree_in(v) + 1)
    for e, c in a.terms.items():
        for j, k in enumerate(e):
            if j != v and k:
                c *= pow(point[j], k, p or None)
        out[e[v]] += c
    return u_reduce(out, p)


def _probe_no_common_part(a: MvPoly, b: MvPoly, v: int) -> bool:
    """Certify deg_v(gcd(a, b)) == 0 via degree-preserving specialisations."""
    F = a.field
    others = sorted((set(a.variables_present()) | set(b.variables_present())) - {v})
    rng = random.Random(_PROBE_SEED + 97 * v)
    for _ in range(_PROBE_ATTEMPTS):
        point = {j: F.rand_nonzero(rng) for j in others}
        ua = _specialize(a, v, point)
        ub = _specialize(b, v, point)
        if u_deg(ua) != a.degree_in(v) or u_deg(ub) != b.degree_in(v):
            continue
        return u_deg(u_gcd(ua, ub, F.char)) == 0
    return False


def squarefree_part(a: MvPoly) -> MvPoly:
    """Product of the distinct irreducible factors of a, monic."""
    if a.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if a.is_constant():
        return MvPoly.one(a.field, a.nvars)
    _check_char(a)
    c = _derivative_gcd(a)
    return a.exact_div(c).monic()


def squarefree_decompose(a: MvPoly) -> list[tuple[MvPoly, int]]:
    """Pairwise-coprime square-free parts P_e with a = lc * prod P_e^e.

    Parts are returned monic, ordered by ascending multiplicity e.
    """
    if a.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if a.is_constant():
        return []
    _check_char(a)
    c = _derivative_gcd(a)          # prod p_i^(e_i - 1)
    w = a.exact_div(c).monic()      # prod p_i
    parts = []
    e = 1
    while not w.is_constant():
        w_next = gcd_multivariate(c, w)
        part = w.exact_div(w_next).monic()
        if part.total_degree() > 0:
            parts.append((part, e))
        if not w_next.is_constant():
            c = c.exact_div(w_next)
        w = w_next
        e += 1
    return parts


def _check_char(a: MvPoly) -> None:
    p = a.field.char
    if 0 < p <= a.total_degree():
        raise PthPowerHazard(
            f"characteristic {p} <= degree {a.total_degree()}: "
            "p-th powers would collapse")


def _derivative_gcd(a: MvPoly) -> MvPoly:
    """gcd(a, da/dX_0, ..., da/dX_m), monic."""
    return gcd_multivariate(a, *(a.derivative(j) for j in range(a.nvars)))
