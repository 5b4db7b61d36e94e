"""Multivariate GCD and square-free decomposition over an exact field.

`gcd_multivariate(*polys)` and `gcd_cofactors(*polys)` are the entry
points; the second also returns each input's exact quotient by the gcd, its
cofactor.  Both ignore zero inputs, pull out the shared monomial content,
exponentwise, and fold the binary gcd over the rest, stopping once the gcd
is constant.  F, each fiber equation h_y and the derivative gcd are such
folds, and the PRS's content gcds use the same fold without the final
normalisation.  Once the fold has a gcd g, each further input b is first
divided by g: g | b implies gcd(g, b) = g, so a division that succeeds
stands in for a gcd run and its quotient is b's cofactor.  Only when it
fails does the binary gcd run, and the earlier cofactors are multiplied by
g_old / g_new.

The binary gcd is Brown's evaluation/interpolation gcd (Brown 1971; von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 6) over either field.  Two
forms are dehomogenised at X0 = 1, other inputs keep every variable.  The
last variable is evaluated at seeded points, the images' gcds are taken
recursively down to univariate Euclid, interpolated, and certified by trial
division of the gcd into both inputs; the quotients of those divisions are
the cofactors, so nothing is divided twice.  A lucky image that is constant
certifies that the gcd lies in the evaluated variable alone (it is the gcd
of the contents), so coprime inputs cost one point per level.

Over Q the integer points never run out.  Over F_p a level draws each of
the p points at most once; when they are exhausted (only a small p allows
it) the recursive primitive polynomial-remainder sequence takes over: pick a
main variable, split content from primitive part, run pseudo-division with a
primitive-part reduction after every step, and recurse on the contents down
to constants (one variable needs no base case of its own: there the
contents are constants).  The PRS is also the tests' reference for Brown's
gcd.

Square-free decomposition iterates gcds with the partial derivatives
(Yun 1976) in every characteristic, and reads every quotient it needs off
the cofactors.  Over F_p that loop misses only a p-th
power b^p, and b is read off by dividing every exponent by p, since
Frobenius fixes F_p (Gianni & Trager 1996).
"""

from __future__ import annotations

import itertools
import random

from .errors import NotDivisible
from .poly import MvPoly
from .univariate import _inv, u_deg, u_divmod, u_eval, u_gcd, u_mul, u_reduce

_POINTS_SEED = 0x5EEDF1BE


class _PointsExhausted(Exception):
    """A level of `_brown_level` drew every point of F_p."""


def gcd_multivariate(*polys: MvPoly) -> MvPoly:
    """GCD of any number of polynomials, normalised to graded-lex leading
    coefficient 1.

    Zero inputs are ignored; at least one input must be nonzero.  The
    result divides every input exactly and any common divisor divides it.
    """
    return _gcd_of(polys)[0].monic()


def gcd_cofactors(*polys: MvPoly) -> tuple[MvPoly, list]:
    """`gcd_multivariate`'s g with the exact quotients [p_i / g], a zero
    input's quotient being 0."""
    g, cof = _gcd_of(polys, True)
    lc = g.leading_coefficient()
    it = iter(cof if lc == 1 else [q.scale(lc) for q in cof])
    return g.monic(), [next(it) if a else a for a in polys]


def _gcd_of(polys, cofactors: bool = False) -> tuple:
    """(g, [p_i / g]) for the unnormalised gcd g of the nonzero p_i; without
    `cofactors` only g is to be read.

    The shared monomial content X^s, the exponentwise least, comes out
    first: g = X^s gcd(p_i / X^(m_i)), m_i the content of p_i.  The rest is
    a fold in order, with an early exit once it is constant.
    """
    for b in polys[1:]:
        polys[0]._check(b)
    polys = [a for a in polys if a]
    if not polys:
        raise ValueError("gcd of zero polynomials is undefined")
    mins = [a.min_exponents() for a in polys]
    shared = tuple(map(min, zip(*mins)))
    g, cof = _shift(polys[0], [-k for k in mins[0]]), None
    for a, m in zip(polys[1:], mins[1:]):
        if g.is_constant():
            break
        b = _shift(a, [-k for k in m])
        if cof is not None:     # g is a gcd, and g | b gives gcd(g, b) = g
            try:
                cof.append(b.exact_div(g))
                continue
            except NotDivisible:
                pass
        g, qg, qb = _gcd_core(g, b, cofactors)
        cof = [qg, qb] if cof is None or not cofactors else \
            [c * qg for c in cof] + [qb]
    if g.is_constant():
        g = MvPoly.one(g.field, g.nvars)
        cof = [_shift(a, [-k for k in shared]) for a in polys] if cofactors \
            else None
    elif cofactors:
        cof = [_shift(c, [x - y for x, y in zip(m, shared)])
               for c, m in zip(cof or [MvPoly.one(g.field, g.nvars)], mins)]
    return _shift(g, shared), cof


def _shift(a: MvPoly, e) -> MvPoly:
    """a times the monomial X^e, whose exponents may be negative."""
    return a.shift(e) if any(e) else a


def _gcd_core(a: MvPoly, b: MvPoly, quotients: bool) -> tuple:
    """(g, a / g, b / g) for the unnormalised gcd g of two nonzero
    polynomials that carry no monomial content; without `quotients` only g
    is to be read."""
    common = sorted(set(a.variables_present()) & set(b.variables_present()))
    if not common:
        # Divisors of a poly involve only its own variables, so a constant
        # or two polys in disjoint variables share nothing.
        return MvPoly.one(a.field, a.nvars), a, b
    try:
        return _brown(a, b, quotients)
    except _PointsExhausted:
        pass
    g = _prs(a, b, min(common, key=lambda j: min(a.degree_in(j),
                                                 b.degree_in(j))))
    if not quotients:
        return g, None, None
    return g, a.exact_div(g), b.exact_div(g)


def _prs(a: MvPoly, b: MvPoly, v: int) -> MvPoly:
    """gcd of polynomials with no monomial content that share variable v,
    by the primitive PRS in v."""
    ca, pa = _content_and_primitive(a, v)
    cb, pb = _content_and_primitive(b, v)
    cg = _gcd_of([ca, cb])[0]

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
    return cg * g


def _coeffs_in(a: MvPoly, v: int) -> dict:
    """Map v-exponent -> coefficient polynomial (v removed)."""
    buckets: dict = {}
    for e, c in a.terms.items():
        k = e[v]
        e0 = e[:v] + (0,) + e[v + 1:]
        buckets.setdefault(k, {})[e0] = c
    return {k: MvPoly(a.field, a.nvars, t) for k, t in buckets.items()}


def _content_and_primitive(a: MvPoly, v: int) -> tuple[MvPoly, MvPoly]:
    """Content and primitive part of a in v, both monic; the content is 1
    when it is constant."""
    coeffs = _coeffs_in(a, v)
    c = _gcd_of([cf for _, cf in sorted(coeffs.items())])[0]
    if c.is_constant():
        return MvPoly.one(a.field, a.nvars), a.monic()
    c = c.monic()
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
    lg = _coeffs_in(g, v)[dg]
    r = f
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < dg:
            break
        lr = _coeffs_in(r, v)[dr]
        exps = [0] * f.nvars
        exps[v] = dr - dg
        r = lg * r - (lr * g).shift(exps)
    return r


def _brown(a: MvPoly, b: MvPoly, quotients: bool = False) -> tuple:
    """`_gcd_core` by Brown's gcd (Brown 1971).

    Two forms are dehomogenised at X0 = 1 (cut = 1): X0 divides neither, so
    no common factor is lost, and the gcd and the quotients get X0 back up
    to their total degrees k.  Other inputs (cut = 0) keep all their
    variables, moved to slots 1..nvars.  Raises _PointsExhausted when F_p
    has too few points.
    """
    F, n = a.field, a.nvars
    cut = int(a.is_homogeneous() and b.is_homogeneous())
    g, qa, qb = _brown_level(*({(0,) + e[cut:]: c for e, c in t.terms.items()}
                               for t in (a, b)), n - cut, F, quotients)
    d = max(map(sum, g))
    if not d:   # g = 1
        return MvPoly.one(F, n), a, b

    def back(t: dict, k: int) -> MvPoly:    # forms get X0 back up to degree k
        return MvPoly(F, n, {(k - sum(e),)[:cut] + e[1:]: c for e, c in t.items()})
    if not quotients:
        return back(g, d), None, None
    return back(g, d), back(qa, a.total_degree() - d), \
        back(qb, b.total_degree() - d)


def _brown_level(a: dict, b: dict, k: int, F, quotients: bool = False) -> tuple:
    """(g, a / g, b / g) for the gcd g of nonzero term maps in X1..Xk (slot
    0 unused), by evaluation and interpolation in y = Xk.  Only g is to be
    read without `quotients`, and the images compute no quotient.

    The inputs are split into coefficients in F[y] of monomials in
    X1..X(k-1).  The gcd is gcd(contents) times the gcd of the primitive
    parts.  At a point y0 where neither lex leading coefficient vanishes,
    the recursive gcd of the images has the leading monomial of that gcd
    (lucky) or a larger one (unlucky, skipped); a smaller one than before
    means every earlier point was unlucky.  Lucky images, made monic and
    scaled by gamma(y0), gamma the gcd of the leading coefficients,
    interpolate gamma/lc * gcd once there are deg gamma + min deg_y + 1 of
    them; its primitive part times the content gcd is the gcd when it
    divides both inputs, and those trial divisions are the quotients.
    """
    p = F.char
    A, B = _split(a, k), _split(b, k)
    if k == 1:
        (x, ua), = A.items()
        g = u_gcd(ua, B[x], p)
        if not quotients:
            return _join({x: g}, k), None, None
        return tuple(_join({x: row}, k) for row in
                     (g, u_divmod(ua, g, p)[0], u_divmod(B[x], g, p)[0]))
    ca, cb = _u_content(A.values(), p), _u_content(B.values(), p)
    cg = u_gcd(ca, cb, p)
    A, B = _u_divide(A, ca, p), _u_divide(B, cb, p)

    def times(rows: dict, c: list) -> dict:
        return _join({x: u_reduce(u_mul(row, c), p) for x, row in rows.items()}, k)

    la, lb = A[max(A)], B[max(B)]
    gamma = u_gcd(la, lb, p)
    need = u_deg(gamma) + min(max(map(len, A.values())), max(map(len, B.values())))
    lead = None
    for y0 in _evaluation_points(p, k):
        if not (u_eval(la, y0, p) and u_eval(lb, y0, p)):
            continue
        g = _brown_level(_image(A, y0, p), _image(B, y0, p), k - 1, F)[0]
        top = max(g)
        if not any(top):
            if not quotients or len(cg) == 1:
                return _join({top: cg}, k), a, b
            return (_join({top: cg}, k), times(A, u_divmod(ca, cg, p)[0]),
                    times(B, u_divmod(cb, cg, p)[0]))
        if lead is None or top < lead:
            lead, H, q = top, {}, [1]
        elif top > lead:
            continue
        # Newton step: H += q * (gamma(y0) g / lc(g) - H(y0)) / q(y0)
        scale = u_eval(gamma, y0, p) * _inv(g[top], p)
        qi = _inv(u_eval(q, y0, p), p)
        for x in H.keys() | g.keys():
            row = H.get(x, [])
            r = (scale * g.get(x, 0) - u_eval(row, y0, p)) * qi
            if p:
                r %= p
            if r:
                row = row + [0] * (len(q) - len(row))
                H[x] = u_reduce([u + r * c for u, c in zip(row, q)], p)
        q = u_reduce(u_mul(q, [-y0, 1]), p)
        if len(q) > need:
            cand = _u_divide(H, _u_content(H.values(), p), p)
            g = times(cand, cg)
            qa = _quotient(a, g, F)
            if qa is not None:
                qb = _quotient(b, g, F)
                if qb is not None:
                    return g, qa, qb
            lead = None
    raise _PointsExhausted


def _evaluation_points(p: int, k: int):
    """Seeded points for level k, none repeated: over Q the integers from a
    random start on; over F_p all p points, in a progression with a random
    start and a random nonzero step."""
    rng = random.Random(_POINTS_SEED + k)
    if not p:
        return itertools.count(rng.randrange(64))
    start, step = rng.randrange(p), rng.randrange(1, p)
    return ((start + i * step) % p for i in range(p))


def _split(t: dict, y: int) -> dict:
    """Map monomial with X_y removed -> dense coefficient list in X_y."""
    out: dict = {}
    for e, c in t.items():
        row = out.setdefault(e[:y] + (0,) + e[y + 1:], [])
        if len(row) <= e[y]:
            row.extend([0] * (e[y] + 1 - len(row)))
        row[e[y]] = c
    return out


def _join(rows: dict, y: int) -> dict:
    return {x[:y] + (i,) + x[y + 1:]: c
            for x, row in rows.items() for i, c in enumerate(row) if c}


def _image(rows: dict, y0: int, p: int) -> dict:
    return {x: v for x, row in rows.items() if (v := u_eval(row, y0, p))}


def _u_content(rows, p: int) -> list:
    """Monic gcd of the dense lists in rows."""
    c: list = []
    for row in rows:
        c = u_gcd(c, row, p)
        if len(c) == 1:
            break
    return c


def _u_divide(rows: dict, c: list, p: int) -> dict:
    if len(c) == 1:
        return rows
    return {x: u_divmod(row, c, p)[0] for x, row in rows.items()}


def _quotient(t: dict, g: dict, F) -> dict | None:
    """The terms of t / g when g divides t, else None: Brown's certificate."""
    nvars = len(next(iter(t)))
    try:
        return MvPoly(F, nvars, t).exact_div(MvPoly(F, nvars, g)).terms
    except NotDivisible:
        return None


def squarefree_part(a: MvPoly) -> MvPoly:
    """Product of the distinct irreducible factors of a, monic: the product
    of `squarefree_decompose`'s parts.

    When p = 0 or p > deg a it is the derivative gcd's cofactor a / c, made
    monic, and Yun's loop does not run.  Write a = lc prod P^e over the
    distinct irreducible factors P.  Every e <= deg a is then nonzero in
    the field, and some partial dP/dX_j is nonzero (all of them vanish only
    for a polynomial in the X_j^p, of degree p or more, or for a constant)
    and not divisible by P, of lower degree.  The product rule gives
    da/dX_j = e P^(e-1) (dP/dX_j) (a / P^e) + P^e (...), so P^(e-1)
    divides every partial and P^e does not divide da/dX_j: c = gcd(a, da)
    = prod P^(e-1) up to a scalar, and a / c = lc prod P.  For p <= deg a,
    a / c would drop the factors whose multiplicity p divides, so the
    product of the parts stands.
    """
    p = a.field.char
    if a.is_constant() or (p and p <= a.total_degree()):
        sf = MvPoly.one(a.field, a.nvars)
        for part, _ in squarefree_decompose(a):
            sf = sf * part
        return sf
    return _derivative_gcd(a)[1].monic()


def squarefree_decompose(a: MvPoly) -> list[tuple[MvPoly, int]]:
    """Pairwise-coprime square-free parts P_e with a = lc * prod P_e^e.

    Parts are returned monic, ordered by ascending multiplicity e.
    """
    if a.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if a.is_constant():
        return []
    c, w = _derivative_gcd(a)   # prod p_i^(e_i - 1), times b^p over F_p
    w = w.monic()               # a / c = prod p_i
    parts = []
    e = 1
    while not w.is_constant():
        w_next, (c, part) = gcd_cofactors(c, w)
        part = part.monic()
        if part.total_degree() > 0:
            parts.append((part, e))
        w = w_next
        e += 1
    if c.is_constant():
        return parts
    # What is left is b^p, the factors whose multiplicity p divides; over Q
    # c always ends constant.
    p = a.field.char
    b = MvPoly(a.field, a.nvars,
               {tuple(k // p for k in x): v for x, v in c.terms.items()})
    parts += [(q, k * p) for q, k in squarefree_decompose(b)]
    return sorted(parts, key=lambda pe: pe[1])


def _derivative_gcd(a: MvPoly) -> tuple[MvPoly, MvPoly]:
    """(c, a / c) for c = gcd(a, da/dX_0, ..., da/dX_m), monic.

    A form of degree prime to p needs no a: deg a * a = sum X_j da/dX_j
    (Euler), so the partials' gcd divides a, and a / c is that sum over the
    partials' cofactors, divided by deg a.
    """
    p, n = a.field.char, a.nvars
    partials = [a.derivative(j) for j in range(n)]
    if a.is_homogeneous() and (not p or a.total_degree() % p):
        c, cof = gcd_cofactors(*partials)
        inv = a.field.inv(a.total_degree())
        terms: dict = {}
        for j, q in enumerate(cof):
            for e, v in q.terms.items():
                e = e[:j] + (e[j] + 1,) + e[j + 1:]
                terms[e] = terms.get(e, 0) + v * inv
        return c, MvPoly(a.field, n, terms)
    c, cof = gcd_cofactors(a, *partials)
    return c, cof[0]
