"""GCD and square-free decomposition against independent oracles.

The gcd oracle builds inputs as explicit products of certified pairwise
coprime atoms, so the gcd is known by construction; candidate divisors are
enumerated over the exponent lattice and the maximal one that divides both
inputs must match the kernel's answer.  Coprimality of atoms is certified
with a test-local univariate Euclid along random lines, independent of the
kernel's gcd.
"""

import itertools
import pathlib
import random

import pytest

from fiberbound import (ArityMismatch, MvPoly, PrimeField, RationalField,
                        RationalMapInput, gcd, gcd_cofactors,
                        gcd_multivariate, parse_map_file, run_analysis,
                        squarefree_decompose, squarefree_part)

from conftest import _count_brown, rand_nonzero, random_nonzero_poly


# -- test-local univariate Euclid (independent of the kernel gcd) ------------

def _local_u_gcd_deg(p, a, b):
    """Degree of gcd of two dense int-coefficient polys mod p."""
    a = [x % p for x in a]
    b = [x % p for x in b]

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i in range(len(b)):
                a[k + i] = (a[k + i] - b[i] * c) % p
            trim(a)
        a, b = b, a
    return len(a) - 1


def _certified_coprime(field, u, v, rng):
    """True when u, v provably share no factor (checked on 3 random lines)."""
    p = field.p
    hits = 0
    for _ in range(6):
        a = [field.rand(rng) for _ in range(u.nvars)]
        b = [field.rand(rng) for _ in range(u.nvars)]
        ru, rv = u.on_line(a, b), v.on_line(a, b)
        if len(ru) - 1 != u.total_degree() or len(rv) - 1 != v.total_degree():
            continue
        if _local_u_gcd_deg(p, ru, rv) != 0:
            return False
        hits += 1
        if hits == 3:
            return True
    return False


def _random_atoms(field, rng, count):
    atoms = []
    guard = 0
    while len(atoms) < count:
        guard += 1
        assert guard < 200
        deg = rng.choice([1, 1, 2])
        cand = random_nonzero_poly(field, 3, deg, rng, homogeneous_deg=None)
        if cand.is_constant():
            continue
        if all(_certified_coprime(field, cand, a, rng) for a in atoms):
            atoms.append(cand)
    return atoms


def test_gcd_trivial_examples(field, xyz):
    x0, x1, _ = xyz
    g = gcd_multivariate(x0 ** 2 - x1 ** 2, (x0 + x1) ** 2)
    assert g == (x0 + x1).monic()
    f = (x0 * x1 + x1 ** 2).scale(field.conv(7))
    assert gcd_multivariate(f, MvPoly.zero(field, 3)) == f.monic()
    with pytest.raises(ValueError):
        gcd_multivariate(MvPoly.zero(field, 3), MvPoly.zero(field, 3))


def test_gcd_divides_both_and_quotients_check(field):
    rng = random.Random(21)
    for _ in range(30):
        a = random_nonzero_poly(field, 3, 4, rng)
        b = random_nonzero_poly(field, 3, 4, rng)
        g = gcd_multivariate(a, b)
        assert g.divides(a) and g.divides(b)
        assert a.exact_div(g) * g == a


def test_gcd_common_factor_pulls_out(field):
    # gcd(a*c, b*c) == gcd(a, b) * c up to normalisation
    rng = random.Random(22)
    for _ in range(15):
        a = random_nonzero_poly(field, 3, 3, rng)
        b = random_nonzero_poly(field, 3, 3, rng)
        c = random_nonzero_poly(field, 3, 2, rng)
        lhs = gcd_multivariate(a * c, b * c)
        rhs = (gcd_multivariate(a, b) * c).monic()
        assert lhs == rhs


def test_gcd_oracle_small_loop(field):
    # Smaller twin of the acceptance loop; see tests/test_acceptance.py.
    rng = random.Random(23)
    for _ in range(20):
        atoms = _random_atoms(field, rng, rng.choice([1, 2, 3]))
        ea = [rng.randrange(0, 3) for _ in atoms]
        eb = [rng.randrange(0, 3) for _ in atoms]
        a = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        b = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        for q, x, y in zip(atoms, ea, eb):
            a = a * q ** x
            b = b * q ** y
        expected = MvPoly.one(field, 3)
        for q, x, y in zip(atoms, ea, eb):
            expected = expected * q ** min(x, y)
        assert gcd_multivariate(a, b) == expected.monic()


def test_squarefree_decompose_example(field, xyz):
    x0, x1, _ = xyz
    parts = squarefree_decompose(x0 ** 3 * x1 ** 2 * (x0 + x1))
    assert [(str(p), e) for p, e in parts] == \
        [("X0 + X1", 1), ("X1", 2), ("X0", 3)]


def test_squarefree_identity_case(field):
    rng = random.Random(24)
    f = random_nonzero_poly(field, 3, 3, rng)
    g = squarefree_part(f)
    if g == f.monic():        # f square-free: single part, multiplicity 1
        parts = squarefree_decompose(f)
        assert parts == [(f.monic(), 1)]


def test_squarefree_reconstruction_and_coprimality(field):
    rng = random.Random(25)
    for _ in range(20):
        atoms = _random_atoms(field, rng, rng.choice([1, 2]))
        f = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        for i, q in enumerate(atoms):
            f = f * q ** (i + 1 + rng.randrange(0, 2))
        parts = squarefree_decompose(f)
        rebuilt = MvPoly.one(field, 3)
        for p, e in parts:
            rebuilt = rebuilt * p ** e
        assert rebuilt == f.monic()
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                g = gcd_multivariate(parts[i][0], parts[j][0])
                assert g.is_constant()


def test_squarefree_in_small_characteristic():
    # p <= deg: multiplicities below p come out of the derivative loop, and
    # a p-th power b^p, which every partial kills, comes out of the
    # exponent-divided b; with p | deg a form keeps itself in the
    # derivative gcd
    def decompose(a):
        return [(str(q), e) for q, e in squarefree_decompose(a)]

    F7 = PrimeField(7)
    x, y = (MvPoly.variable(F7, 2, j) for j in range(2))
    assert decompose(x ** 5 * y ** 3) == [("X1", 3), ("X0", 5)]
    x0, x1, x2 = (MvPoly.variable(F7, 3, j) for j in range(3))
    assert decompose((x0 - x1) ** 7 * x2) == [("X2", 1), ("X0 - X1", 7)]
    a = (x0 - x1) ** 7 * x2 ** 7
    assert decompose(a) == [("X0*X2 - X1*X2", 7)]
    assert squarefree_part(a) == (x0 - x1) * x2
    F3 = PrimeField(3)
    x, y = (MvPoly.variable(F3, 2, j) for j in range(2))
    one = MvPoly.one(F3, 2)
    assert decompose((x + y + one) ** 9 * (x - y) ** 3 * (x * y + one) ** 2) \
        == [("X0*X1 + 1", 2), ("X0 - X1", 3), ("X0 + X1 + 1", 9)]


def test_gcd_over_rationals():
    Q = RationalField()
    x = MvPoly.variable(Q, 2, 0)
    y = MvPoly.variable(Q, 2, 1)
    a = (x + y) ** 2 * (x - y)
    b = (x + y) * (x ** 2 + y ** 2)
    assert gcd_multivariate(a, b) == (x + y).monic()
    parts = squarefree_decompose(a)
    assert sorted((str(p), e) for p, e in parts) == \
        [("X0 + X1", 2), ("X0 - X1", 1)]


# -- the n-ary entry point ---------------------------------------------------

@pytest.mark.parametrize("field", [PrimeField(7), RationalField()],
                         ids=["F7", "Q"])
def test_gcd_of_three_or_more_equals_the_pairwise_fold(field):
    rng = random.Random(26)
    for _ in range(12):
        common = random_nonzero_poly(field, 3, 1, rng)
        while common.is_constant():
            common = random_nonzero_poly(field, 3, 1, rng)
        polys = [random_nonzero_poly(field, 3, 2, rng) * common
                 for _ in range(rng.choice([3, 4]))]
        fold = polys[0]
        for p in polys[1:]:
            fold = gcd_multivariate(fold, p)
        g = gcd_multivariate(*polys)
        assert g == fold
        assert common.divides(g)


def test_gcd_ignores_zero_arguments(field, xyz):
    x0, x1, x2 = xyz
    zero = MvPoly.zero(field, 3)
    a = (x0 + x1) * x2 * 3
    b = (x0 + x1) * (x1 - x2)
    want = gcd_multivariate(a, b)
    assert want == (x0 + x1).monic()
    for args in [(zero, a, b), (a, zero, b), (a, b, zero),
                 (zero, a, zero, b, zero)]:
        assert gcd_multivariate(*args) == want
    assert gcd_multivariate(zero, a, zero) == a.monic()
    assert gcd_multivariate(a) == a.monic()


def test_gcd_of_only_zeros_raises(field):
    zero = MvPoly.zero(field, 3)
    for args in [(), (zero,), (zero, zero, zero)]:
        with pytest.raises(ValueError):
            gcd_multivariate(*args)


def test_gcd_ring_mismatch_in_any_position(field, xyz):
    x0, x1, _ = xyz
    other = MvPoly.variable(field, 2, 0)
    for bad in (other, MvPoly.zero(field, 2)):
        for k in range(3):
            args = [x0 * x1, x0, x0 + x1]
            args.insert(k, bad)
            with pytest.raises(ArityMismatch):
                gcd_multivariate(*args)


# -- polynomials in one variable -----------------------------------------------

@pytest.mark.parametrize("nvars, j", [(1, 0), (3, 2)], ids=["ring1", "X2of3"])
@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(101),
                                   RationalField()], ids=["F7", "F101", "Q"])
def test_gcd_in_one_variable(field, nvars, j):
    # gcd(a c, b c) = c when a and b have no common root: a planted factor c
    # in t = X_j, in a one-variable ring and in one variable of three.
    rng = random.Random(27)
    t = MvPoly.variable(field, nvars, j)
    for _ in range(20):
        r = rng.sample(range(7), 4)   # distinct mod 7, mod 101 and over Q
        a = ((t - r[0]) * (t - r[1])).scale(rand_nonzero(field, rng))
        b = (t - r[2]) ** rng.randrange(1, 3) * (t - r[3])
        deg = rng.randrange(1, 4)
        c = (t ** deg).scale(rand_nonzero(field, rng))
        for k in range(deg):
            c = c + (t ** k).scale(field.rand(rng))
        assert gcd_multivariate(a * c, b * c) == c.monic()


def test_gcd_of_single_variable_inputs_in_three_variables(field, xyz):
    x0, x1, x2 = xyz
    one = MvPoly.one(field, 3)
    assert gcd_multivariate(x1 ** 3 * 5, x1 ** 5) == x1 ** 3
    assert gcd_multivariate(x1 ** 2, x2 ** 4) == one
    assert gcd_multivariate(x2 ** 3, (x0 - x1) ** 2) == one
    assert gcd_multivariate(x1 ** 2, x1 * (x0 + x2), x1 ** 4) == x1
    assert gcd_multivariate((x1 - 2) * (x1 + 3), (x1 - 2) * (x0 + x2)) \
        == x1 - 2


# -- evaluation/interpolation gcd, and the PRS it falls back on ---------------

def _force_prs(monkeypatch):
    def exhausted(a, b, *quotients):
        raise gcd._PointsExhausted
    monkeypatch.setattr(gcd, "_brown", exhausted)


BROWN_CASES = ([(p, nvars, True) for p in (101, 2147483647) for nvars in (2, 3, 4)]
               + [(0, 2, True), (0, 3, True), (0, 2, False), (0, 3, False),
                  (101, 3, False), (2147483647, 4, False)])


@pytest.mark.parametrize("p, nvars, form", BROWN_CASES, ids=[
    f"{p or 'Q'}-{nvars}" + ("" if form else "-nonform")
    for p, nvars, form in BROWN_CASES])
def test_brown_agrees_with_the_prs_on_planted_factors(p, nvars, form,
                                                      monkeypatch):
    F = PrimeField(p) if p else RationalField()
    rng = random.Random(41 + nvars)
    cases = []
    for _ in range(8):
        if form:
            a, b, c = (random_nonzero_poly(F, nvars, 0, rng,
                                           homogeneous_deg=rng.randint(1, 2))
                       for _ in range(3))
        else:
            a, b, c = (random_nonzero_poly(F, nvars, 2, rng) for _ in range(3))
        cases.append((a * c, b * c, c))
    calls = _count_brown(monkeypatch)
    fast = [gcd_multivariate(x, y) for x, y, _ in cases]
    assert calls
    _force_prs(monkeypatch)
    slow = [gcd_multivariate(x, y) for x, y, _ in cases]
    assert fast == slow
    for g, (x, y, c) in zip(fast, cases):
        assert c.divides(g) and g.divides(x) and g.divides(y)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_small_primes_agree_with_the_prs(p, monkeypatch):
    text = (pathlib.Path(__file__).resolve().parent.parent / "maps"
            / "example2.map").read_text()
    text = "".join(f"field p={p}\n" if ln.startswith("field") else ln
                   for ln in text.splitlines(True))
    inp = parse_map_file(text)
    calls = _count_brown(monkeypatch)
    rep = run_analysis(inp, seed=42, budget=40)
    d = rep.to_json_dict()
    assert (d["degF"], d["indegSyz"]) == (11, 2) and calls
    _force_prs(monkeypatch)
    assert run_analysis(inp, seed=42, budget=40).to_json() == rep.to_json()


def test_points_run_out_and_the_prs_takes_over(monkeypatch):
    # Dehomogenised, a's top power of X1 has the coefficient X2^5 - X2, which
    # vanishes at every point of F_5, so Brown's gcd can draw no point.
    F = PrimeField(5)
    x0, x1, x2 = (MvPoly.variable(F, 3, j) for j in range(3))
    c = x1 + x2
    a = c * (x1 ** 2 * (x2 ** 5 - x0 ** 4 * x2) + x0 ** 7)
    b = c * (x0 + x1)
    real, ran_out = gcd._brown, []

    def brown(u, v, *quotients):
        try:
            return real(u, v, *quotients)
        except gcd._PointsExhausted:
            ran_out.append((u, v))
            raise
    monkeypatch.setattr(gcd, "_brown", brown)
    assert gcd_multivariate(a, b) == c
    assert ran_out == [(a, b)]


def test_coprime_inputs_draw_one_point_per_level(monkeypatch):
    # the first lucky image of two coprime forms is constant, which certifies
    # the gcd at once; a dense P^2 --> P^3 map has F = 1
    F = PrimeField()
    rng = random.Random(43)
    forms = [random_nonzero_poly(F, 3, 0, rng, homogeneous_deg=4, density=1.0)
             for _ in range(4)]
    real, drawn = gcd._evaluation_points, []

    def points(p, k):
        for y0 in real(p, k):
            drawn.append(k)
            yield y0
    monkeypatch.setattr(gcd, "_evaluation_points", points)
    calls = _count_brown(monkeypatch)
    assert gcd_multivariate(forms[0], forms[1]).is_constant()
    assert len(calls) == 1 and drawn == [2]
    rep = run_analysis(RationalMapInput.create(F, forms), seed=1, budget=40)
    assert rep.jacobian.F.is_constant()


def test_prs_hard_cases_have_their_planted_answers():
    # non-forms in several variables, where the content recursion of the PRS
    # blows up: a gcd over Q in four variables and a square-free part over
    # F_101 in three
    rng = random.Random(44)
    Q = RationalField()
    a, b, c = (random_nonzero_poly(Q, 4, deg, rng, density=1.0)
               for deg in (2, 3, 2))
    assert gcd_multivariate(a * c, b * c) == c.monic()
    F = PrimeField(101)
    a, c = (random_nonzero_poly(F, 3, 3, rng, density=1.0) for _ in range(2))
    assert squarefree_part(a * c * c) == (a * c).monic()


@pytest.mark.parametrize("c_has_y, first, retried", [
    (True, [0, 1], False), (False, [0, 1], True), (True, [5, 0, 1], False)],
    ids=["restart", "retry", "skip"])
def test_unlucky_points_are_skipped_or_retried(c_has_y, first, retried, xyz,
                                               monkeypatch):
    # At X2 = 0 and X2 = 1 the images of U = X1^2 - X0 X2 and W = X1 - X2
    # share a root, so those points are unlucky.  With c free of X2 two
    # points fill the interpolation, and its result X1 - X2 fails trial
    # division (retry).  With X2 in c a third point is needed: a lucky one
    # after the unlucky ones restarts the interpolation, and unlucky ones
    # after a lucky one are skipped.
    x0, x1, x2 = xyz
    c = x1 + 2 * x0 + (x2 if c_has_y else 0)
    a, b = c * (x1 ** 2 - x0 * x2), c * (x1 - x2)
    real = gcd._evaluation_points
    drawn, divides = [], []

    def points(p, k):
        rest = (y for y in real(p, k) if y not in first)
        for y0 in itertools.chain(first, rest):
            drawn.append(y0)
            yield y0

    real_quotient = gcd._quotient

    def quotient(t, g, F):
        q = real_quotient(t, g, F)
        divides.append(q is not None)
        return q
    monkeypatch.setattr(gcd, "_evaluation_points", points)
    monkeypatch.setattr(gcd, "_quotient", quotient)
    calls = _count_brown(monkeypatch)
    assert gcd_multivariate(a, b) == c.monic()
    assert len(calls) == 1 and drawn[:len(first)] == first
    assert len(drawn) > len(first)
    assert (False in divides) is retried


def test_squarefree_of_a_non_form_keeps_it_in_the_derivative_gcd(field, xyz):
    # the partials of X1^2 + 1 share X1, which does not divide it; only a
    # form may leave itself out of the derivative gcd (Euler's identity)
    a = xyz[1] ** 2 + 1
    assert squarefree_part(a) == a
    assert squarefree_decompose(a) == [(a, 1)]


# -- cofactors ----------------------------------------------------------------

FIELDS = [PrimeField(), RationalField()]


def _cofactors_check(polys):
    """gcd_cofactors against gcd_multivariate and g * c_i = p_i."""
    g, cof = gcd_cofactors(*polys)
    assert g == gcd_multivariate(*polys)
    assert len(cof) == len(polys)
    assert all(g * c == a for c, a in zip(cof, polys))
    return g, cof


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
@pytest.mark.parametrize("form", [True, False], ids=["forms", "nonforms"])
def test_cofactors_multiply_back(field, form):
    # two or three inputs with a planted common factor c; the third is made
    # so that the gcd of the first two is larger than the gcd of all
    rng = random.Random(45)
    for _ in range(8):
        a, b, c, u, w = (
            random_nonzero_poly(field, 3, 2, rng, **(
                {"homogeneous_deg": rng.randint(1, 2)} if form else {}))
            for _ in range(5))
        g, _ = _cofactors_check([(a * c).scale(3), b * c])
        assert c.divides(g)
        g, _ = _cofactors_check([a * c * u, b * c * u, w * c])
        assert c.divides(g)


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_cofactors_of_zero_monomial_coprime_and_constant_inputs(field):
    x0, x1, x2 = (MvPoly.variable(field, 3, j) for j in range(3))
    zero, one = MvPoly.zero(field, 3), MvPoly.one(field, 3)
    c = x0 + 2 * x1 - x2
    a, b = 3 * c * (x1 - x2), c * (x0 + x2) * x1
    g, cof = _cofactors_check([zero, a, zero, b])
    assert g == c.monic() and cof[0] == cof[2] == zero
    # shared and unshared monomial content
    g, _ = _cofactors_check([x0 ** 2 * x1 * a, x0 * x1 ** 3 * b, x0 * x2 * c])
    assert g == (x0 * c).monic()
    # coprime and constant inputs: g = 1 and the inputs are their cofactors
    for polys in ([x0 + x1, x1 - x2], [MvPoly.constant(field, 3, 5), a],
                  [x0 ** 2, x1 * x2]):
        assert _cofactors_check(polys) == (one, polys)
    # one input is its own gcd, up to its leading coefficient
    assert _cofactors_check([a]) == (a.monic(), [a.leading_coefficient() * one])
    # binary forms, and polys in one variable: Brown's gcd is Euclid's there
    s, t = (MvPoly.variable(field, 2, j) for j in range(2))
    g, _ = _cofactors_check([(s + t) * (s - 2 * t) ** 2, 4 * (s + t) * (s + 3 * t)])
    assert g == s + t
    t = MvPoly.variable(field, 1, 0)
    g, _ = _cofactors_check([(t - 1) * (t - 2), 3 * (t - 1) * (t + 3)])
    assert g == t - 1


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_cofactors_with_a_gcd_part_in_the_last_variable(field):
    # the forms dehomogenise to polys in X1, X2 whose gcd has the content
    # X2 - 1 in y = X2: the certificate divides content and primitive part
    # together, and on coprime primitive parts a constant image ends Brown
    x0, x1, x2 = (MvPoly.variable(field, 3, j) for j in range(3))
    c, h = x2 - x0, x1 + 3 * x2 - x0
    _cofactors_check([c * h * (x1 - x0), (c * h * (x1 + x2)).scale(5)])
    _cofactors_check([c * (x0 + x1), c * (x1 - 2 * x2)])


@pytest.mark.parametrize("p", [5, 7])
def test_cofactors_when_the_points_run_out(p, monkeypatch):
    # as in test_points_run_out_and_the_prs_takes_over: the PRS finds the
    # gcd, and one division per input gives the cofactors
    F = PrimeField(p)
    x0, x1, x2 = (MvPoly.variable(F, 3, j) for j in range(3))
    c = x1 + x2
    a = c * (x1 ** 2 * (x2 ** p - x0 ** (p - 1) * x2) + x0 ** (p + 2))
    b = (c * (x0 + x1)).scale(3)
    real, ran_out = gcd._brown, []

    def brown(u, v, *quotients):
        try:
            return real(u, v, *quotients)
        except gcd._PointsExhausted:
            ran_out.append((u, v))
            raise
    monkeypatch.setattr(gcd, "_brown", brown)
    g, _ = _cofactors_check([a, b])
    assert g == c and ran_out


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_derivative_gcd_hands_back_the_quotient(field):
    # a / c comes from the partials' cofactors by Euler's identity for a
    # form, and is the cofactor of a itself otherwise
    x0, x1, x2 = (MvPoly.variable(field, 3, j) for j in range(3))
    for a in [(x0 - x1) ** 3 * (x1 + x2) ** 2 * x2, 7 * (x0 + x1) ** 2 * x1,
              (x1 ** 2 + x0) ** 2 * (x2 + 1)]:
        c, w = gcd._derivative_gcd(a)
        assert c * w == a
        assert c == gcd_multivariate(a, *(a.derivative(j) for j in range(3)))


def _product_of_parts(a):
    out = MvPoly.one(a.field, a.nvars)
    for part, _ in squarefree_decompose(a):
        out = out * part
    return out


@pytest.mark.parametrize("F", [PrimeField(7), PrimeField(101),
                               RationalField()], ids=["F7", "F101", "Q"])
def test_squarefree_part_is_the_product_of_the_parts(F, monkeypatch):
    # p > deg a (or p = 0) takes the derivative gcd's cofactor; over F_7 the
    # inputs of degree 7 or more, a 7th power among them, keep Yun's loop.
    x0, x1, x2 = (MvPoly.variable(F, 3, j) for j in range(3))
    one = MvPoly.one(F, 3)
    cases = [(x0 - x1) ** 2 * x2, (x0 + 2 * x1 + x2) ** 3 * (x0 * x1 - x2 ** 2),
             (x0 - x1) ** 7 * x2, (x0 * x1 + x2 ** 2) ** 2 * (x1 - x2) ** 3,
             (x0 + x1 + one) ** 3 * (x2 - one) ** 2, x0 ** 4 * (x1 + 3 * x2),
             3 * (x0 ** 2 + x1 * x2)]
    rng = random.Random(F.char)
    for _ in range(4):
        f = random_nonzero_poly(F, 3, 0, rng, homogeneous_deg=2)
        g = random_nonzero_poly(F, 3, 0, rng, homogeneous_deg=1)
        cases.append(f ** 2 * g ** 3)
    yun = []
    real = gcd.squarefree_decompose
    monkeypatch.setattr(gcd, "squarefree_decompose",
                        lambda a: yun.append(a) or real(a))
    for a in cases:
        del yun[:]
        assert gcd.squarefree_part(a) == _product_of_parts(a), str(a)
        assert bool(yun) == (0 < F.char <= a.total_degree()), str(a)
