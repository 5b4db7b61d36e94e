"""Arithmetic kernel: ring operations, exact division, calculus, ordering."""

import random
from fractions import Fraction

import pytest

from fiberbound import (ArityMismatch, MvPoly, NotDivisible, PrimeField,
                        RationalField)
from fiberbound import poly
from fiberbound.poly import (DIV_TERMS, KRONECKER_PAIRS, _dict_mul,
                             _integer_mul, _kronecker_mul, _pack, _packed_div,
                             _packs, _slot_bytes, _unpack_signed, grlex_key,
                             monomials_of_degree)

from conftest import rand_nonzero, random_poly


def test_difference_of_squares(field, xyz):
    x0, x1, _ = xyz
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2


def test_exact_div_recovers_factor(field, xyz):
    x0, x1, _ = xyz
    q = (x0 ** 2 - x1 ** 2).exact_div(x0 + x1)
    assert q == x0 - x1


def test_exact_div_rejects_nonzero_remainder(field, xyz):
    x0, x1, _ = xyz
    with pytest.raises(NotDivisible):
        (x0 ** 2 + x1 ** 2).exact_div(x0 + x1)


@pytest.mark.parametrize("F", [PrimeField(7), RationalField()],
                         ids=["F7", "Q"])
def test_exact_div_of_non_forms_whose_orders_disagree(F):
    # X0 + X1^3 leads with X1^3 in grlex but with X0 in lex, the order
    # exact_div divides in; the quotient is the same either way
    x0, x1 = (MvPoly.variable(F, 2, j) for j in range(2))
    a, b = x1 ** 2 + x0, x0 + x1 ** 3
    assert b.leading_monomial() == (0, 3) and max(b.terms) == (1, 0)
    assert (a * b).exact_div(b) == a
    assert (a * b).exact_div(a) == b
    with pytest.raises(NotDivisible):
        (a * b + x1).exact_div(b)


def test_exact_div_random_products(field):
    rng = random.Random(11)
    for _ in range(25):
        a = random_poly(field, 3, 3, rng)
        b = random_poly(field, 3, 3, rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_arity_mismatch(field):
    a = MvPoly.variable(field, 2, 0)
    b = MvPoly.variable(field, 3, 0)
    with pytest.raises(ArityMismatch):
        a + b


def test_zero_and_constant_predicates(field, xyz):
    x0 = xyz[0]
    zero = MvPoly.zero(field, 3)
    assert zero.is_zero() and zero.total_degree() == -1
    assert (x0 - x0) == zero
    assert MvPoly.constant(field, 3, 5).is_constant()


def test_derivative_power_rule(field, xyz):
    x0, x1, _ = xyz
    assert (x0 ** 3 * x1).derivative(0) == 3 * x0 ** 2 * x1
    assert MvPoly.constant(field, 3, 9).derivative(1).is_zero()


def test_derivative_product_rule_random(field):
    rng = random.Random(5)
    for _ in range(20):
        f = random_poly(field, 3, 4, rng)
        g = random_poly(field, 3, 4, rng)
        for j in range(3):
            lhs = (f * g).derivative(j)
            rhs = f * g.derivative(j) + g * f.derivative(j)
            assert lhs == rhs


def test_derivative_linearity_random(field):
    rng = random.Random(6)
    for _ in range(20):
        f = random_poly(field, 3, 4, rng)
        g = random_poly(field, 3, 4, rng)
        c = field.rand(rng)
        for j in range(3):
            assert (f + g.scale(c)).derivative(j) == \
                f.derivative(j) + g.derivative(j).scale(c)


def test_evaluate_basics(field, xyz):
    x0, x1, x2 = xyz
    assert (x0 ** 2 - x1 ** 2).evaluate([1, 1, 0]) == 0
    assert (x0 * x1 * x2).evaluate([1, 2, 3]) == 6


def test_euler_identity_on_random_homogeneous(field):
    # sum_j X_j df/dX_j = d * f for a degree-d form when p does not divide d
    rng = random.Random(7)
    for _ in range(15):
        d = rng.randrange(1, 6)
        f = random_poly(field, 3, d, rng, homogeneous_deg=d)
        acc = MvPoly.zero(field, 3)
        for j in range(3):
            acc = acc + MvPoly.variable(field, 3, j) * f.derivative(j)
        assert acc == f * d


def test_homogeneity_detection(field, xyz):
    x0, x1, _ = xyz
    assert (x0 ** 2 + x0 * x1).is_homogeneous()
    assert not (x0 ** 2 + x1).is_homogeneous()
    assert MvPoly.zero(field, 3).is_homogeneous()


def test_grlex_is_strict_total_order():
    exps = [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1), (3, 0, 0), (0, 0, 3)]
    keys = [grlex_key(e) for e in exps]
    assert len(set(keys)) == len(keys)
    ordered = sorted(exps, key=grlex_key, reverse=True)
    # degree first, then lexicographic on the tuple
    assert ordered == [(3, 0, 0), (0, 0, 3), (2, 0, 0), (1, 1, 0),
                       (0, 2, 0), (0, 0, 1)]


def test_printing_grlex_descending(field, xyz):
    x0, x1, x2 = xyz
    p = x2 + x0 ** 2 - 3 * x0 * x1
    assert p.to_str() == "X0^2 - 3*X0*X1 + X2"
    assert MvPoly.zero(field, 3).to_str() == "0"


def test_monic_normalisation(field, xyz):
    x0, x1, _ = xyz
    p = (x0 ** 2 - x1 ** 2).scale(field.conv(17))
    assert p.monic() == x0 ** 2 - x1 ** 2


def test_rational_field_mode():
    Q = RationalField()
    x0 = MvPoly.variable(Q, 2, 0)
    x1 = MvPoly.variable(Q, 2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == x0 ** 2 - x1 ** 2
    half = p.scale(Fraction(1, 2))
    assert half + half == p


def test_on_line_matches_pointwise_evaluation(field):
    rng = random.Random(8)
    for _ in range(10):
        p = random_poly(field, 3, 5, rng)
        a = [field.rand(rng) for _ in range(3)]
        b = [field.rand(rng) for _ in range(3)]
        coeffs = p.on_line(a, b)
        for t in (0, 1, field.rand(rng)):
            x = [(ai + t * bi) % field.p for ai, bi in zip(a, b)]
            direct = p.evaluate(x)
            via_line = 0
            for k in reversed(range(len(coeffs))):
                via_line = (via_line * t + coeffs[k]) % field.p
            assert direct == via_line


# -- the coefficient invariant: [0, p) over F_p; over Q int iff integral -----

F7 = PrimeField(7)
SMALL_FIELDS = [F7, RationalField()]


def _red(F, x):
    """Reference reduction, applied after every single step."""
    return x % F.char if F.char else x


def _ref_terms(F, pairs):
    """Sum (exponent, coefficient) pairs one at a time, reducing each step."""
    out = {}
    for e, c in pairs:
        out[e] = _red(F, out.get(e, 0) + _red(F, c))
    return {e: c for e, c in out.items() if c}


def _ref_power(F, x, k):
    v = 1
    for _ in range(k):
        v = _red(F, v * x)
    return v


def _ref_evaluate(F, terms, x):
    acc = 0
    for e, c in terms.items():
        v = c
        for j, k in enumerate(e):
            v = _red(F, v * _ref_power(F, x[j], k))
        acc = _red(F, acc + v)
    return acc


def _ref_on_line(F, terms, a, b):
    """Dense coefficients of the restriction, one reduced product at a time."""
    acc = {}
    for e, c in terms.items():
        poly = [c]
        for j, k in enumerate(e):
            for _ in range(k):
                nxt = [0] * (len(poly) + 1)
                for i, v in enumerate(poly):
                    nxt[i] = _red(F, nxt[i] + v * a[j])
                    nxt[i + 1] = _red(F, nxt[i + 1] + v * b[j])
                poly = nxt
        for i, v in enumerate(poly):
            acc[i] = _red(F, acc.get(i, 0) + v)
    coeffs = [acc.get(i, 0) for i in range(max(acc, default=-1) + 1)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _assert_stored(F, poly):
    for c in poly.terms.values():
        if F.char:
            assert isinstance(c, int) and 0 < c < F.char
        else:
            assert c != 0
            assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_constructor_reduces_and_drops_zeros():
    assert MvPoly(F7, 2, {(1, 0): -1, (0, 1): 7}).terms == {(1, 0): 6}
    Q = RationalField()
    assert MvPoly(Q, 2, {(1, 0): Fraction(-1), (0, 1): Fraction(0)}).terms == \
        {(1, 0): Fraction(-1)}


def test_derivative_drops_exponents_divisible_by_p():
    f = MvPoly(F7, 2, {(7, 1): 3, (2, 0): 5})
    assert f.derivative(0).terms == {(1, 0): 3}
    assert f.derivative(1).terms == {(7, 0): 3}


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_operations_match_stepwise_reference(F):
    rng = random.Random(77)
    for _ in range(25):
        a = random_poly(F, 2, 9, rng)
        b = random_poly(F, 2, 4, rng)
        c = F.rand(rng)
        results = {
            "add": (a + b, _ref_terms(F, [*a.terms.items(), *b.terms.items()])),
            "sub": (a - b, _ref_terms(F, [*a.terms.items(),
                                          *((e, -v) for e, v in b.terms.items())])),
            "neg": (-a, _ref_terms(F, ((e, -v) for e, v in a.terms.items()))),
            "mul": (a * b, _ref_terms(F, ((tuple(x + y for x, y in zip(e1, e2)),
                                           v1 * v2)
                                          for e1, v1 in a.terms.items()
                                          for e2, v2 in b.terms.items()))),
            "scale": (a.scale(c), _ref_terms(F, ((e, v * c)
                                                 for e, v in a.terms.items()))),
        }
        for j in range(2):
            results[f"d{j}"] = (a.derivative(j), _ref_terms(
                F, ((e[:j] + (e[j] - 1,) + e[j + 1:], v * e[j])
                    for e, v in a.terms.items() if e[j])))
        for name, (got, want) in results.items():
            assert got.terms == want, name
            _assert_stored(F, got)
        product = a * b
        if not b.is_zero():
            quotient = product.exact_div(b)
            assert quotient == a
            _assert_stored(F, quotient)
        x = [F.rand(rng) for _ in range(2)]
        assert a.evaluate(x) == _ref_evaluate(F, a.terms, x)
        lb = [F.rand(rng) for _ in range(2)]
        assert a.on_line(x, lb) == _ref_on_line(F, a.terms, x, lb)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_evaluate_edge_cases_match_reference(F):
    # evaluate reads the constant term of on_line: an empty restriction,
    # unreduced or negative ints, and Fractions must not change the value
    rng = random.Random(79)
    x0, x1 = (MvPoly.variable(F, 2, j) for j in range(2))
    if F.char:
        points = [[-3, 15], [7 * 11 + 2, -7 * 5 - 1]]
        root = [1, 8]                       # of x0 - x1, as 8 = 1 mod 7
    else:
        points = [[Fraction(-2, 3), Fraction(5, 7)], [Fraction(1, 2), -3]]
        root = [Fraction(1, 2), Fraction(2, 4)]
    for _ in range(10):
        a = random_poly(F, 2, 6, rng)
        for x in points:
            assert a.evaluate(x) == _ref_evaluate(F, a.terms, x)
    for value in (MvPoly.zero(F, 2).evaluate(points[0]),
                  (x0 - x1).evaluate(root)):
        assert value == 0 and type(value) is int
    if F.char:
        assert all(0 <= (x0 * x1 - 1).evaluate(x) < F.char for x in points)
    with pytest.raises(ArityMismatch) as exc:
        x0.evaluate([1, 2, 3])
    assert str(exc.value) == "point has 3 coordinates, expected 2"


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_exact_div_by_a_constant_is_a_scale(F):
    rng = random.Random(78)
    for _ in range(10):
        a = random_poly(F, 3, 6, rng)
        c = rand_nonzero(F, rng)
        quotient = a.exact_div(MvPoly.constant(F, 3, c))
        assert quotient == a.scale(F.inv(c))
        _assert_stored(F, quotient)
    x0, x1, _ = (MvPoly.variable(F, 3, j) for j in range(3))
    with pytest.raises(NotDivisible):
        (x0 * x1 + MvPoly.one(F, 3)).exact_div(x0 + x1)
    with pytest.raises(NotDivisible):
        MvPoly.one(F, 3).exact_div(x0)


def test_rational_operations_store_ints_where_integral():
    # Mixed int and Fraction coefficients, with sums and products that
    # cancel to integers, such as (x/2) * 2 and 1/3 + 2/3.
    Q = RationalField()
    x0, x1 = (MvPoly.variable(Q, 2, j) for j in range(2))
    half = x0.scale(Fraction(1, 2))
    a = MvPoly(Q, 2, {(2, 0): Fraction(3, 2), (1, 1): 4, (0, 2): Fraction(1, 3),
                      (1, 0): Fraction(6, 3), (0, 0): -5})
    b = MvPoly(Q, 2, {(1, 0): Fraction(2, 3), (0, 1): 2, (0, 0): Fraction(1, 2)})
    assert a.terms[(1, 0)] == 2 and type(a.terms[(1, 0)]) is int
    results = {
        "(x/2)*2": half * 2,
        "2*(x/2)": 2 * half,
        "(x/2)+(x/2)": half + half,
        "(x/2)-(-x/2)": half - (-half),
        "add": a + b,
        "third": x1.scale(Fraction(1, 3)) + x1.scale(Fraction(2, 3)),
        "sub": a - b,
        "neg": -a,
        "mul": a * b,
        "mul_half": (x0 + half) * (x0 - half),
        "scale": a.scale(Fraction(2, 3)),
        "pow": b ** 3,
        "pow_half": half ** 2,
        "d0": a.derivative(0),
        "d1": a.derivative(1),
        "exact_div": (a * b).exact_div(b),
        "exact_div_const": a.exact_div(MvPoly.constant(Q, 2, Fraction(3, 2))),
        "monic": a.monic(),
        "monic_b": b.monic(),
    }
    for name, got in results.items():
        _assert_stored(Q, got)
        assert got.terms, name
    assert results["(x/2)*2"].terms == {(1, 0): 1}
    assert results["third"].terms == {(0, 1): 1}
    assert results["exact_div"] == a
    assert results["d0"].terms[(1, 0)] == 3
    kinds = {type(c) for got in results.values() for c in got.terms.values()}
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_scalar_operands(F):
    # Over Q a Fraction is a scalar as an int is; anything else that is
    # not an MvPoly is refused with TypeError, over either field.
    x = MvPoly.variable(F, 2, 0)
    one = MvPoly.one(F, 2)
    h = Fraction(1, 2)
    if F.char:
        scalars = [3]
        refused = [h, 1.5, "1", None]
    else:
        scalars = [3, h]
        refused = [1.5, "1", None]
    for c in scalars:
        assert x * c == c * x == x.scale(F.conv(c))
        assert x + c == c + x == x + one.scale(F.conv(c))
        assert x - c == x + one.scale(F.conv(-c))
        assert c - x == one.scale(F.conv(c)) - x
    for c in refused:
        for op in (lambda: x * c, lambda: c * x, lambda: x + c,
                   lambda: c + x, lambda: x - c, lambda: c - x):
            with pytest.raises(TypeError):
                op()


# The packed product needs only p, so F_2 (which PrimeField refuses) is
# covered on term maps; each case is (nvars, deg a, deg b).
PACKED_PRIMES = [2, 3, 101, 2147483647]
PACKED_SHAPES = [(2, 3, 5), (2, 9, 9), (3, 2, 4), (3, 5, 6), (3, 9, 18),
                 (4, 2, 3), (4, 3, 5), (4, 4, 4)]


def _random_form_terms(p, nvars, deg, rng, density):
    terms = {e: rng.randrange(1, p) for e in monomials_of_degree(nvars, deg)
             if rng.random() < density}
    return terms or {(deg,) + (0,) * (nvars - 1): 1}


def _packed(p, a, b):
    """The packed product's nonzero exact slot sums, whatever the gate says."""
    out = _kronecker_mul(p, a, b)
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_product_equals_the_dict_loop(p):
    # Coefficients are positive ints, so no exact slot sum is 0 and the two
    # unreduced term maps agree key for key and value for value.
    rng = random.Random(p)
    for nvars, da, db in PACKED_SHAPES:
        for density in (1.0, 0.5, 0.1):
            a = _random_form_terms(p, nvars, da, rng, density)
            b = _random_form_terms(p, nvars, db, rng, density)
            assert _packed(p, a, b) == _dict_mul(a, b), (nvars, da, db)
            assert _packed(p, b, a) == _dict_mul(a, b), (nvars, db, da)


@pytest.mark.parametrize("p", [3, 101, 2147483647])
def test_products_of_dense_forms_take_the_packed_path(p, monkeypatch):
    F = PrimeField(p)
    rng = random.Random(p + 1)
    calls = []

    def counted(p, a, b):
        calls.append(len(next(iter(a))))
        return _kronecker_mul(p, a, b)

    monkeypatch.setattr("fiberbound.poly._kronecker_mul", counted)
    for nvars, da, db in PACKED_SHAPES:
        a = MvPoly(F, nvars, _random_form_terms(p, nvars, da, rng, 1.0))
        b = MvPoly(F, nvars, _random_form_terms(p, nvars, db, rng, 1.0))
        if len(a.terms) * len(b.terms) < KRONECKER_PAIRS:
            continue
        product = a * b
        assert calls[-1:] == [nvars]
        assert product == MvPoly(F, nvars, _dict_mul(a.terms, b.terms))
        _assert_stored(F, product)
    assert len(calls) >= 5


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("k", [3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_packed_slots_hold_the_worst_case_sum(p, k):
    # Every coefficient p - 1 on all k monomials of degree k - 1 in X0, X1,
    # so the middle monomial of the square sums k = min(#terms) products of
    # (p - 1)^2: k crosses a power of two where the slot gains a bit.
    for nvars in (2, 3):
        a = {(k - 1 - i, i) + (0,) * (nvars - 2): p - 1 for i in range(k)}
        got = _packed(p, a, a)
        assert got == _dict_mul(a, a)
        middle = (k - 1, k - 1) + (0,) * (nvars - 2)
        assert got[middle] == k * (p - 1) ** 2


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_monomial_and_constant_factors(p):
    rng = random.Random(p + 2)
    for nvars, _, deg in PACKED_SHAPES:
        dense = _random_form_terms(p, nvars, deg, rng, 1.0)
        factors = [{(0,) * nvars: rng.randrange(1, p)},
                   {(0,) * (nvars - 1) + (2,): p - 1},
                   {(1,) + (0,) * (nvars - 1): 1},
                   {(1,) * nvars: rng.randrange(1, p)}]
        for m in factors:
            assert _packed(p, m, dense) == _dict_mul(m, dense)
            assert _packed(p, dense, m) == _dict_mul(dense, m)
            assert _packed(p, m, m) == _dict_mul(m, m)


def _as_q(nvars, terms):
    return MvPoly(RationalField(), nvars, terms)


@pytest.mark.parametrize("signs", ["mixed", "negative"])
def test_integer_packed_product_equals_the_dict_loop(signs):
    # Compared as MvPolys: the dict loop keeps terms that cancel to 0.
    rng = random.Random(40 if signs == "mixed" else 41)
    packed = 0
    for nvars, da, db in PACKED_SHAPES:
        for top in (9, 10 ** 40):
            def draw():
                c = rng.randrange(1, top + 1)
                return -c if signs == "negative" or rng.random() < 0.5 else c
            a = {e: draw() for e in monomials_of_degree(nvars, da)}
            b = {e: draw() for e in monomials_of_degree(nvars, db)}
            want = _as_q(nvars, _dict_mul(a, b))
            for x, y in ((a, b), (b, a)):
                got = _as_q(nvars, _integer_mul(x, y))
                assert got == want, (nvars, da, db, top)
                _assert_stored(RationalField(), got)
            qa, qb = _as_q(nvars, a), _as_q(nvars, b)
            if _packs(qa, qb):
                packed += 1
                assert qa * qb == want
    assert packed >= 5


@pytest.mark.parametrize("sign", [1, -1])
def test_integer_packed_slots_reach_the_bound(sign):
    # (c X1 + sign c X2)^2 with c = 10^20: B = min(2, 2) c c = 2c^2, and the
    # middle slot receives sign 2c^2 = sign B, the edge of [-B, B].
    c = 10 ** 20
    a = {(0, 1, 0): c, (0, 0, 1): sign * c}
    got = _integer_mul(a, a)
    assert got[(0, 1, 1)] == sign * 2 * c * c
    assert _as_q(3, got) == _as_q(3, _dict_mul(a, a))


def test_non_forms_rationals_and_one_variable_take_the_dict_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed product called")

    monkeypatch.setattr("fiberbound.poly._kronecker_mul", refuse)
    rng = random.Random(91)
    F = PrimeField()
    Q = RationalField()
    form = random_poly(F, 3, 0, rng, homogeneous_deg=8, density=1.0)
    other = random_poly(F, 3, 0, rng, homogeneous_deg=6, density=1.0)
    non_form = other + MvPoly.variable(F, 3, 1)
    assert len(form.terms) * len(non_form.terms) >= KRONECKER_PAIRS
    for a, b in ((form, non_form), (non_form, form), (non_form, non_form)):
        assert a * b == MvPoly(F, 3, _dict_mul(a.terms, b.terms))
    q_form = random_poly(Q, 3, 0, rng, homogeneous_deg=8, density=1.0)
    q_other = random_poly(Q, 3, 0, rng, homogeneous_deg=6, density=1.0)
    # integral forms over Q pack ...
    assert _packs(q_form, q_other)
    with monkeypatch.context() as unrefused:
        unrefused.setattr("fiberbound.poly._kronecker_mul", _kronecker_mul)
        assert q_form * q_other == MvPoly(Q, 3, _dict_mul(q_form.terms,
                                                          q_other.terms))
    # ... and one non-integral coefficient sends the product to the dict loop
    q_half = q_form + MvPoly(Q, 3, {q_form.leading_monomial(): Fraction(1, 2)})
    assert [type(c) for c in q_half.terms.values()].count(Fraction) == 1
    assert not _packs(q_half, q_other) and not _packs(q_other, q_half)
    assert q_half * q_other == MvPoly(Q, 3, _dict_mul(q_half.terms,
                                                      q_other.terms))
    # a form in one variable is one term, so one pair
    t = MvPoly.variable(F, 1, 0)
    assert not _packs(t ** 9, t ** 9)
    assert (t ** 9) * (t ** 9) == t ** 18
    # sparse forms of high degree: fewer term pairs than packed slots
    mons = monomials_of_degree(3, 20)
    sparse = [MvPoly(F, 3, {e: 1 for e in rng.sample(mons, 8)})
              for _ in range(2)]
    assert not _packs(*sparse)
    assert sparse[0] * sparse[1] == MvPoly(F, 3, _dict_mul(sparse[0].terms,
                                                           sparse[1].terms))
    assert _packs(form, other) and not _packs(form, non_form)


@pytest.mark.parametrize("width", [1, 2, 5])
def test_signed_unpack_reads_slots_at_the_edges_of_the_bias(width):
    # Slots at -(bias - 1) and bias - 1 next to each other, 2 bias filling
    # the width exactly; x is negative whenever its top slot is.
    bias = 1 << 8 * width - 1
    rng = random.Random(width)
    for _ in range(50):
        values = [rng.choice([1 - bias, bias - 1, 0, rng.randrange(1 - bias,
                                                                   bias)])
                  for _ in range(7)]
        x = sum(v << 8 * width * i for i, v in enumerate(values))
        offsets = [width * i for i in range(7)]
        assert _unpack_signed(x, width, offsets, bias) == values
    assert _slot_bytes(2 * bias) == width + 1 and _slot_bytes(2 * bias - 1) \
        == width


def _dict_division(monkeypatch, a, b):
    """a / b by the dict loop, or "ND" when b does not divide a."""
    with monkeypatch.context() as m:
        m.setattr(poly, "DIV_TERMS", float("inf"))
        try:
            return a.exact_div(b)
        except NotDivisible:
            return "ND"


def _packed_division(a, b):
    try:
        return MvPoly(a.field, a.nvars, _packed_div(a, b))
    except NotDivisible:
        return "ND"


@pytest.mark.parametrize("p", [7, 101, 2147483647])
def test_packed_division_agrees_with_the_dict_loop(p, monkeypatch):
    # Forms and non-forms in 2 to 4 variables: exact products, products with
    # one term changed, shifted by X0, and unrelated pairs.  Both paths give
    # the same quotient or both raise NotDivisible.
    F = PrimeField(p)
    rng = random.Random(p)
    outcomes = {"form": set(), "non-form": set()}
    for _ in range(60):
        nvars = rng.choice([2, 3, 4])
        kind = rng.choice(["form", "non-form"])
        if kind == "form":
            q, b = (random_poly(F, nvars, 0, rng, homogeneous_deg=rng.randint(
                lo, 4), density=rng.uniform(0.3, 1.0)) for lo in (0, 1))
        else:
            q, b = (random_poly(F, nvars, rng.randint(lo, 4), rng)
                    for lo in (0, 1))
        if b.is_constant():
            continue
        a = q * b
        tweak = MvPoly(F, nvars, {rng.choice(list(a.terms)): rng.randrange(
            1, p)})
        x0 = [1] + [0] * (nvars - 1)
        for dividend, divisor in ((a, b), (a + tweak, b), (a.shift(x0), b),
                                  (a, b.shift(x0)), (b * b, q + b)):
            if dividend.is_zero() or divisor.is_constant():
                continue
            want = _dict_division(monkeypatch, dividend, divisor)
            assert _packed_division(dividend, divisor) == want, (dividend,
                                                                 divisor)
            outcomes[kind].add(want == "ND")
    assert outcomes == {"form": {True, False}, "non-form": {True, False}}


def test_packed_division_of_forms_bounds_the_quotient_degree(field):
    # X0 X1 divides X1 g only after X0 is dropped: the dehomogenised
    # quotient g(1, X1, X2) has degree deg g, one more than deg a - deg b.
    # X0 does not divide g, but g has X0 in its leading monomials, so
    # only the degree of the quotient tells.
    x0, x1, x2 = (MvPoly.variable(field, 3, j) for j in range(3))
    g = (x0 + x1 + x2) ** 3 + x1 * x2 * (x1 - 2 * x2)
    with pytest.raises(NotDivisible):
        _packed_div(x1 * g, x0 * x1)
    assert _packed_division(x0 * x1 * g, x0 * x1) == g


@pytest.mark.parametrize("p", [7, 2147483647])
def test_packed_division_slots_hold_the_worst_case_sum(p):
    # A dense quotient of coefficients p - 1 by a dense divisor of
    # coefficients 1, stored negated as p - 1: the middle slots gain
    # (p - 1)^2 from every quotient monomial, as many as the width allows.
    F = PrimeField(p)
    for nvars, deg in ((2, 9), (3, 5), (4, 3)):
        for k in (1, 2):
            q = MvPoly(F, nvars, {e: p - 1 for e in monomials_of_degree(
                nvars, k)})
            b = MvPoly(F, nvars, {e: 1 for e in monomials_of_degree(
                nvars, deg)})
            assert _packed_division(q * b, b) == q
            assert _packed_division(q * b, q) == b


def test_large_divisions_take_the_packed_path(field, monkeypatch):
    calls = []
    real = poly._packed_div
    monkeypatch.setattr(poly, "_packed_div",
                        lambda a, b: calls.append(len(a.terms)) or real(a, b))
    rng = random.Random(17)
    b = random_poly(field, 3, 0, rng, homogeneous_deg=2, density=1.0)
    q = random_poly(field, 3, 0, rng, homogeneous_deg=4, density=1.0)
    a = q * b
    assert len(a.terms) >= DIV_TERMS
    assert a.exact_div(b) == q and calls == [len(a.terms)]
    # a one-term quotient (no more dividend than divisor terms), a monomial
    # divisor and the rationals keep the dict loop
    assert a.exact_div(a) == MvPoly.one(field, 3)
    assert (a * MvPoly.variable(field, 3, 1)).exact_div(a) \
        == MvPoly.variable(field, 3, 1)
    assert a.shift([1, 0, 0]).exact_div(MvPoly.variable(field, 3, 0)) == a
    Q = RationalField()
    qa = MvPoly(Q, 3, {e: c % 7 - 3 for e, c in a.terms.items()})
    qb = MvPoly(Q, 3, {e: c % 5 - 2 for e, c in b.terms.items()})
    assert (qa * qb).exact_div(qb) == qa
    assert calls == [len(a.terms)]
