"""Arithmetic kernel: ring operations, exact division, calculus, ordering."""

import random
from fractions import Fraction

import pytest

from fiberbound import (ArityMismatch, MvPoly, NotDivisible, PrimeField,
                        RationalField)
from fiberbound.poly import grlex_key

from conftest import random_poly


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
            via_line = field.zero
            for k in reversed(range(len(coeffs))):
                via_line = (via_line * t + coeffs[k]) % field.p
            assert direct == via_line


# -- the coefficient invariant: ints in [0, p) over F_p, Fractions over Q ----

F7 = PrimeField(7)
SMALL_FIELDS = [F7, RationalField()]


def _red(F, x):
    """Reference reduction, applied after every single step."""
    return x % F.char if F.char else x


def _ref_terms(F, pairs):
    """Sum (exponent, coefficient) pairs one at a time, reducing each step."""
    out = {}
    for e, c in pairs:
        out[e] = _red(F, out.get(e, F.zero) + _red(F, c))
    return {e: c for e, c in out.items() if c}


def _ref_power(F, x, k):
    v = F.one
    for _ in range(k):
        v = _red(F, v * x)
    return v


def _ref_evaluate(F, terms, x):
    acc = F.zero
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
                nxt = [F.zero] * (len(poly) + 1)
                for i, v in enumerate(poly):
                    nxt[i] = _red(F, nxt[i] + v * a[j])
                    nxt[i + 1] = _red(F, nxt[i + 1] + v * b[j])
                poly = nxt
        for i, v in enumerate(poly):
            acc[i] = _red(F, acc.get(i, F.zero) + v)
    coeffs = [acc.get(i, F.zero) for i in range(max(acc, default=-1) + 1)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _assert_stored(F, poly):
    for c in poly.terms.values():
        if F.char:
            assert isinstance(c, int) and 0 < c < F.char
        else:
            assert isinstance(c, Fraction) and c != 0


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
        assert value == 0 and type(value) is type(F.zero)
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
        c = F.rand_nonzero(rng)
        quotient = a.exact_div(MvPoly.constant(F, 3, c))
        assert quotient == a.scale(F.inv(c))
        _assert_stored(F, quotient)
    x0, x1, _ = (MvPoly.variable(F, 3, j) for j in range(3))
    with pytest.raises(NotDivisible):
        (x0 * x1 + MvPoly.one(F, 3)).exact_div(x0 + x1)
    with pytest.raises(NotDivisible):
        MvPoly.one(F, 3).exact_div(x0)
