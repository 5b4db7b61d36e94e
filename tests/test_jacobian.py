"""Jacobian construction, minors, F, the Euler syzygy, and invariance checks."""

import itertools
import random

import pytest

import fiberbound.jacobian as jac_mod
from fiberbound import (AllMinorsZero, CharDividesDegree, JacobianReport,
                        MvPoly, PrimeField,
                        RationalField, RationalMapInput, SingularChange, SOutOfRange,
                        build_jacobian, euler_syzygy, fitting_invariance_check,
                        gcd_of_minors, jacobian_report,
                        linear_dependence_check, minors)
from fiberbound.errors import (BadInput, CommonFactor, FDoesNotDivideMinor,
                               MixedDegrees, NotHomogeneous)
from fiberbound.fixtures import (FIXTURES, make_cube_dependent, make_example2,
                                 make_family)
from fiberbound.jacobian import generic_finiteness_check
from fiberbound.poly import monomials_of_degree

from conftest import _count_brown, _gl_copy, rand_nonzero, random_poly


def _random_map(field, nvars, count, d, rng):
    while True:
        polys = [random_poly(field, nvars, d, rng, homogeneous_deg=d)
                 for _ in range(count)]
        try:
            return RationalMapInput.create(field, polys)
        except CommonFactor:
            continue


def test_build_jacobian_shapes(field):
    x0 = MvPoly.variable(field, 2, 0)
    x1 = MvPoly.variable(field, 2, 1)
    inp = RationalMapInput.create(field, [x0 ** 2, x0 * x1, x1 ** 2])
    jac = build_jacobian(inp)
    assert jac[0][0] == 2 * x0 and jac[0][1].is_zero()
    assert jac[1][0] == x1 and jac[1][1] == x0
    assert jac[2][0].is_zero() and jac[2][1] == 2 * x1
    # rows are homogeneous of degree d-1
    for row in jac:
        for entry in row:
            assert entry.is_zero() or entry.total_degree() == inp.d - 1


def test_jacobian_identity_map(field, xyz):
    x0, x1, x2 = xyz
    inp = RationalMapInput.create(field, [x0, x1, x2])
    jac = build_jacobian(inp)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert jac[i][j] == MvPoly.one(field, 3)
            else:
                assert jac[i][j].is_zero()


def test_minors_diagonal_example(field, xyz):
    # f = (X0^d, X1^d, X2^d, X0 X1 X2^(d-2)): rows {0,1,2} give d^3 (X0X1X2)^(d-1)
    x0, x1, x2 = xyz
    d = 4
    inp = RationalMapInput.create(
        field, [x0 ** d, x1 ** d, x2 ** d, x0 * x1 * x2 ** (d - 2)])
    all3 = minors(build_jacobian(inp), 3)
    diag = next(m for m in all3 if m.rows == (0, 1, 2))
    assert diag.poly == (x0 * x1 * x2) ** (d - 1) * d ** 3
    # counts and homogeneous degree
    assert len(all3) == 4
    for m in all3:
        assert m.poly.is_zero() or m.poly.total_degree() == 3 * (d - 1)
        assert m.rows == tuple(sorted(set(m.rows)))
        assert m.cols == tuple(sorted(set(m.cols)))


def test_minors_s_out_of_range(field, xyz):
    inp = make_family(4)
    jac = build_jacobian(inp)
    with pytest.raises(SOutOfRange):
        minors(jac, 4)
    with pytest.raises(SOutOfRange):
        minors(jac, 0)


def _leibniz(jac, rows, cols):
    """det of the submatrix as a signed sum over permutations."""
    one = MvPoly.one(jac[0][0].field, jac[0][0].nvars)
    acc = one - one
    for perm in itertools.permutations(range(len(rows))):
        term = one
        for i, j in enumerate(perm):
            term = term * jac[rows[i]][cols[j]]
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        acc = acc - term if inversions % 2 else acc + term
    return acc


def _dense_map(field, nvars, count, d, seed):
    rng = random.Random(seed)
    while True:
        polys = [random_poly(field, nvars, d, rng, homogeneous_deg=d,
                             density=1.0) for _ in range(count)]
        try:
            return RationalMapInput.create(field, polys)
        except CommonFactor:
            continue


@pytest.mark.parametrize("make", [lambda f: _dense_map(f, 4, 5, 3, 17),
                                  lambda f: make_example2()],
                         ids=["dense_5x4", "example2_4x3"])
def test_minors_match_leibniz_expansion(field, make):
    jac = build_jacobian(make(field))
    nrows, ncols = len(jac), len(jac[0])
    for s in range(1, min(nrows, ncols) + 1):
        got = minors(jac, s)
        index_sets = [(r, c) for r in itertools.combinations(range(nrows), s)
                      for c in itertools.combinations(range(ncols), s)]
        assert [(mn.rows, mn.cols) for mn in got] == index_sets
        for mn in got:
            assert mn.poly == _leibniz(jac, mn.rows, mn.cols)


@pytest.mark.parametrize("nvars, count, products", [(3, 4, 30), (4, 5, 192)],
                         ids=["4x3", "5x4"])
def test_minors_compute_each_sub_minor_once(field, monkeypatch, nvars, count,
                                            products):
    # Every entry is nonzero, so each 3-minor takes 3 products and each
    # distinct 2-minor below a first row takes 2; none is computed twice.
    jac = build_jacobian(_dense_map(field, nvars, count, 3, 5))
    assert all(not entry.is_zero() for row in jac for entry in row)
    calls = []
    mul = MvPoly.__mul__
    monkeypatch.setattr(MvPoly, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    minors(jac, 3)
    assert len(calls) == products


def test_gcd_of_minors_example2(field, xyz):
    x0, x1, x2 = xyz
    F = gcd_of_minors(minors(build_jacobian(make_example2()), 3))
    expected = (x0 * x1 ** 3 * x2 * (x0 ** 4 - x2 ** 4)
                * (x1 ** 2 - x2 ** 2)).monic()
    assert F == expected
    assert F.total_degree() == 11


def test_gcd_of_minors_family_d4(field, xyz):
    x0, x1, x2 = xyz
    F = gcd_of_minors(minors(build_jacobian(make_family(4)), 3))
    expected = (x0 * x2 * (x0 ** 2 - x1 ** 2) * (x1 ** 2 - x2 ** 2)).monic()
    assert F == expected
    assert F.total_degree() == 6


def test_gcd_of_minors_family_general_d(field, xyz):
    x0, x1, x2 = xyz
    for d in (5, 6, 7):
        F = gcd_of_minors(minors(build_jacobian(make_family(d)), 3))
        expected = (x0 ** (2 * d - 7) * x2 * (x0 ** 2 - x1 ** 2)
                    * (x1 ** 2 - x2 ** 2)).monic()
        assert F == expected


def test_gcd_of_minors_cube_hand_value(field, xyz):
    # cofactor expansion by hand: every nonzero minor is +-27 X0^2 X1^2 X2^2
    x0, x1, x2 = xyz
    F = gcd_of_minors(minors(build_jacobian(make_cube_dependent()), 3))
    assert F == (x0 ** 2 * x1 ** 2 * x2 ** 2).monic()
    assert F.total_degree() == 6 == 3 * (make_cube_dependent().d - 1)


def test_gcd_of_minors_seed_does_not_change_result(field):
    # The gcd does not depend on the order the minors are folded in.
    m3 = minors(build_jacobian(make_example2()), 3)
    shuffled = list(m3)
    random.Random(123).shuffle(shuffled)
    assert gcd_of_minors(m3) == gcd_of_minors(shuffled)


def test_all_minors_zero(field):
    # forms in 3 variables that only use X0, X1: a zero Jacobian column
    x0 = MvPoly.variable(field, 3, 0)
    x1 = MvPoly.variable(field, 3, 1)
    inp = RationalMapInput.create(field, [x0 ** 2, x0 * x1, x1 ** 2])
    m3 = minors(build_jacobian(inp), 3)
    assert all(m.poly.is_zero() for m in m3)
    with pytest.raises(AllMinorsZero):
        gcd_of_minors(m3)
    jr = jacobian_report(inp)
    itop, i3 = jr.i_top_nonzero, jr.i3_nonzero
    assert not i3


def test_laplace_identity_random_quartics(field):
    # sum_i D_i df_i/dX_j = 0 for the signed maximal minors, every column j
    rng = random.Random(41)
    for _ in range(5):
        inp = _random_map(field, 3, 4, 4, rng)
        jac = build_jacobian(inp)
        D = []
        for i in range(4):
            rows = [jac[k] for k in range(4) if k != i]
            det = rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]) \
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0]) \
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            D.append(det if i % 2 == 0 else -det)
        for j in range(3):
            acc = MvPoly.zero(field, 3)
            for i in range(4):
                acc = acc + D[i] * jac[i][j]
            assert acc.is_zero()


def test_euler_syzygy_example2(field):
    inp = make_example2()
    es = euler_syzygy(inp, jacobian_report(inp))
    assert es.delta == 15 - 11 == 4
    combo = MvPoly.zero(field, 3)
    for a, f in zip(es.a, inp.f):
        combo = combo + a * f
    assert combo.is_zero()
    assert all(a.is_zero() or a.total_degree() == 4 for a in es.a)


def test_euler_syzygy_dependent_cube(field):
    inp = make_cube_dependent()
    es = euler_syzygy(inp, jacobian_report(inp))
    assert es.delta == 0
    # constant syzygy proportional to (1, 1, 0, -1)
    vals = [a.leading_coefficient() if not a.is_zero() else 0
            for a in es.a]
    scale = field.inv(vals[0])
    assert [field.lift_balanced(v * scale) for v in vals] == \
        [1, 1, 0, -1]


@pytest.mark.parametrize("make", [make_example2,
                                  lambda Q: make_family(5, Q),
                                  lambda Q: _dense_map(Q, 3, 4, 4, 23)],
                         ids=["example2", "family_d5", "dense_d4"])
def test_integral_rational_map_stores_int_coefficients(make):
    # Over Q the map's coefficients are integers, and so are its Jacobian,
    # its 3-minors and, F being monic with integer coefficients here, the
    # Euler syzygy's a_i: each is stored as an int, never as a Fraction.
    Q = RationalField()
    inp = make(Q)
    jr = jacobian_report(inp)
    es = euler_syzygy(inp, jr)
    polys = ([entry for row in build_jacobian(inp) for entry in row]
             + [mn.poly for mn in jr.minors3] + list(es.a))
    assert all(type(c) is int for f in polys for c in f.terms.values())
    assert sum(not a.is_zero() for a in es.a) >= 3


@pytest.mark.parametrize("make", [make_example2, lambda: make_family(4)],
                         ids=["example2", "family_d4"])
def test_euler_syzygy_rejects_a_non_divisor(field, make):
    # F * X0 does not divide every signed maximal minor of these maps.
    inp = make()
    jr = jacobian_report(inp)
    F = jr.F
    with pytest.raises(FDoesNotDivideMinor):
        euler_syzygy(inp, JacobianReport(jr.jac, F * MvPoly.variable(field, 3, 0),
                                         jr.i_top_nonzero, jr.minor_nonzero,
                                         minors3=jr.minors3))


@pytest.mark.parametrize("name", ["example2"] + [
    f"gl:{fx.name}" for fx in FIXTURES])
def test_F_takes_one_brown_run_and_euler_divides_nothing(name, monkeypatch):
    # On these maps the gcd of the first two nonzero minors is already F:
    # every further minor is certified by one division, whose quotient is
    # its cofactor, and the Euler syzygy reads the cofactors.
    if name == "example2":
        inp = make_example2()
    else:
        fx = next(fx for fx in FIXTURES if f"gl:{fx.name}" == name)
        inp = _gl_copy(fx.build(), random.Random(name))
    calls = _count_brown(monkeypatch)
    jr = jacobian_report(inp)
    assert len(calls) == 1
    real, divisions = MvPoly.exact_div, []
    monkeypatch.setattr(MvPoly, "exact_div", lambda a, b: divisions.append(
        (a, b)) or real(a, b))
    es = euler_syzygy(inp, jr)
    assert divisions == []
    assert [jr.F * a for a in es.a] == [(-1) ** i * jr.minors3[3 - i].poly
                                        for i in range(4)]


def test_euler_syzygy_char_guard():
    # p = 5, d = 5: validation itself refuses p | d
    F5 = PrimeField(5)
    x0 = MvPoly.variable(F5, 3, 0)
    x1 = MvPoly.variable(F5, 3, 1)
    x2 = MvPoly.variable(F5, 3, 2)
    with pytest.raises(CharDividesDegree):
        RationalMapInput.create(F5, [x0 ** 5, x1 ** 5, x2 ** 5,
                                     x0 ** 3 * x1 * x2])


def test_linear_dependence_both_ways(field, xyz):
    x0, x1, x2 = xyz
    dep, rel = linear_dependence_check(make_cube_dependent())
    assert dep
    # relation is a kernel vector: sum rel_i f_i = 0
    inp = make_cube_dependent()
    acc = MvPoly.zero(field, 3)
    for c, f in zip(rel, inp.f):
        acc = acc + f.scale(c)
    assert acc.is_zero()
    assert not linear_dependence_check(make_example2())[0]
    # a repeated generator is dependent
    inp2 = RationalMapInput.create(field, [x0 ** 2, x0 * x1, x0 ** 2 + x1 ** 2,
                                           x0 ** 2])
    assert linear_dependence_check(inp2)[0]


def test_fitting_invariance_identity_and_permutation(field):
    inp = make_example2()
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert fitting_invariance_check(inp, eye, F=F)
    perm = [[1 if j == (i + 1) % 4 else 0 for j in range(4)] for i in range(4)]
    assert fitting_invariance_check(inp, perm, F=F)


def test_fitting_invariance_random_change(field):
    inp = make_example2()
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    rng = random.Random(43)
    C = [[field.rand(rng) for _ in range(4)] for _ in range(4)]
    assert fitting_invariance_check(inp, C, F=F)


def test_fitting_invariance_singular_rejected(field):
    inp = make_example2()
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    sing = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(SingularChange):
        fitting_invariance_check(inp, sing, F=F)


def test_generic_finiteness_identity_and_fixtures(field, xyz):
    x0, x1, x2 = xyz
    ident = jacobian_report(RationalMapInput.create(field, [x0, x1, x2]))
    assert (ident.i_top_nonzero, ident.i3_nonzero) == (True, True)
    jr = jacobian_report(make_example2())
    itop, i3 = jr.i_top_nonzero, jr.i3_nonzero
    assert itop and i3


def test_generic_finiteness_exact_fallback_on_top_minors(field):
    # The forms omit X3, so the X3 column of J is zero: no evaluation reaches
    # rank 4 and the 4-minors are expanded exactly; they all vanish.
    x0, x1, x2 = (MvPoly.variable(field, 4, j) for j in range(3))
    inp = RationalMapInput.create(
        field, [x0 ** 2, x1 ** 2, x2 ** 2, x0 * x1, x1 * x2])
    jr = jacobian_report(inp)
    assert (jr.i_top_nonzero, jr.i3_nonzero) == (False, True)


@pytest.mark.parametrize("F", [PrimeField(), RationalField()],
                         ids=["Fp", "Q"])
def test_generic_finiteness_false_when_source_exceeds_target(F):
    # P^3 --> P^2: J has 3 rows, so it has no (m+1) = 4-minor at all.
    x, y, z, w = (MvPoly.variable(F, 4, j) for j in range(4))
    inp = RationalMapInput.create(F, [x ** 2, y ** 2, z ** 2 + w ** 2])
    jac = build_jacobian(inp)
    assert generic_finiteness_check(inp, jac, minors(jac, 3)) is False
    jr = jacobian_report(inp)
    assert (jr.i_top_nonzero, jr.i3_nonzero) == (False, True)


def _rank_deficient_map(F, m, rng):
    """A map P^m --> P^(m+1) with I_{m+1}(J) = 0.

    For m >= 2 the forms omit X_m, so that column of J is zero.  No valid
    map of P^1 has I_2 = 0 (each ratio f_i / f_j would have a zero
    differential, hence be a p-th power, and p would divide d), so for
    m = 1 two proportional forms are taken without validation.
    """
    if m == 1:
        g = random_poly(F, 2, 2, rng, homogeneous_deg=2, density=1.0)
        return RationalMapInput(field=F, varnames=("X0", "X1"),
                                f=(g, g.scale(rand_nonzero(F, rng))))
    while True:
        polys = [random_poly(F, m + 1, 2, rng, homogeneous_deg=2)
                 for _ in range(m + 2)]
        polys = [MvPoly(F, m + 1, {e: c for e, c in fp.terms.items()
                                   if not e[m]}) for fp in polys]
        try:
            return RationalMapInput.create(F, polys)
        except (BadInput, CommonFactor):
            continue


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
def test_i_top_matches_an_exact_scan_of_the_top_minors(F):
    # m + 1 = 3 is read off the held 3-minors; m = 1 and m = 3 sample J at
    # seeded points first and expand the top minors only when every sample
    # is deficient.  Either way the flag is exact.
    rng = random.Random(57)
    for m in (1, 2, 3):
        maps = [_random_map(F, m + 1, m + 2, 3 if m < 3 else 2, rng)
                for _ in range(2)]
        maps.append(_rank_deficient_map(F, m, rng))
        for inp in maps:
            exact = any(not mn.poly.is_zero()
                        for mn in minors(build_jacobian(inp), m + 1))
            assert jacobian_report(inp).i_top_nonzero == exact
        assert [jacobian_report(inp).i_top_nonzero for inp in maps] == \
            [True, True, False], m


def test_jacobian_report_evaluates_nothing_on_the_plane(field, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("J was evaluated at a point")

    monkeypatch.setattr(MvPoly, "evaluate", forbidden)
    monkeypatch.setattr(jac_mod, "rank", forbidden)
    for inp in (make_example2(), make_cube_dependent(), make_family(5)):
        jr = jacobian_report(inp)
        assert jr.i_top_nonzero and jr.i3_nonzero


def test_validation_errors(field, xyz):
    x0, x1, x2 = xyz
    with pytest.raises(NotHomogeneous):
        RationalMapInput.create(field, [x0 ** 2 + x1, x1 ** 2, x2 ** 2])
    with pytest.raises(MixedDegrees):
        RationalMapInput.create(field, [x0 ** 2, x1 ** 3, x2 ** 2])
    with pytest.raises(CommonFactor) as exc:
        RationalMapInput.create(field, [x0 ** 2, x0 * x1])
    assert exc.value.gcd == x0


def _minors_by_path(jac, s, packed, monkeypatch):
    """Every s-minor's poly, the packed path forced on or off."""
    with monkeypatch.context() as m:
        m.setattr(jac_mod, "_packs", lambda a, b: packed)
        assert (jac_mod._packed_entries(jac, s) is not None) == packed
        return [mn.poly for mn in minors(jac, s)]


def _packing_cases():
    """(id, map): the fixtures, their GL copies, and GL copies of family
    maps over F_7 and F_101."""
    cases = [(fx.name, fx.build) for fx in FIXTURES]
    cases += [(f"gl:{fx.name}", lambda fx=fx: _gl_copy(
        fx.build(), random.Random(fx.name))) for fx in FIXTURES]
    cases += [(f"gl:family_d{d}/F{p}", lambda d=d, p=p: _gl_copy(
        make_family(d, PrimeField(p)), random.Random(d))) for p in (7, 101)
        for d in (4, 5)]
    return cases


@pytest.mark.parametrize("name, make", _packing_cases(),
                         ids=[c[0] for c in _packing_cases()])
def test_packed_and_expanded_minors_agree(name, make, monkeypatch):
    jac = build_jacobian(make())
    for s in (1, 2, 3):
        assert _minors_by_path(jac, s, True, monkeypatch) \
            == _minors_by_path(jac, s, False, monkeypatch), s


@pytest.mark.parametrize("p", [7, 2147483647])
def test_packed_minors_hold_the_largest_coefficients(p, monkeypatch):
    # Dense diagonal entries of coefficients p - 1: the middle coefficients
    # of their product sum many (p - 1)^3; a transposition flips the sign.
    # The degrees put the bound at several places within its top byte.
    F = PrimeField(p)
    zero = MvPoly.zero(F, 3)
    for k in (3, 4, 5):
        dense = MvPoly(F, 3, {e: p - 1 for e in monomials_of_degree(3, k)})
        diag = [[dense if i == j else zero for j in range(3)]
                for i in range(3)]
        for jac in (diag, [diag[1], diag[0], diag[2]]):
            assert _minors_by_path(jac, 3, True, monkeypatch) \
                == _minors_by_path(jac, 3, False, monkeypatch), k


def test_gl_copies_take_the_packed_minors_and_the_fixtures_do_not():
    # The GL copies' entries are dense forms of degree d - 1 >= 3; at
    # d = 3 (cube_dependent) a dense quadric has too few term pairs.
    for fx in FIXTURES:
        inp = fx.build()
        assert jac_mod._packed_entries(build_jacobian(inp), 3) is None
        gl = build_jacobian(_gl_copy(inp, random.Random(fx.name)))
        assert (jac_mod._packed_entries(gl, 3) is None) \
            == (fx.name == "cube_dependent"), fx.name
    Q = RationalField()
    gl_q = _gl_copy(make_family(5, Q), random.Random(5))
    assert jac_mod._packed_entries(build_jacobian(gl_q), 3) is None


def test_euler_syzygy_when_every_minor_vanishes(field):
    # The forms involve X0 and X1 only, so the X2 column of J is zero.
    x0, x1, _ = (MvPoly.variable(field, 3, j) for j in range(3))
    inp = RationalMapInput.create(field, [x0 ** 2, x0 * x1, x1 ** 2,
                                          x0 * x1 + x1 ** 2])
    jr = jacobian_report(inp)
    assert jr.F is None
    with pytest.raises(AllMinorsZero):
        euler_syzygy(inp, jr)
