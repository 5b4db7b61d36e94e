"""Graded syzygy kernels: Koszul cases, paper fixtures, independent rank check."""

import random
from math import comb

import pytest

import fiberbound.linalg as linalg_mod
import fiberbound.syzygy as syz_mod
from fiberbound import (DEFAULT_PRIME, MvPoly, PrimeField, RationalField,
                        RationalMapInput, graded_syzygy_kernel, indeg_syzygy,
                        parse_map_file, run_analysis)
from fiberbound.errors import CommonFactor
from fiberbound.fixtures import make_cube_dependent, make_example2, make_family
from fiberbound.poly import grlex_key
from fiberbound.syzygy import linear_dependence_check, monomials_of_degree

import conftest
from conftest import (independent_rank_mod_p, rand_nonzero, random_poly,
                      upward_scan_indeg)


def _assemble_matrix_independently(inp, nu):
    """Coefficient matrix of (a_0..a_n) -> sum a_i f_i, built from scratch."""
    src = monomials_of_degree(inp.nvars, nu)
    tgt = monomials_of_degree(inp.nvars, nu + inp.d)
    tgt_index = {e: i for i, e in enumerate(tgt)}
    cols = []
    for fi in inp.f:
        for mu in src:
            col = [0] * len(tgt)
            for e, c in fi.terms.items():
                col[tgt_index[tuple(a + b for a, b in zip(e, mu))]] += c
            cols.append(col)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(tgt))]


def test_koszul_pair(field):
    x0 = MvPoly.variable(field, 2, 0)
    x1 = MvPoly.variable(field, 2, 1)
    inp = RationalMapInput.create(field, [x0, x1])
    k = graded_syzygy_kernel(inp, 1)
    assert len(k) == 1
    a0, a1 = k[0]
    # kernel is spanned by (X1, -X0) up to scalar
    assert a0 * inp.f[0] + a1 * inp.f[1] == MvPoly.zero(field, 2)
    assert a0.total_degree() == 1 and a1.total_degree() == 1


def test_koszul_tuples_at_degree_d(field):
    inp = make_family(4)
    k = graded_syzygy_kernel(inp, inp.d)
    # each pair (i, j) gives the relation f_j e_i - f_i e_j
    assert len(k) >= 1
    for i in range(4):
        for j in range(i + 1, 4):
            combo = inp.f[j] * inp.f[i] - inp.f[i] * inp.f[j]
            assert combo.is_zero()


def test_example2_indeg_and_low_degrees(field):
    inp = make_example2()
    assert len(graded_syzygy_kernel(inp, 0)) == 0
    assert len(graded_syzygy_kernel(inp, 1)) == 0
    k2 = graded_syzygy_kernel(inp, 2)
    assert len(k2) > 0
    res = indeg_syzygy(inp)
    assert res.indeg == 2


def test_cube_constant_syzygy(field):
    res = indeg_syzygy(make_cube_dependent())
    assert res.indeg == 0
    k0 = graded_syzygy_kernel(make_cube_dependent(), 0)
    assert len(k0) == 1


def test_indeg_zero_iff_dependent(field):
    for inp in (make_family(4), make_family(5), make_example2(),
                make_cube_dependent()):
        dep, _ = linear_dependence_check(inp)
        assert (indeg_syzygy(inp).indeg == 0) == dep


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
def test_analysis_reads_dependent_off_indeg_zero(F):
    # run_analysis sets `dependent` from indeg(Syz) = 0 and reads `relation`
    # off the degree-0 basis, which linear_dependence_check also views
    spec = f"p={F.char}" if F.char else "rational"
    counting = parse_map_file(f"field {spec}\nvars X0 X1\nf0 X0^2\n"
                              "f1 X0*X1\nf2 X1^2\nf3 X0^2 + 2*X1^2\n")
    rep = run_analysis(counting, budget=1)
    assert rep.to_json_dict()["relation"] == \
        ([-1, 0, -2, 1] if F.char else ["-1", "0", "-2", "1"])
    rng = random.Random(56)
    cases = [(counting, True)]
    for d in (2, 3, 3):
        f = _dense_map(F, rng, d, nforms=3).f
        cases.append((RationalMapInput.create(
            F, [*f, f[0] + f[1].scale(rand_nonzero(F, rng))]), True))
    cases += [(make_example2(F), False), (make_family(4, F), False),
              (_dense_map(F, rng, 2), False)]
    for inp, dependent in cases:
        rep = run_analysis(inp, budget=1)
        assert rep.dependent == dependent == (rep.indeg.indeg == 0)
        assert rep.relation == linear_dependence_check(inp)[1]
        if dependent:
            combo = MvPoly.zero(F, inp.nvars)
            for r, fi in zip(rep.relation, inp.f):
                combo = combo + fi.scale(r)
            assert combo.is_zero()


def test_indeg_at_most_d(field):
    rng = random.Random(51)
    for _ in range(5):
        while True:
            polys = [random_poly(field, 3, 2, rng, homogeneous_deg=2)
                     for _ in range(4)]
            try:
                inp = RationalMapInput.create(field, polys)
                break
            except CommonFactor:
                continue
        res = indeg_syzygy(inp)
        assert res.indeg is not None and res.indeg <= inp.d


def test_kernel_dimension_against_independent_rank(field):
    # dense random quadric quadruples, checked degree by degree
    rng = random.Random(52)
    p = field.p
    for _ in range(3):
        while True:
            polys = [random_poly(field, 3, 2, rng, homogeneous_deg=2,
                                 density=1.0) for _ in range(4)]
            try:
                inp = RationalMapInput.create(field, polys)
                break
            except CommonFactor:
                continue
        for nu in range(0, 3):
            k = graded_syzygy_kernel(inp, nu)
            rows = _assemble_matrix_independently(inp, nu)
            ncols = 4 * len(monomials_of_degree(3, nu))
            rank = independent_rank_mod_p(p, rows)
            assert len(k) == ncols - rank
            for tup in k:
                combo = MvPoly.zero(field, 3)
                for a, f in zip(tup, inp.f):
                    combo = combo + a * f
                assert combo.is_zero()
                for a in tup:
                    assert a.is_zero() or a.total_degree() == nu


def test_monomials_of_degree_order_and_count(field):
    monos = monomials_of_degree(3, 2)
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)
    assert monos[-1] == (0, 0, 2)
    assert len(set(monos)) == len(monos)
    for nvars, deg in ((1, 0), (1, 4), (2, 0), (2, 5), (3, 7), (4, 3),
                       (5, 6)):
        monos = monomials_of_degree(nvars, deg)
        assert monos == sorted(monos, key=grlex_key, reverse=True)
        assert len(set(monos)) == len(monos) == comb(deg + nvars - 1,
                                                     nvars - 1)
        assert all(sum(e) == deg and len(e) == nvars for e in monos)


def test_a_dependent_map_eliminates_its_degree_0_matrix_once(field,
                                                             monkeypatch):
    # indeg_syzygy ranks degree 0, builds the verified basis there, and
    # run_analysis reads the relation off that basis.
    calls = []
    real_rref = linalg_mod.rref

    def counting(F, rows):
        calls.append(len(rows))
        return real_rref(F, rows)

    monkeypatch.setattr(linalg_mod, "rref", counting)
    rep = run_analysis(make_cube_dependent(), budget=1)
    assert rep.dependent and rep.indeg.indeg == 0
    assert calls == [10]
    assert [field.lift_balanced(c) for c in rep.relation] == [-1, -1, 0, 1]


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
def test_a_full_rank_mod_p_builds_no_kernel(F, monkeypatch):
    # Degrees 0 and 1 of example2 have full rank, which settles them.  A
    # rank deficient mod p runs one elimination, which over Q may find no
    # kernel.
    calls = []
    real = syz_mod.kernel_basis

    def counting(F, rows, ncols):
        calls.append(ncols)
        return real(F, rows, ncols)

    monkeypatch.setattr(syz_mod, "kernel_basis", counting)
    assert graded_syzygy_kernel(make_example2(F), 0) == []
    assert graded_syzygy_kernel(make_example2(F), 1) == []
    assert calls == []
    kernel = graded_syzygy_kernel(_singular_mod_p(F), 0)
    assert calls == [3]
    # f0 + f1 - f2 = 0 mod 2^31 - 1; over Q the forms are independent
    assert len(kernel) == (1 if F.char else 0)


def test_a_deficient_rational_degree_is_eliminated_once(monkeypatch):
    # The rank mod p settles degrees 0 and 1 of example2; at degree 2, one
    # exact elimination gives both the rank and the kernel basis.
    calls = []
    real_rref = linalg_mod.rref

    def counting(F, rows):
        calls.append(len(rows[0]))
        return real_rref(F, rows)

    monkeypatch.setattr(linalg_mod, "rref", counting)
    res = indeg_syzygy(make_example2(RationalField()))
    assert res.indeg == 2 and res.basis
    assert calls == [4 * comb(2 + 2, 2)]


def _dense_map(field, rng, d, nvars=3, nforms=4):
    while True:
        polys = [random_poly(field, nvars, d, rng, homogeneous_deg=d,
                             density=1.0) for _ in range(nforms)]
        try:
            return RationalMapInput.create(field, polys)
        except CommonFactor:
            continue


def test_dense_maps_hit_at_the_counted_degree(field, monkeypatch):
    # (a_0..a_3) of degree nu have 4 C(nu+2, 2) coefficients, and sum a_i f_i
    # has C(nu+d+2, 2); a generic map has no syzygy before the first nu
    # where the first count exceeds the second.  Probes at 1, 2, 4, ...,
    # capped at that nu - 1, all find full rank, and no kernel is built.
    rng = random.Random(53)
    probes = []
    real = syz_mod._deficient_block

    def counting(inp, nu):
        probes.append(nu)
        return real(inp, nu)

    def no_kernel(inp, nu):
        raise AssertionError(f"kernel built at degree {nu}")

    monkeypatch.setattr(syz_mod, "_deficient_block", counting)
    monkeypatch.setattr(syz_mod, "graded_syzygy_kernel", no_kernel)
    for d, expected in ((3, [1]), (4, [1, 2]), (5, [1, 2, 3]), (6, [1, 2, 4])):
        inp = _dense_map(field, rng, d)
        counted = next(nu for nu in range(d + 1)
                       if 4 * comb(nu + 2, 2) > comb(nu + d + 2, 2))
        probes.clear()
        assert indeg_syzygy(inp).indeg == counted
        assert probes == expected and expected[-1] == counted - 1


def _counted(nforms, m, d):
    """The least nu > 0 at which counting certifies a syzygy."""
    return next(nu for nu in range(1, d + 1)
                if nforms * comb(nu + m, m) > comb(nu + d + m, m))


def _planted_map(F, rng, nvars, d, k, perturb=False, x0_in_b=False):
    """f_0 = A B and f_1 = A C with deg B = deg C = k, so C f_0 - B f_1 is a
    syzygy of degree k, and nvars - 1 random forms; with `x0_in_b`, B is
    X0 times a random form.  With `perturb`, f_1 is A C + q D with
    q = 2^31 - 1: the same map mod q, but over Q f_0 and f_1 have no common
    factor, and the syzygy is gone."""
    def form(deg):
        return random_poly(F, nvars, deg, rng, homogeneous_deg=deg,
                           density=1.0)

    while True:
        a, c = form(d - k), form(k)
        b = MvPoly.variable(F, nvars, 0) * form(k - 1) if x0_in_b else form(k)
        f1 = a * c + form(d).scale(DEFAULT_PRIME) if perturb else a * c
        try:
            return RationalMapInput.create(
                F, [a * b, f1, *(form(d) for _ in range(nvars - 1))])
        except CommonFactor:
            continue


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
def test_planted_syzygies_of_every_degree_below_the_hit(F, monkeypatch):
    # indeg is the planted k, as the upward scan finds it, and the only
    # kernel built is the one at k.  The scan shares the search's kernels,
    # which over Q cost the most.
    rng = random.Random(57)
    calls = []
    kernels = {}
    real = syz_mod.graded_syzygy_kernel

    def shared(inp, nu):
        if nu not in kernels:
            kernels[nu] = real(inp, nu)
        return kernels[nu]

    def counting(inp, nu):
        calls.append(nu)
        return shared(inp, nu)

    monkeypatch.setattr(syz_mod, "graded_syzygy_kernel", counting)
    monkeypatch.setattr(conftest, "graded_syzygy_kernel", shared)
    # Columns (i, mu) in i-major order would meet a_1 = -B of a syzygy
    # X0^(nu-k) (C, -B) at an X0 exponent above nu - k when X0 divides B.
    cases = [(nvars, d, k, False) for nvars, d in ((3, 3), (3, 4), (3, 5),
                                                    (3, 6), (4, 3))
             for k in range(_counted(nvars + 1, nvars - 1, d))]
    cases += [(3, d, k, True) for d in (3, 4) for k in range(1, d - 1)]
    for nvars, d, k, x0_in_b in cases:
        inp = _planted_map(F, rng, nvars, d, k, x0_in_b=x0_in_b)
        kernels.clear()
        calls.clear()
        res = indeg_syzygy(inp)
        assert calls == [k]
        reference = upward_scan_indeg(inp)
        assert res.indeg == reference.indeg == k, (nvars, d, k)
        assert res.basis


def test_a_rank_deficient_only_mod_p_sends_the_search_past_it(monkeypatch):
    # Mod 2^31 - 1 the probe finds the planted syzygy at k > 0; over Q there
    # is none, so the exact kernels at k, k + 1, ... below the counted degree
    # are all empty, and counting settles indeg.
    Q = RationalField()
    rng = random.Random(58)
    calls = []
    real = syz_mod.graded_syzygy_kernel

    def counting(inp, nu):
        calls.append(nu)
        return real(inp, nu)

    monkeypatch.setattr(syz_mod, "graded_syzygy_kernel", counting)
    for d, k in ((4, 1), (4, 2), (5, 2)):
        inp = _planted_map(Q, rng, 3, d, k, perturb=True)
        hit = _counted(4, 2, d)
        assert syz_mod._deficient_block(inp, hit - 1) == k
        calls.clear()
        assert indeg_syzygy(inp).indeg == hit
        assert calls == list(range(k, hit))
        assert upward_scan_indeg(inp).indeg == hit


def _singular_mod_p(F):
    """Linearly independent over Q, but mod 2^31 - 1 the third form is the
    sum of the other two, so over Q the degree-0 matrix has full rank while
    its rank mod 2^31 - 1 is deficient."""
    spec = f"p={F.char}" if F.char else "rational"
    return parse_map_file(f"field {spec}\nvars X Y Z\nf0 X^2\nf1 Y^2\n"
                          f"f2 X^2 + Y^2 + {DEFAULT_PRIME}*Z^2\n")


FIXTURES = {"cube_dependent": make_cube_dependent, "example2": make_example2,
            **{f"family_d{d}": (lambda fld, d=d: make_family(d, fld))
               for d in range(4, 8)},
            "singular_mod_p": _singular_mod_p}


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_indeg_is_the_first_nonzero_kernel_on_fixtures(name, F):
    inp = FIXTURES[name](F)
    first = next(nu for nu in range(inp.d + 1)
                 if len(graded_syzygy_kernel(inp, nu)))
    assert indeg_syzygy(inp).indeg == first


def test_equal_counts_certify_nothing(field):
    # Two binary forms of degree d without a common factor have a nonsingular
    # Sylvester matrix, which is the square degree-(d-1) matrix: the first
    # syzygy is the Koszul one, at nu = d.  Five dense plane cubics have 15
    # linear coefficient tuples against 15 quartics, and none is a syzygy.
    rng = random.Random(54)
    for nvars, nforms, d, indeg in ((2, 2, 2, 2), (2, 2, 3, 3), (2, 2, 4, 4),
                                    (3, 5, 3, 2)):
        inp = _dense_map(field, rng, d, nvars, nforms)
        assert indeg_syzygy(inp).indeg == indeg
    # Three binary quadrics have 3 constant tuples against 3 quadrics; a
    # dependent triple has its syzygy there.
    x0, x1 = (MvPoly.variable(field, 2, j) for j in range(2))
    dependent = RationalMapInput.create(field, [x0 * x0, x1 * x1,
                                                x0 * x0 + x1 * x1])
    assert indeg_syzygy(dependent).indeg == 0
