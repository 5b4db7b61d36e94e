"""Graded syzygy kernels: Koszul cases, paper fixtures, independent rank check."""

import random
from math import comb

import pytest

import fiberbound.linalg as linalg_mod
import fiberbound.syzygy as syz_mod
from fiberbound import (MvPoly, PrimeField, RationalField, RationalMapInput,
                        graded_syzygy_kernel, indeg_syzygy, parse_map_file,
                        run_analysis)
from fiberbound.errors import CommonFactor
from fiberbound.fixtures import make_cube_dependent, make_example2, make_family
from fiberbound.poly import grlex_key
from fiberbound.syzygy import linear_dependence_check, monomials_of_degree

from conftest import independent_rank_mod_p, random_poly


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
    assert k.dimension == 1
    a0, a1 = k.basis[0]
    # kernel is spanned by (X1, -X0) up to scalar
    assert a0 * inp.f[0] + a1 * inp.f[1] == MvPoly.zero(field, 2)
    assert a0.total_degree() == 1 and a1.total_degree() == 1


def test_koszul_tuples_at_degree_d(field):
    inp = make_family(4)
    k = graded_syzygy_kernel(inp, inp.d)
    # each pair (i, j) gives the relation f_j e_i - f_i e_j
    assert k.dimension >= 1
    for i in range(4):
        for j in range(i + 1, 4):
            combo = inp.f[j] * inp.f[i] - inp.f[i] * inp.f[j]
            assert combo.is_zero()


def test_example2_indeg_and_low_degrees(field):
    inp = make_example2()
    assert graded_syzygy_kernel(inp, 0).dimension == 0
    assert graded_syzygy_kernel(inp, 1).dimension == 0
    k2 = graded_syzygy_kernel(inp, 2)
    assert k2.dimension > 0
    res = indeg_syzygy(inp)
    assert res.indeg == 2


def test_cube_constant_syzygy(field):
    res = indeg_syzygy(make_cube_dependent())
    assert res.indeg == 0
    k0 = graded_syzygy_kernel(make_cube_dependent(), 0)
    assert k0.dimension == 1


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
            F, [*f, f[0] + f[1].scale(F.rand_nonzero(rng))]), True))
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
            assert k.dimension == ncols - rank
            for tup in k.basis:
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
    # where the first count exceeds the second.
    rng = random.Random(53)
    ranks = []
    real_rank = syz_mod.rank

    def counting(F, rows):
        ranks.append(len(rows[0]))
        return real_rank(F, rows)

    def no_kernel(F, rows, ncols):
        raise AssertionError(f"kernel basis built for {ncols} columns")

    monkeypatch.setattr(syz_mod, "rank", counting)
    monkeypatch.setattr(syz_mod, "kernel_basis", no_kernel)
    for d in range(3, 7):
        inp = _dense_map(field, rng, d)
        counted = next(nu for nu in range(d + 1)
                       if 4 * comb(nu + 2, 2) > comb(nu + d + 2, 2))
        ranks.clear()
        assert indeg_syzygy(inp).indeg == counted
        # one rank per degree below the hit, none at it
        assert ranks == [4 * comb(nu + 2, 2) for nu in range(counted)]


FIXTURES = {"cube_dependent": make_cube_dependent, "example2": make_example2,
            **{f"family_d{d}": (lambda fld, d=d: make_family(d, fld))
               for d in range(4, 8)}}


@pytest.mark.parametrize("F", [PrimeField(), RationalField()], ids=["fp", "q"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_indeg_is_the_first_nonzero_kernel_on_fixtures(name, F):
    inp = FIXTURES[name](F)
    first = next(nu for nu in range(inp.d + 1)
                 if graded_syzygy_kernel(inp, nu).dimension)
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
