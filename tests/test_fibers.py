"""Fiber equations, discovery, the bound chain, and the rank relation."""

import random
from fractions import Fraction

import pytest

from fiberbound import (BasePointError, FiberRecord, MvPoly,
                        ProjectivePoint, RationalMapInput, build_jacobian,
                        discover_fibers, fiber_equation, gcd_multivariate,
                        gcd_of_minors, minors, squarefree_part,
                        tangent_rank_check, verify_bound_chain)
from fiberbound.analysis import run_analysis
from fiberbound.errors import CommonFactor, RationalModeUnsupported
from fiberbound.fields import PrimeField, RationalField
from fiberbound.fibers import _lines
from fiberbound.fixtures import FIXTURES, make_example2, make_family
from fiberbound.syzygy import indeg_syzygy, monomials_of_degree
from fiberbound.univariate import u_deg, u_factor, u_roots

from conftest import (_gl_copy, _source_change, rand_nonzero,
                      random_nonzero_poly)


@pytest.fixture(scope="module")
def example2():
    inp = make_example2()
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    return inp, F


@pytest.fixture(scope="module")
def example2_discovery(example2):
    inp, F = example2
    return discover_fibers(inp, F, budget=200, seed=42)


def test_projective_point_normalisation(field):
    pt = ProjectivePoint.create(field, (0, 3, 6))
    assert pt.coords[1] == 1
    again = ProjectivePoint.create(field, pt.coords)
    assert again == pt
    with pytest.raises(ValueError):
        ProjectivePoint.create(field, (0, 0, 0))


def test_projective_point_converts_every_coordinate():
    Q = RationalField()
    coords = (0, Fraction(3, 2), -3, 1)
    mixed = ProjectivePoint.create(Q, coords)
    assert mixed == ProjectivePoint.create(Q, [Q.conv(c) for c in coords])
    assert mixed.coords == (0, 1, -2, Fraction(2, 3))
    assert [type(c) for c in mixed.coords] == [int, int, int, Fraction]
    F7 = PrimeField(7)
    raw = ProjectivePoint.create(F7, (0, -4, 17, -1))
    assert raw == ProjectivePoint.create(F7, (0, 3, 3, 6))
    assert raw.coords == (0, 1, 1, 2)
    assert raw.pivot_index() == 1


@pytest.mark.parametrize("coords", [
    (2, 1, 4), (0, -3, 6, 9), (Fraction(1, 2), 0, Fraction(3, 4)),
    (3, Fraction(5, 3), -7), (Fraction(-4, 9), Fraction(2, 3), 1)])
def test_projective_point_over_q_stores_ints_where_integral(coords):
    # Over Q a coordinate is an int exactly when it is integral, as MvPoly
    # stores a coefficient; printing is the same either way.
    pt = ProjectivePoint.create(RationalField(), coords)
    assert pt.coords[pt.pivot_index()] == 1
    for c in pt.coords:
        assert type(c) is (int if c.denominator == 1 else Fraction), pt.coords


def test_fiber_equation_family_d4(field, xyz):
    x0, x1, _ = xyz
    inp = make_family(4)
    h = fiber_equation(inp, ProjectivePoint.create(field, (0, 0, 1, 1)))
    assert h == (x0 - x1).monic()


def test_fiber_equation_zero_dimensional(field, xyz):
    x0, x1, x2 = xyz
    inp = RationalMapInput.create(field, [x0 ** 2, x1 ** 2, x2 ** 2, x0 * x1])
    h = fiber_equation(inp, ProjectivePoint.create(field, (1, 0, 0, 0)))
    assert h == MvPoly.one(field, 3)


def test_fiber_equation_generic_point_trivial(example2, field):
    inp, _ = example2
    rng = random.Random(61)
    for _ in range(5):
        y = ProjectivePoint.create(field, [rand_nonzero(field, rng)
                                           for _ in range(4)])
        assert fiber_equation(inp, y).is_constant()


def _fiber_equation_at(inp, y, pivot):
    """h_y from the combinations f_i - y_i f_pivot / y_pivot, for any pivot
    with y_pivot != 0 (`fiber_equation` always takes y.pivot_index())."""
    F = inp.field
    if not y.coords[pivot]:
        raise ValueError("pivot coordinate must be nonzero")
    ell = inp.f[pivot].scale(F.inv(y.coords[pivot]))
    combos = [fi - ell.scale(yi) for fi, yi in zip(inp.f, y.coords)]
    return gcd_multivariate(*[c for c in combos if not c.is_zero()])


def test_fiber_equation_pivot_independent(example2, field):
    inp, _ = example2
    y = ProjectivePoint.create(field, (1, 0, 1, 0))
    h0 = _fiber_equation_at(inp, y, pivot=0)
    h2 = _fiber_equation_at(inp, y, pivot=2)
    assert h0 == h2
    with pytest.raises(ValueError):
        _fiber_equation_at(inp, y, pivot=1)   # zero coordinate
    assert fiber_equation(inp, y) == h2


def test_discovery_rejects_the_rationals():
    # the line walk is the only point finder, and it needs a prime field
    inp = make_example2(RationalField())
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    with pytest.raises(RationalModeUnsupported):
        discover_fibers(inp, F, budget=5, seed=0)


def test_discover_example2_paper_sums(example2_discovery, field):
    disc = example2_discovery
    assert sum(r.deg_h for r in disc.records) == 8
    assert sum(r.weighted_deg for r in disc.records) == 9
    ys = {r.y.coords for r in disc.records}
    assert ProjectivePoint.create(field, (1, 0, -1, 0)).coords in ys


def test_discover_family_sums(field):
    for d in (4, 5):
        inp = make_family(d)
        F = gcd_of_minors(minors(build_jacobian(inp), 3))
        disc = discover_fibers(inp, F, budget=150, seed=42)
        assert sum(r.deg_h for r in disc.records) == d + 2
        assert sum(r.weighted_deg for r in disc.records) == 2 * (d - 1)
        assert disc.covered_degree == disc.squarefree_f_degree


def test_discovered_records_pairwise_coprime(example2_discovery, field):
    recs = example2_discovery.records
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            g = gcd_multivariate(recs[i].h, recs[j].h)
            assert g.is_constant()


def _rational_points_on(h, budget, seed):
    """The F_p-points of Z(h) on the first `budget` lines of `_lines`."""
    F = h.field
    found = {ProjectivePoint.create(F, [(ai + t * bi) % F.char
                                        for ai, bi in zip(a, b)])
             for a, b, u in _lines(h, budget, seed) if u
             for t in u_roots(F, u)}
    return sorted(found, key=lambda pt: pt.coords)


def test_discovered_divisors_map_to_their_point(example2, example2_discovery,
                                                field):
    # points of Z(h_y) off the base locus must land on y under the map
    inp, _ = example2
    numerically_checked = 0
    for rec in example2_discovery.records:
        # exact contraction certificate: h_y divides f_i - y_i f_{i0}/y_{i0},
        # so the map is constantly y on Z(h_y) wherever it is defined
        i0 = rec.y.pivot_index()
        ell = inp.f[i0].scale(field.inv(rec.y.coords[i0]))
        for fi, yi in zip(inp.f, rec.y.coords):
            combo = fi - ell.scale(yi)
            assert combo.is_zero() or rec.h.divides(combo)
        pts = _rational_points_on(rec.h, budget=30, seed=11)
        checked = 0
        for pt in pts:
            vals = [fi.evaluate(list(pt.coords)) for fi in inp.f]
            if not any(vals):
                continue
            assert ProjectivePoint.create(field, vals) == rec.y
            checked += 1
            if checked >= 3:
                break
        if checked >= 3:
            numerically_checked += 1
    # every divisor with rational points off the base locus gets the
    # numeric check; only the conjugate-line pair X0^2 + X2^2 cannot
    assert numerically_checked >= len(example2_discovery.records) - 1


def test_squarefree_witness_divides_F(example2, example2_discovery, field):
    inp, F = example2
    witness = MvPoly.one(field, 3)
    for rec in example2_discovery.records:
        for p, e in rec.sqfree:
            witness = witness * p ** (2 * e - 1)
    assert witness.divides(F)


def test_verify_bound_chain_example2(example2, example2_discovery, field):
    inp, F = example2
    indeg = indeg_syzygy(inp).indeg
    rep = verify_bound_chain(inp, example2_discovery.records, F, indeg=indeg)
    assert (rep.sum_deg, rep.sum_weighted, rep.degF, rep.outer) == (8, 9, 11, 15)
    assert rep.refined == 13 and rep.chain_ok and rep.witness_divides


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_chain_ok_on_random_sparse_maps(m, n):
    # The refined bound is proved for P^2 --> P^n with n >= 3 only, so it is
    # reported there and nowhere else; on P^2 --> P^2 checking it would fail
    # every map with indeg(Syz) > 0, since deg F = 3(d-1) there.
    F = PrimeField(101)
    rng = random.Random(50 + 10 * m + n)
    maps = 0
    while maps < 5:
        d = rng.randint(2, 3)
        mons = monomials_of_degree(m + 1, d)
        forms = [MvPoly(F, m + 1, {e: rand_nonzero(F, rng)
                                   for e in rng.sample(mons, rng.randint(1, 3))})
                 for _ in range(n + 1)]
        try:
            inp = RationalMapInput.create(F, forms)
        except CommonFactor:
            continue
        rep = run_analysis(inp, seed=1, budget=20)
        if rep.chain is None:       # every 3-minor vanishes
            continue
        maps += 1
        assert rep.chain.ok, rep.to_text()
        assert (rep.chain.refined is None) == (m != 2 or n < 3)


def test_verify_bound_chain_empty_fibers(example2, field):
    inp, F = example2
    rep = verify_bound_chain(inp, [], F)
    assert rep.sum_deg == 0 and rep.sum_weighted == 0 and rep.chain_ok


def test_verify_bound_chain_strict_raises(example2, field, xyz):
    # fabricated oversized record must trip the violation
    inp, F = example2
    x0 = xyz[0]
    fake_h = x0 ** 20
    fake = type(
        "R", (), {"deg_h": 20, "weighted_deg": 39, "h": fake_h,
                  "sqfree": [(x0, 20)], "y": None})()
    rep = verify_bound_chain(inp, [fake], F)
    assert not rep.chain_ok and not rep.ok


def test_tangent_rank_identity_map(field, xyz):
    x0, x1, x2 = xyz
    inp = RationalMapInput.create(field, [x0, x1, x2])
    r = tangent_rank_check(inp, ProjectivePoint.create(field, (1, 5, 9)))
    assert (r.rank_j, r.rank_dphi, r.consistent) == (3, 2, True)


def test_tangent_rank_veronese(field, xyz):
    x0, x1, x2 = xyz
    inp = RationalMapInput.create(
        field, [x0 ** 2, x1 ** 2, x2 ** 2, x0 * x1, x0 * x2, x1 * x2])
    r = tangent_rank_check(inp, ProjectivePoint.create(field, (1, 0, 0)))
    assert (r.rank_j, r.rank_dphi, r.consistent) == (3, 2, True)


def test_tangent_rank_on_contracted_divisor(field):
    # on the contracted divisor X0 = X1 of the d=4 family, rank J drops to <= 2
    inp = make_family(4)
    rng = random.Random(62)
    found = 0
    while found < 3:
        t = rand_nonzero(field, rng)
        q = ProjectivePoint.create(field, (1, 1, t))
        vals = [fi.evaluate(list(q.coords)) for fi in inp.f]
        if not any(vals):
            continue
        r = tangent_rank_check(inp, q)
        assert r.rank_j <= 2 and r.consistent
        found += 1


def test_tangent_rank_base_point_rejected(field):
    inp = make_example2()
    with pytest.raises(BasePointError):
        tangent_rank_check(inp, ProjectivePoint.create(field, (0, 1, 0)))


def minor_vanishing_check(h: MvPoly, minors3: list) -> bool:
    """Does squarefree(h) divide every nonzero 3-minor exactly?"""
    if h.is_constant():
        return True
    sf = squarefree_part(h)
    if sf.is_constant():
        return True
    return all(sf.divides(mn.poly) for mn in minors3 if not mn.poly.is_zero())


def test_minor_vanishing_check(field, xyz):
    x0, x1, _ = xyz
    inp = make_family(4)
    m3 = minors(build_jacobian(inp), 3)
    assert minor_vanishing_check((x0 - x1).monic(), m3)
    assert minor_vanishing_check(MvPoly.one(field, 3), m3)
    rng = random.Random(63)
    junk = x0 ** 2 + x1 ** 2 * 3 + x0 * x1 * rand_nonzero(field, rng)
    assert not minor_vanishing_check(junk, m3)


def test_discovery_deterministic(example2, field):
    inp, F = example2
    d1 = discover_fibers(inp, F, budget=60, seed=9)
    d2 = discover_fibers(inp, F, budget=60, seed=9)
    assert [(r.y.coords, r.h) for r in d1.records] == \
        [(r.y.coords, r.h) for r in d2.records]


def test_all_combinations_zero(field, xyz):
    # proportional generators make every l_i(f) vanish; validation normally
    # rejects this, so build the degenerate input directly
    from fiberbound.errors import AllCombinationsZero
    x0 = xyz[0]
    degenerate = RationalMapInput(field=field, varnames=("X0", "X1", "X2"),
                                  f=(x0 ** 2, x0 ** 2 * 2))
    with pytest.raises(AllCombinationsZero):
        fiber_equation(degenerate, ProjectivePoint.create(field, (1, 2)))


def test_F_divides_every_nonzero_minor(example2, field):
    inp, F = example2
    for mn in minors(build_jacobian(inp), 3):
        if not mn.poly.is_zero():
            assert F.divides(mn.poly)
            assert mn.poly.total_degree() == 3 * (inp.d - 1)


# covered degree of each fixture at budget 200; sumDeg/sumWeighted come from
# the fixture table
COVERED = {"family_d4": 6, "family_d5": 6, "family_d6": 6, "family_d7": 6,
           "example2": 7, "cube_dependent": 0}


@pytest.fixture(scope="module", params=["fixture", "gl_copy"])
def pinned_maps(request):
    maps = []
    for fx in FIXTURES:
        inp = fx.build()
        if request.param == "gl_copy":
            inp = _gl_copy(inp, random.Random(f"gl:{fx.name}"))
        F = gcd_of_minors(minors(build_jacobian(inp), 3))
        maps.append((fx, inp, F))
    return maps


def test_discovery_stops_on_a_decisive_line(pinned_maps):
    for fx, inp, F in pinned_maps:
        assert F.total_degree() == fx.deg_f
        for seed in range(1, 6):
            disc = discover_fibers(inp, F, budget=200, seed=seed)
            got = (sum(r.deg_h for r in disc.records),
                   sum(r.weighted_deg for r in disc.records),
                   disc.covered_degree)
            assert got == (fx.sum_deg, fx.sum_weighted, COVERED[fx.name]), \
                (fx.name, seed)
            assert 1 <= disc.lines <= 2, (fx.name, seed, disc.lines)


@pytest.mark.parametrize("p", [13, 17, 23, 29, 37])
def test_discovery_walks_on_past_lines_through_base_points(p):
    # over a small field many lines meet a base point, so the first line is
    # often not decisive and misses records
    fx = next(fx for fx in FIXTURES if fx.name == "example2")
    inp = make_example2(PrimeField(p))
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    walked = []
    for seed in range(1, 9):
        disc = discover_fibers(inp, F, budget=200, seed=seed)
        assert (sum(r.deg_h for r in disc.records),
                sum(r.weighted_deg for r in disc.records),
                disc.covered_degree) == (fx.sum_deg, fx.sum_weighted,
                                         COVERED["example2"]), seed
        walked.append(disc.lines)
    assert max(walked) > 1


def test_a_line_tangent_to_z_sf_with_no_base_point_is_decisive():
    # Over F_17 the first line of seed 4 meets Z(sf) in a repeated point or
    # in a multiple point at infinity, so it is not in general position; no
    # base point lies on it, and it finds every record of example2.
    inp = make_example2(PrimeField(17))
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    sf = squarefree_part(F)
    a, b, u = next(_lines(sf, 1, 4))
    factors = u_factor(inp.field, u)
    assert (sum(u_deg(q) for q in factors) < u_deg(u)
            or sf.total_degree() - u_deg(u) >= 2)
    disc = discover_fibers(inp, F, budget=200, seed=4)
    assert disc.decisive and disc.lines == 1 and not disc.base_locus_skips
    assert (sum(r.deg_h for r in disc.records),
            sum(r.weighted_deg for r in disc.records)) == (8, 9)
    assert disc.covered_degree == 7


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_discovery_pushes_only_points_of_z_sf(d, monkeypatch):
    # The records cover all of sf on these maps, so every point of Z(sf)
    # off the base locus has a divisorial fiber.  The line's point at
    # infinity is one of them only when deg u < deg sf; in the original
    # coordinates it always lies on a coordinate factor of sf, so a sheared
    # copy is needed to tell.
    inp = make_family(d)
    inp = RationalMapInput.create(inp.field, _source_change(
        inp, [[1, 0, 0], [2, 1, 0], [3, 5, 1]]))
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    real = FiberRecord.at
    degrees = []

    def at(inp, y):
        rec = real(inp, y)
        degrees.append(rec.deg_h)
        return rec

    monkeypatch.setattr(FiberRecord, "at", at)
    disc = discover_fibers(inp, F, seed=1)
    assert disc.covered_degree == disc.squarefree_f_degree
    assert degrees and all(degrees)


@pytest.mark.parametrize("seed", [1, 42])
def test_discovery_computes_one_fiber_equation_per_target_point(seed,
                                                                monkeypatch):
    # Discovery hands FiberRecord.at a normalised point, and never the same
    # point twice, however many closed points on its lines map there.
    real = FiberRecord.at
    points = []

    def at(inp, y):
        points.append(y)
        return real(inp, y)

    monkeypatch.setattr(FiberRecord, "at", at)
    for fx in FIXTURES:
        inp = fx.build()
        points.clear()
        discover_fibers(inp, gcd_of_minors(minors(build_jacobian(inp), 3)),
                        seed=seed)
        coords = [y.coords for y in points]
        assert len(set(coords)) == len(coords), fx.name
        assert all(y == ProjectivePoint.create(inp.field, y.coords)
                   for y in points), fx.name


def test_discovery_with_constant_F_walks_no_line(example2):
    inp, _ = example2
    disc = discover_fibers(inp, MvPoly.one(inp.field, inp.nvars), budget=7,
                           seed=3)
    assert (disc.budget, disc.lines, disc.decisive, disc.records) == \
        (7, 0, False, [])
    assert (disc.squarefree_f_degree, disc.covered_degree,
            disc.base_locus_skips, disc.nonrational_skips,
            disc.degenerate_lines) == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        discover_fibers(inp, MvPoly.zero(inp.field, inp.nvars))


def test_a_line_through_a_base_point_is_not_decisive():
    # f contracts the line l = 0 to (0 : 0 : 0 : 1), and l meets the base
    # locus in three rational points; a line through one of them meets l
    # nowhere else, so discovery has to walk on
    F13 = PrimeField(13)
    x0, x1, x2 = (MvPoly.variable(F13, 3, j) for j in range(3))
    ell = x0 + x1 + x2
    inp = RationalMapInput.create(F13, [ell * x0 ** 2, ell * x1 ** 2,
                                        ell * x2 ** 2,
                                        x0 * x1 * x2 + ell * x0 ** 2])
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    skipped = 0
    for seed in range(1, 21):
        disc = discover_fibers(inp, F, budget=200, seed=seed)
        assert [(r.y.coords, r.h) for r in disc.records] == \
            [((0, 0, 0, 1), ell)], seed
        skipped += disc.base_locus_skips
    assert skipped


def test_discovery_lines_capped_by_budget(example2):
    inp, F = example2
    assert discover_fibers(inp, F, budget=0, seed=1).lines == 0
    assert discover_fibers(inp, F, budget=1, seed=1).lines == 1


def test_coverage_gap_warning_says_whether_the_stop_was_decisive(example2):
    # example2 leaves a gap of 2; a decisive line certifies that no rational
    # point is the image of those factors, an exhausted budget does not.
    from fiberbound import run_analysis
    inp, F = example2
    assert discover_fibers(inp, F, budget=200, seed=42).decisive
    assert not discover_fibers(inp, F, budget=0, seed=42).decisive
    for budget, why in [(200, "(contracted to no rational point: discovery "
                              "stopped on a decisive line)"),
                        (0, "(uncontracted or missed)")]:
        gaps = [w for w in run_analysis(inp, budget=budget).warnings
                if w.startswith("coverage gap")]
        assert len(gaps) == 1 and gaps[0].endswith(why)


def test_skip_warnings_agree_in_number(xyz):
    # Over F_13, discovery on example2 skips one base-locus point at seed 6
    # and two at seed 42; two conjugate lines contracted to conjugate points
    # leave one closed point with a non-rational image.
    inp = make_example2(PrimeField(13))

    def skips(inp, seed):
        return [w for w in run_analysis(inp, seed=seed).warnings
                if w.startswith("skipped")]

    assert skips(inp, 6) == ["skipped 1 closed point in the base locus"]
    assert skips(inp, 42) == ["skipped 2 closed points in the base locus"]
    x0, x1, x2 = xyz
    conjugate = RationalMapInput.create(
        x0.field, [x1 * x2 ** 2, x0 * x2 ** 2, x0 ** 3 + x0 * x1 ** 2,
                   x0 ** 2 * x1 + x1 ** 3])
    assert skips(conjugate, 42) == \
        ["skipped 1 closed point with non-rational image"]


def test_discovery_finds_a_cubic_through_a_degree_3_point(field, xyz):
    # f = (c X0, c X1, c X2, h) contracts the smooth plane cubic c = 0 to
    # (0 : 0 : 0 : 1); on line 0 of seed 5 the cubic has no rational point,
    # only one closed point of degree 3
    x0, x1, x2 = xyz
    c = x1 ** 2 * x2 - x0 ** 3 - x0 * x2 ** 2 - x2 ** 3
    h = x0 ** 4 + x1 ** 4 + x2 ** 4 + x0 * x1 * x2 ** 2
    inp = RationalMapInput.create(field, [c * x0, c * x1, c * x2, h])
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    assert F == c.monic()
    [(_, _, u)] = _lines(F, 1, 5)
    assert len(u) == 4 and u_roots(field, u) == []
    disc = discover_fibers(inp, F, budget=1, seed=5)
    assert [(r.y.coords, r.h) for r in disc.records] == \
        [((0, 0, 0, 1), c.monic())]
    assert disc.covered_degree == disc.squarefree_f_degree == 3


def test_closed_points_on_an_uncontracted_curve_have_no_rational_image(field):
    # f = psi(sigma) for plane quadrics sigma = (q0, q1, q2) and psi = (Y0^2,
    # Y1^2, Y2^2, Y0 Y1 + Y1 Y2 + Y2 Y0): F is the ramification cubic of
    # sigma, which f does not contract.  Its closed points of degree 2 and 3
    # on a line are conjugate points with distinct images, so each is a
    # non-rational skip, and the images of its rational points carry no fiber.
    rng = random.Random(7)
    q0, q1, q2 = (random_nonzero_poly(field, 3, 0, rng, homogeneous_deg=2,
                                      density=1.0) for _ in range(3))
    inp = RationalMapInput.create(field, [q0 ** 2, q1 ** 2, q2 ** 2,
                                          q0 * q1 + q1 * q2 + q2 * q0])
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    assert F.total_degree() == 3 and squarefree_part(F) == F
    skips = []
    for seed in range(8):
        [(_, _, u)] = _lines(F, 1, seed)
        disc = discover_fibers(inp, F, budget=1, seed=seed)
        assert disc.records == [] and disc.decisive
        skips.append(disc.nonrational_skips)
        assert skips[-1] == sum(u_deg(q) > 1 for q in u_factor(field, u))
    assert 0 in skips and 1 in skips
