"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every expected value is either a pinned fixture constant or comes from an
independent oracle built inside the test (explicit product constructions,
divisor-lattice enumeration, hand cofactor expansions).  Each test prints
an ACCEPTANCE <n> PASS line on success.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from fiberbound import (MvPoly, PrimeField, ProjectivePoint,
                        RationalMapInput, build_jacobian,
                        euler_syzygy, fitting_invariance_check,
                        gcd_multivariate, gcd_of_minors, jacobian_report,
                        minors, run_analysis,
                        squarefree_decompose, tangent_rank_check)
from fiberbound.cli import run_selftest
from fiberbound.errors import CommonFactor
from fiberbound.fixtures import (Fixture, make_cube_dependent,
                                 make_example2, make_family)
from fiberbound.poly import _packs
from fiberbound.syzygy import indeg_syzygy

from conftest import rand_nonzero, random_poly
from test_gcd import _random_atoms

MAPS = pathlib.Path(__file__).resolve().parent.parent / "maps"


@pytest.fixture(scope="module")
def field():
    return PrimeField(2147483647)


@pytest.fixture(scope="module")
def example2_report(field):
    return run_analysis(make_example2(field), seed=42, budget=200)


def _random_surface_map(field, d, rng, nvars=3, count=4):
    while True:
        polys = [random_poly(field, nvars, d, rng, homogeneous_deg=d,
                             density=1.0) for _ in range(count)]
        try:
            return RationalMapInput.create(field, polys)
        except CommonFactor:
            continue


def test_criterion_1_example2_reproduction(field, example2_report):
    rep = example2_report
    x0, x1, x2 = (MvPoly.variable(field, 3, j) for j in range(3))
    expected_F = (x0 * x1 ** 3 * x2 * (x0 ** 4 - x2 ** 4)
                  * (x1 ** 2 - x2 ** 2)).monic()
    assert rep.jacobian.F == expected_F          # up to scalar: both monic
    assert rep.jacobian.degF == 11
    assert rep.indeg.indeg == 2
    assert rep.seed == 42 and rep.budget == 200
    assert rep.chain.sum_deg == 8
    chain = (rep.chain.sum_deg, rep.chain.degF, rep.chain.refined,
             rep.chain.outer)
    assert chain == (8, 11, 13, 15)
    assert f"refined: 8 <= 11 <= 13 <= 15" in rep.to_text()
    print("ACCEPTANCE 1 PASS: example2 F, degF=11, indeg=2, sumDeg=8, "
          "chain 8 <= 11 <= 13 <= 15")


def test_criterion_2_family_reproduction(field):
    for d in (4, 5, 6, 7):
        rep = run_analysis(make_family(d, field), seed=42, budget=200)
        assert rep.jacobian.degF == 2 * (d - 1), d
        assert rep.chain.sum_deg == d + 2, d
        assert rep.chain.sum_weighted == 2 * (d - 1), d
        if d == 4:
            assert rep.chain.sum_deg == rep.chain.sum_weighted \
                == rep.jacobian.degF == 6
    print("ACCEPTANCE 2 PASS: family d=4..7 degF=2(d-1), sumDeg=d+2, "
          "weighted=2(d-1); d=4 all equal 6")


def test_criterion_3_dependence_dichotomy(field, example2_report):
    cube = make_cube_dependent(field)
    F = gcd_of_minors(minors(build_jacobian(cube), 3))
    assert F.total_degree() == 6 == 3 * (cube.d - 1)
    assert indeg_syzygy(cube).indeg == 0
    # every independent fixture stays strictly below the outer bound
    assert example2_report.jacobian.degF < 15
    for d in (4, 5, 6, 7):
        inp = make_family(d, field)
        degF = gcd_of_minors(minors(build_jacobian(inp), 3)).total_degree()
        assert degF < 3 * (d - 1)
    print("ACCEPTANCE 3 PASS: dependent cube degF=6=3(d-1), indeg=0; "
          "independent fixtures degF < 3(d-1)")


def test_criterion_4_euler_syzygy_on_random_quartics(field):
    rng = random.Random(4042)
    failures = 0
    for _ in range(50):
        inp = _random_surface_map(field, 4, rng)
        jr = jacobian_report(inp)
        if all(m.poly.is_zero() for m in jr.minors3):
            continue   # F zero: outside the criterion's hypothesis
        F = jr.F
        es = euler_syzygy(inp, jr)
        combo = MvPoly.zero(field, 3)
        for a, f in zip(es.a, inp.f):
            combo = combo + a * f
        delta = 3 * (inp.d - 1) - F.total_degree()
        ok = (combo.is_zero()
              and any(not a.is_zero() for a in es.a)
              and all(a.is_zero() or a.total_degree() == delta for a in es.a))
        failures += 0 if ok else 1
    assert failures == 0
    print("ACCEPTANCE 4 PASS: 50/50 random quartic maps give a verified "
          "syzygy of degree 3(d-1)-degF")


def test_criterion_5_basis_invariance(field):
    inp = make_example2(field)
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    rng = random.Random(5042)
    done = 0
    failures = 0
    while done < 20:
        C = [[field.rand(rng) for _ in range(4)] for _ in range(4)]
        try:
            ok = fitting_invariance_check(inp, C, F=F)
        except Exception:
            continue   # singular draw, redraw
        done += 1
        failures += 0 if ok else 1
    assert failures == 0
    print("ACCEPTANCE 5 PASS: 20/20 invertible basis changes leave F "
          "unchanged up to scalar")


def test_criterion_6_rank_formula(field):
    rng = random.Random(6042)
    shapes = [(2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 3, 2), (2, 2, 4),
              (2, 5, 2), (3, 4, 2), (2, 3, 4), (2, 4, 3), (3, 3, 3)]
    points_checked = 0
    failures = 0
    for m, n, d in shapes:
        inp = _random_surface_map(field, d, rng, nvars=m + 1, count=n + 1)
        per_map = 0
        while per_map < 10:
            q = [field.rand(rng) for _ in range(m + 1)]
            if not any(q):
                continue
            vals = [fi.evaluate(q) for fi in inp.f]
            if not any(vals):
                continue   # base point, excluded by the criterion
            r = tangent_rank_check(inp, ProjectivePoint.create(field, q))
            failures += 0 if r.consistent else 1
            per_map += 1
            points_checked += 1
    assert points_checked == 100 and failures == 0
    print("ACCEPTANCE 6 PASS: rank J(q) = rank dphi_q + 1 at 100/100 "
          "points across 10 maps")


def test_criterion_7_kernel_oracles(field):
    rng = random.Random(7042)
    # GCD vs brute-force divisor enumeration over the construction lattice
    for _ in range(200):
        atoms = _random_atoms(field, rng, rng.choice([1, 2, 3]))
        budget_a, budget_b = 6, 6
        ea, eb = [], []
        for q in atoms:
            da = q.total_degree()
            xa = rng.randrange(0, max(1, budget_a // da) + 1)
            xb = rng.randrange(0, max(1, budget_b // da) + 1)
            ea.append(xa)
            eb.append(xb)
            budget_a -= xa * da
            budget_b -= xb * da
        a = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        b = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        for q, x, y in zip(atoms, ea, eb):
            a, b = a * q ** x, b * q ** y
        # oracle: enumerate candidate divisors, keep those dividing both
        best = MvPoly.one(field, 3)
        stack = [(0, MvPoly.one(field, 3))]
        while stack:
            i, cand = stack.pop()
            if i == len(atoms):
                if cand.total_degree() > best.total_degree() \
                        and cand.divides(a) and cand.divides(b):
                    best = cand
                continue
            for e in range(max(ea[i], eb[i]) + 1):
                stack.append((i + 1, cand * atoms[i] ** e))
        assert gcd_multivariate(a, b) == best.monic()
    # square-free reconstruction on explicit products
    for _ in range(200):
        atoms = _random_atoms(field, rng, rng.choice([1, 2]))
        f = MvPoly.constant(field, 3, rand_nonzero(field, rng))
        for i, q in enumerate(atoms):
            f = f * q ** rng.randrange(1, 4)
        parts = squarefree_decompose(f)
        rebuilt = MvPoly.one(field, 3)
        for p, e in parts:
            rebuilt = rebuilt * p ** e
        assert rebuilt == f.monic()
    print("ACCEPTANCE 7 PASS: 200/200 gcd oracle instances and 200/200 "
          "square-free reconstructions")


def test_criterion_8_byte_identical_json(field, tmp_path):
    # example2 and a dense P^2 -> P^3 map at d = 8, whose minors and syzygy
    # checks multiply through the Kronecker-packed product, each analysed in
    # two processes with different string-hash seeds.
    rng = random.Random(8)
    forms = [random_poly(field, 3, 8, rng, homogeneous_deg=8, density=1.0)
             for _ in range(4)]
    jac = build_jacobian(RationalMapInput.create(field, forms))
    assert _packs(jac[0][0], jac[1][1])
    dense = tmp_path / "dense_P2_d8.map"
    dense.write_text("field p=2147483647\nvars X0 X1 X2\n" + "".join(
        f"f{i} {f}\n" for i, f in enumerate(forms)), encoding="utf-8")
    for path, sum_deg in ((MAPS / "example2.map", 8), (dense, 0)):
        cmd = [sys.executable, "-m", "fiberbound", "analyze", str(path),
               "--seed", "42", "--json"]
        r1, r2 = (subprocess.run(cmd, capture_output=True, check=True,
                                 env={**os.environ, "PYTHONHASHSEED": seed})
                  for seed in ("0", "4242"))
        assert r1.stdout == r2.stdout and len(r1.stdout) > 0
        assert json.loads(r1.stdout)["sumDeg"] == sum_deg
    assert json.loads(r1.stdout)["degF"] == 0
    print("ACCEPTANCE 8 PASS: analyze --seed 42 --json is byte-identical "
          "across processes with different hash seeds, on example2 and a "
          "dense d = 8 map")


def test_criterion_9_negative_control(field):
    base = make_example2(field)
    x0 = MvPoly.variable(field, 3, 0)
    x1 = MvPoly.variable(field, 3, 1)
    f3 = base.f[3] + x0 ** 4 * x1 ** 2           # perturb one coefficient
    perturbed = RationalMapInput.create(field, (*base.f[:3], f3))
    degF = gcd_of_minors(minors(build_jacobian(perturbed), 3)).total_degree()
    assert degF != 11 and degF < 11
    bad = Fixture("example2_perturbed", lambda: perturbed, deg_f=11,
                  sum_deg=8, sum_weighted=9, indeg=2)
    import io
    buf = io.StringIO()
    code = run_selftest(fixtures=[bad], out=buf)
    assert code != 0
    assert "degF" in buf.getvalue()
    print(f"ACCEPTANCE 9 PASS: perturbed f3 drops degF to {degF} and "
          "selftest exits nonzero naming the mismatch")
