"""F = 1 proved on one line, against the expansion of every 3-minor.

`jacobian_report` restricts J to one seeded line L and takes the 3x3
determinants U_i = M_i∘L of the restricted entries.  When two nonzero U_i,
one of full degree 3(d-1), are coprime, F = 1 is proved without expanding
a minor; every other outcome expands the minors as before.  These tests
hold the two paths to the same reports, and pin the cases where the line
must not prove F = 1.
"""

import random
from fractions import Fraction

import pytest

import fiberbound.jacobian as jac_mod
from fiberbound import (JacobianReport, MvPoly, PrimeField, RationalField,
                        RationalMapInput, jacobian_report, parse_map_file)
from fiberbound.analysis import run_analysis
from fiberbound.errors import CommonFactor, FDoesNotDivideMinor
from fiberbound.jacobian import line_euler_syzygy
from fiberbound.syzygy import monomials_of_degree

from conftest import rand_nonzero

FIELDS = [PrimeField(), RationalField()]
SHAPES = [(2, d) for d in range(1, 6)] + [(3, 2), (3, 3)]


def _random_map(field, m, d, kind, seed):
    """A seeded map P^m --> P^(m+1) of degree d: sparse forms have three
    terms, dense ones a coefficient at every monomial."""
    rng = random.Random(f"line:{m}:{d}:{kind}:{seed}")
    monos = monomials_of_degree(m + 1, d)
    while True:
        forms = []
        for _ in range(m + 2):
            picked = (rng.sample(monos, min(3, len(monos))) if kind == "sparse"
                      else monos)
            forms.append(MvPoly(field, m + 1, {e: rand_nonzero(field, rng)
                                               for e in picked}))
        try:
            return RationalMapInput.create(field, forms)
        except CommonFactor:
            continue


def _expanded(inp, monkeypatch):
    """run_analysis with the line test switched off: every 3-minor expanded."""
    with monkeypatch.context() as mp:
        mp.setattr(jac_mod, "_line_proof", lambda inp, jac: None)
        return run_analysis(inp)


def _the_line(field, nvars):
    """The line's point a = (1, a_1, ...) and direction b = (0, b_1, ...)."""
    line = jac_mod._Line(field, nvars)
    return line.a, line.b


def _count_minors(monkeypatch):
    calls = []
    real = jac_mod.minors

    def counted(jac, s):
        calls.append(s)
        return real(jac, s)

    monkeypatch.setattr(jac_mod, "minors", counted)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
@pytest.mark.parametrize("kind", ["sparse", "dense"])
@pytest.mark.parametrize("m,d", SHAPES, ids=[f"P{m}_d{d}" for m, d in SHAPES])
def test_line_path_and_expansion_give_the_same_report(field, kind, m, d,
                                                      monkeypatch):
    inp = _random_map(field, m, d, kind, 0)
    calls = _count_minors(monkeypatch)
    report = run_analysis(inp)
    if kind == "dense":
        # Generic maps have F = 1, and the line proves it.
        assert report.jacobian.line is not None and calls == []
    expanded = _expanded(inp, monkeypatch)
    assert expanded.jacobian.line is None
    assert report.to_json() == expanded.to_json()
    assert report.to_text() == expanded.to_text()


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_minors_with_a_common_zero_on_the_line_fall_back(field, monkeypatch):
    # Every form vanishes to order 2 at a point P of the line, so J(P) = 0
    # and every U_i vanishes at P; F is still 1.
    a, b = _the_line(field, 3)
    q = field.char or jac_mod._LINE_PRIME
    P = [(x + 5 * y) % q for x, y in zip(a, b)]
    X = [MvPoly.variable(field, 3, j) for j in range(3)]
    l1, l2 = X[1] - X[0].scale(P[1]), X[2] - X[0].scale(P[2])
    quad = [l1 * l1, l1 * l2, l2 * l2]
    rng = random.Random(3)
    while True:
        forms = [sum((g * MvPoly(field, 3, {e: rand_nonzero(field, rng)
                                           for e in monomials_of_degree(3, 1)})
                      for g in quad), MvPoly.zero(field, 3))
                 for _ in range(4)]
        try:
            inp = RationalMapInput.create(field, forms)
            break
        except CommonFactor:
            continue
    calls = _count_minors(monkeypatch)
    report = run_analysis(inp)
    assert report.jacobian.line is None and calls == [3]
    assert report.jacobian.degF == 0
    assert report.to_json() == _expanded(inp, monkeypatch).to_json()


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_a_minor_that_vanishes_on_the_line_is_expanded(field, monkeypatch):
    # P^3 --> P^4 with f2 = f0 + l^2 for a linear form l that vanishes on
    # L: rows 0 and 2 of J agree on L, so the 12 minors on both rows vanish
    # there, but none is zero.
    a, b = _the_line(field, 4)
    ell = MvPoly(field, 4, {(1, 0, 0, 0): a[1] * b[2] - a[2] * b[1],
                            (0, 1, 0, 0): -b[2], (0, 0, 1, 0): b[1]})
    inp = _random_map(field, 3, 2, "dense", 3)
    f = list(inp.f)
    f[2] = f[0] + ell * ell
    inp = RationalMapInput.create(field, f)
    jr = jacobian_report(inp)
    assert jr.line is not None
    assert [not u for u in jr.line[1]] == \
        [{0, 2} <= set(rows) for rows, _ in jac_mod._index_sets(jr.jac, 3)]
    assert jr.minor_nonzero == (True,) * 40
    report = run_analysis(inp)
    assert report.to_json_dict()["nonzeroMinorCount"] == 40
    assert report.to_json() == _expanded(inp, monkeypatch).to_json()


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_the_line_needs_a_minor_of_full_degree(field):
    # F = X0, and the line's point at infinity lies on X0 = 0, so F∘L is a
    # constant and the U_i are coprime; only the degree drop shows that F
    # is not 1.
    text = "vars X0 X1 X2\nf0 X1*X2\nf1 X0*X2\nf2 X0*X1\nf3 X0^2\n"
    if not field.char:
        text = "field rational\n" + text
    report = run_analysis(parse_map_file(text))
    assert report.jacobian.line is None
    assert (report.jacobian.degF, report.jacobian.F.to_str()) == (1, "X0")


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_a_nonzero_minor_below_full_degree_stops_the_line(field, monkeypatch):
    # f2 = f0 + X0 (b_2 X1 - b_1 X2) h: X0 and b_2 X1 - b_1 X2 vanish at the
    # line's point at infinity b, so rows 0 and 2 of J(b) agree.  U_0 (rows
    # 0, 1, 2) drops below full degree, while rows 0, 1, 3 keep rank 3, so
    # the rank check passes and only the full-degree check is left to stop
    # the line.
    _, b = _the_line(field, 3)
    rng = random.Random(5)
    X = [MvPoly.variable(field, 3, j) for j in range(3)]
    ell = X[1].scale(b[2]) - X[2].scale(b[1])
    inp = _random_map(field, 2, 3, "dense", 5)
    h = MvPoly(field, 3, {e: rand_nonzero(field, rng)
                          for e in monomials_of_degree(3, 1)})
    f = list(inp.f)
    f[2] = f[0] + X[0] * ell * h
    inp = RationalMapInput.create(field, f)
    line = jac_mod._Line(field, 3)
    u0 = line.restrict(jac_mod.minors(jac_mod.build_jacobian(inp), 3)[0].poly)
    assert 0 < len(u0) <= 3 * (inp.d - 1)
    jr = jacobian_report(inp)
    assert jr.line is None and jr.degF == 0
    report = run_analysis(inp)
    assert report.to_json() == _expanded(inp, monkeypatch).to_json()


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_one_nonzero_minor_proves_nothing(field):
    # f3 = 0, so the Jacobian determinant of f0, f1, f2 is the one nonzero
    # 3-minor, and F is that minor: one U_i of full degree is no proof.
    inp = _random_map(field, 2, 2, "dense", 4)
    inp = RationalMapInput.create(field, inp.f[:3] + (MvPoly.zero(field, 3),))
    jr = jacobian_report(inp)
    assert jr.line is None
    assert (jr.degF, jr.minor_nonzero) == (3, (True, False, False, False))


def test_a_denominator_divisible_by_the_line_prime_skips_the_line(monkeypatch):
    Q = RationalField()
    inp = _random_map(Q, 2, 3, "dense", 1)
    for den, skips in ((jac_mod._LINE_PRIME, True), (3, False)):
        f = (inp.f[0].scale(Fraction(1, den)),) + inp.f[1:]
        scaled = RationalMapInput.create(Q, f)
        report = run_analysis(scaled)
        assert (report.jacobian.line is None) == skips, den
        assert report.to_json() == _expanded(scaled, monkeypatch).to_json()


def _line_report(field):
    inp = _random_map(field, 2, 3, "dense", 2)
    jr = jacobian_report(inp)
    assert jr.line is not None
    return inp, jr


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_line_euler_syzygy_checks_eulers_relation(field):
    inp, jr = _line_report(field)
    es = line_euler_syzygy(inp, jr)
    assert (es.delta, es.a_degrees, es.a) == (6, (6, 6, 6, 6), None)
    # A wrong entry of J breaks d f_0 = sum_j X_j df_0/dX_j; the U_i, and
    # so the identity on the line, still hold.
    jac = [list(row) for row in jr.jac]
    jac[0][0] = jac[0][0] + MvPoly(field, 3, {(0, 2, 0): 1})
    bad = JacobianReport(jac, jr.F, jr.i_top_nonzero, jr.minor_nonzero,
                         line=jr.line)
    with pytest.raises(FDoesNotDivideMinor, match="Euler's relation"):
        line_euler_syzygy(inp, bad)


@pytest.mark.parametrize("field", FIELDS, ids=["Fp", "Q"])
def test_line_euler_syzygy_checks_the_identity_on_the_line(field):
    inp, jr = _line_report(field)
    line, u = jr.line
    q = line.field.char
    bad = JacobianReport(jr.jac, jr.F, jr.i_top_nonzero, jr.minor_nonzero,
                         line=(line, [[2 * c % q for c in u[0]]] + u[1:]))
    with pytest.raises(FDoesNotDivideMinor, match="on the line"):
        line_euler_syzygy(inp, bad)
