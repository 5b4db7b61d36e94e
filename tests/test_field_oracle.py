"""F_p against Q: one integer map, analysed over both fields, must agree.

Each map is written once as map-file text with integer coefficients and
`field rational`; its F_p copy is that text with the `field` line set to
`field p=P`, as README tells users to do.  `run_analysis` runs on both,
and the reports must agree on `degF`, `indegSyz`, `dependent`,
`eulerSyzygy`, `i3Nonzero`, `iTopNonzero`, `minorCount` and
`nonzeroMinorCount`, and on `F` and `relation` once the Q coefficients are
reduced mod p.  Both of those are canonical: `F` is monic and `relation`
is a row of the reduced echelon form.  The maps are the six fixtures, each
fixture under one seeded change of coordinates on both sides with integer
entries in [-2, 2], and seeded random maps with coefficients in [-5, 5];
the primes are pinned, and a prime that divides d is skipped.

Agreement does not prove either side right.  Both share the parser and
`jacobian.minors`, and a prime can be unlucky for a map (the last test
pins one such case, where the fields rightly differ).  What the two sides
do not share is their arithmetic: `Fraction`s against ints mod p, the
integer product `_integer_mul` against `_kronecker_mul` mod p, and Brown's
gcd at integer points against points of F_p.  A fault on the Q path alone,
such as a `Fraction` operand that integer-only code cannot take, makes the
reports differ here.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from fiberbound import (MvPoly, RationalField, RationalMapInput,
                        parse_map_file, print_map_file)
from fiberbound.analysis import run_analysis
from fiberbound.linalg import rank
from fiberbound.syzygy import monomials_of_degree

from conftest import _source_change

MAPS = pathlib.Path(__file__).resolve().parent.parent / "maps"
FIXTURES = sorted(p.stem for p in MAPS.glob("*.map"))
PRIMES = (2147483647, 1000003, 65521)
KEYS = ("degF", "indegSyz", "dependent", "eulerSyzygy", "i3Nonzero",
        "iTopNonzero", "minorCount", "nonzeroMinorCount")
RANDOM = [(m, d, kind) for m, ds in ((2, (2, 3, 4, 5)), (3, (2, 3)))
          for d in ds for kind in ("sparse", "dense")]


def _with_field(text: str, field: str) -> str:
    return "".join(f"field {field}\n" if ln.startswith("field") else ln
                   for ln in text.splitlines(True))


def _small_gl(size: int, rng) -> list:
    while True:
        A = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if rank(RationalField(), A) == size:
            return A


def _gl_text(name: str) -> str:
    """B f(A X) over Q for a fixture, with A and B seeded by its name."""
    inp = parse_map_file(_with_field((MAPS / f"{name}.map").read_text(),
                                     "rational"))
    rng = random.Random(f"gl:{name}")
    subst = _source_change(inp, _small_gl(inp.nvars, rng))
    g = [sum((fj.scale(c) for fj, c in zip(subst, row)),
             MvPoly.zero(inp.field, inp.nvars))
         for row in _small_gl(len(inp.f), rng)]
    return print_map_file(RationalMapInput.create(inp.field, g, inp.varnames))


def _random_text(m: int, d: int, kind: str) -> str:
    """A seeded map P^m --> P^(m+1) of degree d; sparse forms have three
    terms, dense ones a coefficient at every monomial."""
    rng = random.Random(f"random:{m}:{d}:{kind}")
    names = [f"X{j}" for j in range(m + 1)]
    monos = list(monomials_of_degree(m + 1, d))
    forms = []
    for _ in range(m + 2):
        picked = rng.sample(monos, 3) if kind == "sparse" else monos
        forms.append(" + ".join(
            f"({rng.randint(-5, 5)})" + "".join(
                f"*{x}^{k}" for x, k in zip(names, e) if k)
            for e in picked))
    text = ("field rational\nvars " + " ".join(names) + "\n"
            + "".join(f"f{i} {f}\n" for i, f in enumerate(forms)))
    return print_map_file(parse_map_file(text))


def _case_text(case) -> str:
    kind, *args = case
    if kind == "fixture":
        return _with_field((MAPS / f"{args[0]}.map").read_text(), "rational")
    if kind == "gl":
        return _gl_text(args[0])
    return _random_text(*args)


def _mod(c, p: int) -> int:
    q = Fraction(c)
    return q.numerator * pow(q.denominator, -1, p) % p


CASES = ([("fixture", n) for n in FIXTURES] + [("gl", n) for n in FIXTURES]
         + [("random",) + r for r in RANDOM])


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c))
                                             for c in CASES])
def test_fp_report_agrees_with_q_report(case):
    text = _case_text(case)
    q = run_analysis(parse_map_file(text))
    dq = q.to_json_dict()
    primes = [p for p in PRIMES if q.inp.d % p]
    assert primes
    for p in primes:
        fp = run_analysis(parse_map_file(_with_field(text, f"p={p}")))
        dp = fp.to_json_dict()
        assert {k: dp[k] for k in KEYS} == {k: dq[k] for k in KEYS}, p
        Fq, Fp = q.jacobian.F, fp.jacobian.F
        assert (Fp is None) == (Fq is None), p
        if Fq is not None:
            assert Fp.terms == {e: _mod(c, p) for e, c in Fq.terms.items()}, p
        if q.relation is not None:
            assert fp.relation == tuple(_mod(c, p) for c in q.relation), p


def test_f7_is_unlucky_where_q_and_a_word_prime_agree():
    # deg F = 1 over F_7 (F = X1 - X2); the same integers over Q and over
    # F_2147483647 give F = 1, and the Euler syzygy's degree moves with F.
    text = ("field rational\nvars X0 X1 X2\n"
            "f0 -3*X0^2 - 2*X0*X1 + 2*X0*X2\n"
            "f1 -3*X2^2\n"
            "f2 -2*X1^2 - 3*X1*X2 - X2^2\n"
            "f3 -2*X0*X2 - 3*X1*X2 + X2^2\n")
    got = {}
    for field in ("rational", "p=7", "p=2147483647"):
        d = run_analysis(parse_map_file(_with_field(text, field))).to_json_dict()
        got[field] = (d["degF"], d["F"], d["eulerSyzygy"]["delta"])
    assert got == {"rational": (0, "1", 3), "p=7": (1, "X1 - X2", 2),
                   "p=2147483647": (0, "1", 3)}
