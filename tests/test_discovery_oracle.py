"""Discovery against every point of the target space, over small primes.

Over F_p the target P^n has finitely many points, so the records discovery
should return can be listed outright: every normalised point y (first
nonzero coordinate 1) whose fiber equation h_y is not constant.  The tests
below compare that list with `discover_fibers` at two seeds, over maps
small enough that its walk meets base points, stops on a decisive line or
on full coverage, or runs to its budget.

The oracle shares `fiber_equation` and the gcd with the code under test, so
it checks which points discovery visits and when it stops, not h_y itself
(the pinned fixture sums and the gcd tests check that).
"""

import itertools
import random

import pytest

from fiberbound import (FiberRecord, ProjectivePoint, build_jacobian,
                        discover_fibers, gcd_of_minors, minors)
from fiberbound.fields import PrimeField
from fiberbound.fixtures import (FIXTURES, make_cube_dependent, make_example2,
                                 make_family)

from conftest import _gl_copy

MAKERS = {"family_d4": lambda F: make_family(4, F),
          "family_d5": lambda F: make_family(5, F),
          "family_d6": lambda F: make_family(6, F),
          "family_d7": lambda F: make_family(7, F),
          "example2": make_example2,
          "cube_dependent": make_cube_dependent}
# Each fixture at p = 5 and 7, except where p divides d, which
# RationalMapInput.create refuses.
CASES = [(fx.name, p) for p in (5, 7) for fx in FIXTURES
         if fx.build().d % p]


def _every_record(inp):
    """(y, deg h_y, weighted degree) for every point y of P^n(F_p) with a
    nonconstant fiber equation, sorted by y."""
    p = inp.field.char
    out = []
    for k in range(inp.n + 1):
        for tail in itertools.product(range(p), repeat=inp.n - k):
            y = (0,) * k + (1,) + tail
            rec = FiberRecord.at(inp, ProjectivePoint(y))
            if rec.deg_h:
                out.append((y, rec.deg_h, rec.weighted_deg))
    return sorted(out)


def _assert_discovery_finds_every_record(inp):
    F = gcd_of_minors(minors(build_jacobian(inp), 3))
    expected = _every_record(inp)
    for seed in (1, 42):
        disc = discover_fibers(inp, F, seed=seed)
        assert [(r.y.coords, r.deg_h, r.weighted_deg)
                for r in disc.records] == expected, seed


@pytest.mark.parametrize("name,p", CASES)
def test_discovery_finds_every_record_of_a_fixture(name, p):
    _assert_discovery_finds_every_record(MAKERS[name](PrimeField(p)))


def test_discovery_finds_every_record_of_a_gl_copy():
    inp = _gl_copy(make_family(4, PrimeField(11)),
                   random.Random("oracle:family_d4"))
    _assert_discovery_finds_every_record(inp)
