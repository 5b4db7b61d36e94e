"""Built-in regression fixtures with pinned expected values.

These drive the selftest command: the degree-d family of surface maps with
a known F of degree 2(d-1), the degree-6 map with deg F = 11 and fiber
degree sum 8, and the linearly dependent cube map where deg F hits the
outer bound 3(d-1).
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import DEFAULT_PRIME, PrimeField
from .jacobian import RationalMapInput
from .poly import MvPoly


def _xyz(field):
    return (MvPoly.variable(field, 3, 0),
            MvPoly.variable(field, 3, 1),
            MvPoly.variable(field, 3, 2))


def make_family(d: int, field=None) -> RationalMapInput:
    """Surface map family, d >= 4: deg F = 2(d-1), fiber degree sum d+2."""
    if d < 4:
        raise ValueError("family needs d >= 4")
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    x0, x1, x2 = _xyz(field)
    f0 = x0 ** (d - 3) * x1 * (x0 ** 2 - x1 ** 2)
    f1 = x0 ** (d - 3) * x2 * (x0 ** 2 - x1 ** 2)
    f2 = x0 ** (d - 3) * x2 * (x1 ** 2 - x2 ** 2)
    f3 = x1 ** (d - 3) * x2 * (x1 ** 2 - x2 ** 2)
    return RationalMapInput.create(field, [f0, f1, f2, f3])


def make_example2(field=None) -> RationalMapInput:
    """Degree-6 surface map with F = X0 X1^3 X2 (X0^4 - X2^4)(X1^2 - X2^2)."""
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    x0, x1, x2 = _xyz(field)
    f0 = x1 ** 2 * x2 ** 4 - x1 ** 4 * x2 ** 2
    f1 = x0 ** 4 * x2 ** 2 - x2 ** 6
    f2 = x0 ** 2 * x1 ** 2 * x2 ** 2 - x0 ** 2 * x1 ** 4
    f3 = x0 ** 4 * x1 ** 2 - x1 ** 2 * x2 ** 4
    return RationalMapInput.create(field, [f0, f1, f2, f3])


def make_cube_dependent(field=None) -> RationalMapInput:
    """Linearly dependent cubes: deg F = 6 = 3(d-1), constant syzygy."""
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    x0, x1, x2 = _xyz(field)
    return RationalMapInput.create(field, [x0 ** 3, x1 ** 3, x2 ** 3,
                                           x0 ** 3 + x1 ** 3])


class Fixture(NamedTuple):
    name: str
    build: object            # () -> RationalMapInput
    deg_f: int
    sum_deg: int
    sum_weighted: int
    indeg: int
    dependent: bool = False


FIXTURES = (
    Fixture("family_d4", lambda: make_family(4), deg_f=6, sum_deg=6,
            sum_weighted=6, indeg=1),
    Fixture("family_d5", lambda: make_family(5), deg_f=8, sum_deg=7,
            sum_weighted=8, indeg=1),
    Fixture("family_d6", lambda: make_family(6), deg_f=10, sum_deg=8,
            sum_weighted=10, indeg=1),
    Fixture("family_d7", lambda: make_family(7), deg_f=12, sum_deg=9,
            sum_weighted=12, indeg=1),
    Fixture("example2", make_example2, deg_f=11, sum_deg=8,
            sum_weighted=9, indeg=2),
    Fixture("cube_dependent", make_cube_dependent, deg_f=6, sum_deg=0,
            sum_weighted=0, indeg=0, dependent=True),
)
