"""Coefficient fields: F_p for an odd machine-word prime, or exact rationals.

Field elements are plain Python values: int residues in [0, p) over F_p;
over the rationals an int when the value is integral and a Fraction
otherwise, the form `conv` and `inv` return.  Code does plain `+ - *` on
them and keys on the characteristic `char` (p, or 0 for the rationals) to
reduce mod p; the field object only describes the field: conversion,
inverses, `rand` and the balanced lift used for printing.
"""

from __future__ import annotations

from fractions import Fraction
import random

DEFAULT_PRIME = 2147483647
SECOND_PRIME = 2147483629

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen bases above.
MODULUS_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below MODULUS_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p below MODULUS_BOUND, where primality
    is decided exactly; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= MODULUS_BOUND:
            raise ValueError(f"field modulus must be below {MODULUS_BOUND}, "
                             f"got {p}")
        if p < 3 or not is_prime(p):
            raise ValueError(f"field modulus must be an odd prime, got {p}")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def conv(self, n: int) -> int:
        return n % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def lift_balanced(self, a: int) -> int:
        """Integer representative in (-p/2, p/2]."""
        a %= self.p
        return a if a <= self.p // 2 else a - self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals; an element is an int when it is integral and a
    fractions.Fraction otherwise."""

    __slots__ = ()

    @property
    def char(self) -> int:
        return 0

    def conv(self, n) -> int | Fraction:
        q = Fraction(n)
        return q.numerator if q.denominator == 1 else q

    def inv(self, a) -> int | Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.conv(1 / Fraction(a))

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def rand(self, rng: random.Random) -> int | Fraction:
        return self.conv(rng.randrange(-50, 51))

    def lift_balanced(self, a):
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"
