"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a mapping from exponent tuples (one entry per variable) to
nonzero field elements; the zero polynomial has an empty term map.  A
coefficient is an int in [0, p) over F_p; over the rationals (p = field.char
= 0) it is an int when it is integral and a Fraction otherwise.  The
constructor is the one place that reduces mod p, puts a rational in that
form and drops zeros, so the operations accumulate plain, unreduced
`+ - *` results and hand them to it.  Values are immutable after
construction and every operation returns a new object, so polynomials can
be shared freely between workers.

The canonical term order everywhere is graded lexicographic: compare total
degree first, then the exponent tuple lexicographically.

A product runs a dict loop over the term pairs, except that two forms with
enough pairs, over F_p or with int coefficients over Q, are
Kronecker-packed (von zur Gathen & Gerhard 8.4; Harvey 2009): X0 is
dropped, the other exponents pick a slot of whole bytes in one int per
operand, one int product forms every pair, and the product's slots are read
back at the monomials of its degree.  A slot is wide enough for the sum it
can receive, so no slot carries into the next.  Over F_p both paths hand
the constructor the same unreduced sums; over Q the packed product runs
modulo an odd n above twice every coefficient's size, and lifting each slot
into (-n/2, n/2] gives the coefficient itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Sequence

from .errors import ArityMismatch, NotDivisible
from .univariate import u_mul, u_reduce


def grlex_key(exps: tuple) -> tuple:
    """Sort key realising graded-lex order (a strict total order on monomials)."""
    return (sum(exps), exps)


def monomials_of_degree(nvars: int, deg: int) -> list:
    """All exponent tuples of the given total degree, graded-lex descending:
    within one degree that is lex order, which the recursion emits."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), deg, nvars)
    return out


def unpack_slots(x: int, width: int, offsets) -> list:
    """The width-byte little-endian slots of x that start at the given byte
    offsets; a slot above the top byte of x reads 0."""
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return [int.from_bytes(raw[o:o + width], "little") for o in offsets]


# Least number of term pairs for a Kronecker-packed product.  On random dense
# forms in 2, 3 and 4 variables over F_(2^31-1) (CPython 3.11, shared 2-vCPU
# x86 host, best of 15) the dict loop is faster below about 30 pairs and the
# packed product from about 60 pairs on: 0.65-0.73x at 54-64 pairs, 0.35-0.5x
# at 150-700, 0.11x at 55 x 190 terms.  Integral forms over Q take the same
# gate, not measured apart: on the maps' small coefficients their modulus
# 2B + 1 is far below 2^31 - 1, so their slots are narrower still.
KRONECKER_PAIRS = 64


def _packs(a: "MvPoly", b: "MvPoly") -> bool:
    """Is a * b Kronecker-packed?  It takes two forms, over F_p or with only
    int coefficients over Q, with at least KRONECKER_PAIRS term pairs (so at
    least 2 variables: a form in one is a single term) and no fewer pairs
    than the packed product has slots: sparse forms of high degree pack into
    mostly empty slots, and there the dict loop was 3-40x faster."""
    pairs = len(a.terms) * len(b.terms)
    if pairs < KRONECKER_PAIRS \
            or not (a.is_homogeneous() and b.is_homogeneous()):
        return False
    if not a.field.char and not all(type(c) is int for t in (a.terms, b.terms)
                                    for c in t.values()):
        return False
    deg = a.total_degree() + b.total_degree()
    return pairs > deg * (deg + 1) ** (a.nvars - 2)


def _dict_mul(a: dict, b: dict) -> dict:
    """Unreduced terms of a product, one dict update per term pair."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
    return out


def _kronecker_mul(p: int, a: dict, b: dict) -> dict:
    """Unreduced terms of the product of two nonzero forms modulo p, given
    by their term maps with coefficients in [0, p), from one int product.

    X0 is dropped and (e_1..e_{n-1}) goes to slot sum e_j D^(j-1) with
    D = deg a + deg b + 1, which no exponent of the product reaches, so
    distinct product monomials get distinct slots.  A slot receives at most
    m = min(#a, #b) products, each at most (p-1)^2 < 2^(2 bitlen p), so it
    stays below 2^(2 bitlen p + bitlen m) and, that many bits rounded up to
    whole bytes wide, never carries into the next one."""
    width = (2 * p.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    ea, eb = next(iter(a)), next(iter(b))
    weights, exps, offsets = _kronecker_layout(len(ea), sum(ea) + sum(eb),
                                               width)

    def pack(terms: dict) -> int:
        at = [sum(map(mul, e, weights)) for e in terms]
        buf = bytearray(max(at) + width)
        for o, c in zip(at, terms.values()):
            buf[o:o + width] = c.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    return dict(zip(exps, unpack_slots(pack(a) * pack(b), width, offsets)))


def _integer_mul(a: dict, b: dict) -> dict:
    """Terms of the product of two nonzero forms with int coefficients, by
    `_kronecker_mul` modulo n = 2B + 1.  B = min(#a, #b) max|a| max|b|
    bounds every coefficient of the product, so the residue of one lifted
    into (-n/2, n/2] = [-B, B] is the coefficient itself."""
    bound = (min(len(a), len(b)) * max(map(abs, a.values()))
             * max(map(abs, b.values())))
    n = 2 * bound + 1
    out = _kronecker_mul(n, {e: c % n for e, c in a.items()},
                         {e: c % n for e, c in b.items()})
    return {e: r if (r := s % n) <= bound else r - n for e, s in out.items()}


@lru_cache(maxsize=64)
def _kronecker_layout(nvars: int, deg: int, width: int) -> tuple:
    """(byte offset per unit of each exponent, the monomials of degree deg,
    their byte offsets) for products of degree deg packed width bytes a slot:
    every product of one degree shares them."""
    weights = (0,) + tuple(width * (deg + 1) ** j for j in range(nvars - 1))
    exps = tuple(monomials_of_degree(nvars, deg))
    return weights, exps, tuple(sum(map(mul, e, weights)) for e in exps)


class MvPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        p = field.char
        if not terms:
            self.terms = {}
        elif p:
            self.terms = {e: r for e, c in terms.items() if (r := c % p)}
        else:
            self.terms = {e: c if type(c) is int or c.denominator != 1
                          else c.numerator for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars: int) -> "MvPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, c) -> "MvPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, field, nvars: int) -> "MvPoly":
        return cls.constant(field, nvars, 1)

    @classmethod
    def variable(cls, field, nvars: int, j: int) -> "MvPoly":
        if not 0 <= j < nvars:
            raise IndexError(f"variable index {j} out of range for {nvars} variables")
        e = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(field, nvars, {e: 1})

    @classmethod
    def from_int_terms(cls, field, nvars: int, int_terms: dict) -> "MvPoly":
        """Build from {exponent tuple: integer coefficient}."""
        return cls(field, nvars, int_terms)

    # -- predicates and degrees --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def degree_in(self, j: int) -> int:
        if not self.terms:
            return -1
        return max(e[j] for e in self.terms)

    def variables_present(self) -> list[int]:
        seen = [False] * self.nvars
        for e in self.terms:
            for j, k in enumerate(e):
                if k:
                    seen[j] = True
        return [j for j, s in enumerate(seen) if s]

    def min_exponents(self) -> tuple:
        """Componentwise minimum exponent vector (the monomial content)."""
        if not self.terms:
            return (0,) * self.nvars
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "MvPoly") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")
        if self.field != other.field:
            raise ValueError("operands belong to different coefficient fields")

    def _is_scalar(self, other) -> bool:
        """Is other a scalar of the field: an int, or over Q a Fraction?"""
        return isinstance(other, int) or (isinstance(other, Fraction)
                                          and not self.field.char)

    def __add__(self, other):
        if not isinstance(other, MvPoly):
            if not self._is_scalar(other):
                return NotImplemented
            other = MvPoly.constant(self.field, self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            # A first term is stored as it is: 0 + c would cost a new Fraction.
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return MvPoly(self.field, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MvPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not (isinstance(other, MvPoly) or self._is_scalar(other)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MvPoly):
            if not self._is_scalar(other):
                return NotImplemented
            return self.scale(other)
        self._check(other)
        if _packs(self, other):
            p = self.field.char
            out = (_kronecker_mul(p, self.terms, other.terms) if p
                   else _integer_mul(self.terms, other.terms))
        else:
            out = _dict_mul(self.terms, other.terms)
        return MvPoly(self.field, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        result = MvPoly.one(self.field, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "MvPoly":
        return MvPoly(self.field, self.nvars, {e: v * c for e, v in self.terms.items()})

    def shift(self, exps: Sequence[int]) -> "MvPoly":
        """Multiply by the monomial with the given exponent vector."""
        return MvPoly(self.field, self.nvars,
                      {tuple(a + b for a, b in zip(e, exps)): c
                       for e, c in self.terms.items()})

    # -- leading data and normalisation --------------------------------------

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def monic(self) -> "MvPoly":
        """Normalise so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    def sorted_terms(self) -> list:
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- division -------------------------------------------------------------

    def exact_div(self, b: "MvPoly") -> "MvPoly":
        """Quotient self / b when the division is exact; NotDivisible otherwise.

        Divides in lex order, plain tuple comparison: an exact quotient is
        unique, and division under any monomial order, lex included, finds it.
        """
        self._check(b)
        if b.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        p = F.char
        lb = max(b.terms)
        inv = F.inv(b.terms[lb])
        if not any(lb):
            # (0, ..., 0) is the least tuple, so b is a constant.
            return self.scale(inv)
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            lr = max(rem)
            qe = tuple(a - c for a, c in zip(lr, lb))
            if any(x < 0 for x in qe):
                raise NotDivisible("leading monomial not divisible")
            qc = rem[lr] * inv % p if p else rem[lr] * inv
            quo[qe] = qc
            # rem -= qc * X^qe * b; zero tests need reduced values
            for e, c in b.terms.items():
                t = tuple(map(add, e, qe))
                s = rem.get(t, 0) - c * qc
                if p:
                    s %= p
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return MvPoly(F, self.nvars, quo)

    def divides(self, other: "MvPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, j: int) -> "MvPoly":
        """Formal partial derivative with respect to variable j."""
        if not 0 <= j < self.nvars:
            raise IndexError(f"variable index {j} out of range")
        # Distinct exponents stay distinct after lowering e[j], so no two
        # terms land on one monomial; a coefficient k*c = 0 mod p drops.
        return MvPoly(self.field, self.nvars,
                      {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                       for e, c in self.terms.items() if e[j]})

    def evaluate(self, point: Sequence):
        """Exact value at a point (one field element per variable): the
        constant term of the restriction to the constant line t -> point."""
        if len(point) != self.nvars:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        u = self.on_line(point, [0] * self.nvars)
        return u[0] if u else 0

    def on_line(self, a: Sequence, b: Sequence) -> list:
        """Dense coefficients (ascending in t) of self restricted to t -> a + t*b."""
        if len(a) != self.nvars or len(b) != self.nvars:
            raise ArityMismatch("line endpoints must match the variable count")
        p = self.field.char
        deg = max((sum(e) for e in self.terms), default=0)
        # powers[j][k] = dense coefficients of (a_j + t b_j)^k
        maxes = [0] * self.nvars
        for e in self.terms:
            for j, k in enumerate(e):
                if k > maxes[j]:
                    maxes[j] = k
        powers = []
        for j in range(self.nvars):
            lin = [a[j], b[j]]
            row = [[1]]
            for _ in range(maxes[j]):
                row.append(u_reduce(u_mul(row[-1], lin), p))
            powers.append(row)
        acc = [0] * (deg + 1)
        for e, c in self.terms.items():
            term = [c]
            for j, k in enumerate(e):
                if k:
                    term = u_mul(term, powers[j][k])
            for i, v in enumerate(term):
                acc[i] += v
        return u_reduce(acc, p)

    # -- comparisons and printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MvPoly) and self.nvars == other.nvars
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def to_str(self, names: Iterable[str] | None = None) -> str:
        """Render in graded-lex descending order with explicit ^ and *."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"X{i}" for i in range(self.nvars)]
        names = list(names)
        F = self.field
        pieces = []
        for e, c in self.sorted_terms():
            c = F.lift_balanced(c)
            neg = c < 0
            mag = -c if neg else c
            factors = [f"{names[j]}^{k}" if k > 1 else names[j]
                       for j, k in enumerate(e) if k]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"MvPoly({self.to_str()})"
