"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a mapping from exponent tuples (one entry per variable) to
nonzero field elements; the zero polynomial has an empty term map.  Values
are immutable after construction and every operation returns a new object,
so polynomials can be shared freely between workers.

The canonical term order everywhere is graded lexicographic: compare total
degree first, then the exponent tuple lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ArityMismatch, NotDivisible
from .univariate import u_mul, u_reduce


def grlex_key(exps: tuple) -> tuple:
    """Sort key realising graded-lex order (a strict total order on monomials)."""
    return (sum(exps), exps)


class MvPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        if terms is None:
            terms = {}
        # Never store explicit zeros.
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars: int) -> "MvPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars: int, c) -> "MvPoly":
        return cls(field, nvars, {(0,) * nvars: field.conv(c)})

    @classmethod
    def one(cls, field, nvars: int) -> "MvPoly":
        return cls.constant(field, nvars, 1)

    @classmethod
    def variable(cls, field, nvars: int, j: int) -> "MvPoly":
        if not 0 <= j < nvars:
            raise IndexError(f"variable index {j} out of range for {nvars} variables")
        e = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(field, nvars, {e: field.one})

    @classmethod
    def from_int_terms(cls, field, nvars: int, int_terms: dict) -> "MvPoly":
        """Build from {exponent tuple: integer coefficient}."""
        return cls(field, nvars, {e: field.conv(c) for e, c in int_terms.items()})

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

    def __add__(self, other):
        if isinstance(other, int):
            other = MvPoly.constant(self.field, self.nvars, other)
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MvPoly(F, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return MvPoly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MvPoly.constant(self.field, self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.conv(other))
        self._check(other)
        F = self.field
        out: dict = {}
        mul, add, is_zero = F.mul, F.add, F.is_zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(lambda a, b: a + b, e1, e2))
                s = add(out.get(e, 0), mul(c1, c2)) if e in out else mul(c1, c2)
                if is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MvPoly(F, self.nvars, out)

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
        F = self.field
        if F.is_zero(c):
            return MvPoly.zero(F, self.nvars)
        return MvPoly(F, self.nvars, {e: F.mul(v, c) for e, v in self.terms.items()})

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
        """Quotient self / b when the division is exact; NotDivisible otherwise."""
        self._check(b)
        if b.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        if self.is_zero():
            return self
        lb = b.leading_monomial()
        lbc = b.leading_coefficient()
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            lr = max(rem, key=grlex_key)
            qe = tuple(a - c for a, c in zip(lr, lb))
            if any(x < 0 for x in qe):
                raise NotDivisible("leading monomial not divisible")
            qc = F.div(rem[lr], lbc)
            quo[qe] = qc
            # rem -= qc * X^qe * b
            for e, c in b.terms.items():
                t = tuple(a + c2 for a, c2 in zip(e, qe))
                s = F.sub(rem.get(t, F.zero), F.mul(c, qc))
                if F.is_zero(s):
                    rem.pop(t, None)
                else:
                    rem[t] = s
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
        F = self.field
        out: dict = {}
        for e, c in self.terms.items():
            k = e[j]
            if k == 0:
                continue
            nc = F.mul(c, F.conv(k))
            if F.is_zero(nc):
                continue
            ne = e[:j] + (k - 1,) + e[j + 1:]
            prev = out.get(ne)
            out[ne] = nc if prev is None else F.add(prev, nc)
        return MvPoly(F, self.nvars, out)

    def evaluate(self, point: Sequence):
        """Exact value at a point (one field element per variable)."""
        if len(point) != self.nvars:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        F = self.field
        # Precompute the needed powers of each coordinate.
        maxes = [0] * self.nvars
        for e in self.terms:
            for j, k in enumerate(e):
                if k > maxes[j]:
                    maxes[j] = k
        powers = []
        for j in range(self.nvars):
            row = [F.one]
            for _ in range(maxes[j]):
                row.append(F.mul(row[-1], point[j]))
            powers.append(row)
        acc = F.zero
        for e, c in self.terms.items():
            v = c
            for j, k in enumerate(e):
                if k:
                    v = F.mul(v, powers[j][k])
            acc = F.add(acc, v)
        return acc

    def on_line(self, a: Sequence, b: Sequence) -> list:
        """Dense coefficients (ascending in t) of self restricted to t -> a + t*b."""
        if len(a) != self.nvars or len(b) != self.nvars:
            raise ArityMismatch("line endpoints must match the variable count")
        F = self.field
        p = F.char
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
            row = [[F.one]]
            for _ in range(maxes[j]):
                row.append(u_reduce(u_mul(row[-1], lin), p))
            powers.append(row)
        acc = [F.zero] * (deg + 1)
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
            neg = (isinstance(c, (int, Fraction)) and c < 0)
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
