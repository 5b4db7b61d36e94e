"""Line-oriented map files describing a rational map.

Format::

    # comment
    field p=2147483647        (or: field rational; defaults to the prime above)
    vars X0 X1 X2
    f0 X1^2*X2^4 - X1^4*X2^2
    f1 X0^4*X2^2 - X2^6
    ...

Polynomial expressions use +, -, *, ^, integer literals, the declared
variable names, and parentheses.  Multiplication is always explicit, and
over Q a power of one term may have at most POWER_BITS bits.  No form, and
no power or product of two multi-term factors inside one, may have a degree
above MAX_DEGREE; each is checked before it is expanded.  The
labels f0..fn must form a complete range, and no label, `field` or `vars`
line may repeat.  Parsing validates the map: homogeneous forms of one
common degree d, gcd(f_0,...,f_n) = 1, and p not dividing d.
"""

from __future__ import annotations

import math
from operator import add

from .errors import ParseError
from .fields import DEFAULT_PRIME, PrimeField, RationalField
from .jacobian import RationalMapInput
from .poly import MvPoly

_OPS = set("+-*^()")
# Over Q a power of one term, such as 12^345678901, is computed exactly; one
# with more bits than this is a parse error instead of a computation that
# does not end.
POWER_BITS = 1 << 16
# The ceiling on the common degree d.  Without one, f0 (X+Y)^100000000 would
# not finish parsing, nor X^100000000 analysing.  `analyze` on a seeded dense
# map P^2 --> P^3 took 5 s at degree 24, 18 s at 32 and 112 s at 40
# (CPython 3.11, shared 2-vCPU x86 host).
MAX_DEGREE = 32


def _degree(terms: dict) -> int:
    """The largest total degree of a term map's exponents (zeros included)."""
    return max(map(sum, terms), default=0)


def _tokenize(text: str, lineno: int, col0: int):
    """Tokens as (kind, value, col); kinds: int, name, op, end."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col0 + i
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), col))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal is too long", lineno, col) from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], col))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    tokens.append(("end", None, col0 + len(text)))
    return tokens


class _ExprParser:
    """Recursive descent over the tokens of one expression.  Its values are
    term maps {exponent tuple: int}, unreduced and possibly holding zeros:
    sums accumulate in place, a product with a one-term factor shifts and
    scales the other factor, and only a product of two multi-term factors,
    or a power of one, goes through MvPoly.  `parse_polynomial` builds the
    MvPoly, whose constructor reduces and drops zeros, once per form."""

    def __init__(self, tokens, lineno, field, varindex, nvars):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.field = field
        self.varindex = varindex
        self.nvars = nvars
        self.units = [tuple(int(i == j) for i in range(nvars))
                      for j in range(nvars)]

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def bound(self, degree, what, col):
        """Refuse a `what` of a degree above MAX_DEGREE, at column col (or
        on the whole line when col is None)."""
        if degree > MAX_DEGREE:
            raise ParseError(f"{what} has degree above {MAX_DEGREE}",
                             self.lineno, col)

    def fail(self, message):
        kind, _, col = self.peek()
        raise ParseError(message, self.lineno, col)

    def parse(self) -> dict:
        terms = self.expr()
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")
        return terms

    def expr(self) -> dict:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
        acc = self.term()
        if (kind, val) == ("op", "-"):
            acc = {e: -c for e, c in acc.items()}
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
                for e, c in self.term().items():
                    acc[e] = acc.get(e, 0) + sign * c
            else:
                return acc

    def term(self) -> dict:
        acc = self.factor()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = self.product(acc, self.factor(), col)
            else:
                return acc

    def product(self, a: dict, b: dict, col: int) -> dict:
        if len(a) == 1:
            a, b = b, a
        if len(b) != 1:
            self.bound(_degree(a) + _degree(b), "product", col)
            return (MvPoly(self.field, self.nvars, a)
                    * MvPoly(self.field, self.nvars, b)).terms
        (eb, cb), = b.items()
        return {tuple(map(add, e, eb)): c * cb for e, c in a.items()}

    def factor(self) -> dict:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, col = self.peek()
            if kind != "int":
                self.fail("exponent must be an integer literal")
            self.take()
            if len(base) != 1:
                self.bound(val * _degree(base), "power", col)
                return (MvPoly(self.field, self.nvars, base) ** val).terms
            (e, c), = base.items()
            self.bound(val * sum(e), "power", col)
            p = self.field.char
            if p:
                c = pow(c, val, p)
            else:
                # |c|^val has at least (bitlen |c| - 1) val + 1 bits, so a
                # power under that bound has at most 2 POWER_BITS bits.
                c = (c ** val if abs(c) < 2
                     or (abs(c).bit_length() - 1) * val < POWER_BITS else None)
                if c is None or c.bit_length() > POWER_BITS:
                    raise ParseError(f"power has more than {POWER_BITS} bits",
                                     self.lineno, col)
            return {tuple(k * val for k in e): c}
        return base

    def primary(self) -> dict:
        kind, val, col = self.peek()
        if kind == "int":
            self.take()
            return {(0,) * self.nvars: val}
        if kind == "name":
            self.take()
            if val not in self.varindex:
                raise ParseError(f"undeclared variable {val!r}", self.lineno, col)
            return {self.units[self.varindex[val]]: 1}
        if kind == "op" and val == "(":
            self.take()
            inner = self.expr()
            kind, val, _ = self.peek()
            if not (kind == "op" and val == ")"):
                self.fail("expected ')'")
            self.take()
            return inner
        self.fail("expected a number, variable, or '('")


def parse_polynomial(text: str, field, varnames, lineno: int = 1,
                     col0: int = 1) -> MvPoly:
    varindex = {name: i for i, name in enumerate(varnames)}
    tokens = _tokenize(text, lineno, col0)
    parser = _ExprParser(tokens, lineno, field, varindex, len(varnames))
    try:
        poly = MvPoly(field, len(varnames), parser.parse())
    except RecursionError:
        raise ParseError("parentheses nested too deeply", lineno) from None
    parser.bound(poly.total_degree(), "form", None)
    return poly


def parse_map_file(text: str) -> RationalMapInput:
    """Parse and validate a map file into a RationalMapInput."""
    field = None
    varnames = None
    flines: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        parts = stripped.split(None, 1)
        head = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        rest_col = indent + len(head) + 2 if len(parts) > 1 else indent + len(head) + 1
        if head == "field":
            if field is not None:
                raise ParseError("second 'field' line", lineno)
            key, eq, modulus = (part.strip() for part in rest.partition("="))
            if rest == "rational":
                field = RationalField()
            elif key == "p" and eq:
                # Decimal digits only, as in integer literals and labels.
                if not modulus.isdecimal():
                    raise ParseError("field modulus must be an integer", lineno)
                try:
                    p = int(modulus)
                except ValueError:  # more digits than int() converts
                    raise ParseError("field modulus is too long", lineno) from None
                try:
                    field = PrimeField(p)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno)
            else:
                raise ParseError("field spec must be 'p=<prime>' or 'rational'",
                                 lineno)
        elif head == "vars":
            if varnames is not None:
                raise ParseError("second 'vars' line", lineno)
            varnames = tuple(rest.split())
            if not varnames:
                raise ParseError("vars line declares no variables", lineno)
            if len(set(varnames)) != len(varnames):
                raise ParseError("duplicate variable name", lineno)
            # An expression can reference only a name that is one whole token.
            tokens = _tokenize(rest, lineno, rest_col)
            for (kind, value, col), name in zip(tokens, varnames):
                if (kind, value) != ("name", name):
                    raise ParseError(f"invalid variable name {name!r}", lineno, col)
        elif head.startswith("f") and head[1:].isdecimal():
            try:
                idx = int(head[1:])
            except ValueError:  # more digits than int() converts
                raise ParseError("label number is too long", lineno) from None
            if idx in flines:
                raise ParseError(f"duplicate label {head}", lineno)
            flines[idx] = (rest, lineno, rest_col)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    if varnames is None:
        raise ParseError("missing 'vars' line")
    if not flines:
        raise ParseError("no polynomial lines f0..fn")
    n = len(flines) - 1  # distinct labels are f0..fn iff none below is missing
    missing = [i for i in range(n + 1) if i not in flines]
    if missing:
        raise ParseError(f"missing labels: {', '.join('f%d' % i for i in missing)}")
    polys = []
    for i in range(n + 1):
        expr, lineno, col0 = flines[i]
        polys.append(parse_polynomial(expr, field, varnames, lineno, col0))
    return RationalMapInput.create(field, polys, varnames)


def print_map_file(inp: RationalMapInput) -> str:
    """Render an input back to map-file text.

    Over F_p the text reparses to an equal input.  Over Q, where literals
    are integers, every form is multiplied by the lcm of all coefficient
    denominators: one common scalar, so the text defines the same map.
    """
    forms = inp.f
    if inp.field.char:
        lines = [f"field p={inp.field.char}"]
    else:
        lines = ["field rational"]
        den = math.lcm(*(c.denominator for fi in forms
                         for c in fi.terms.values()))
        forms = [fi.scale(den) for fi in forms]
    lines.append("vars " + " ".join(inp.varnames))
    for i, fi in enumerate(forms):
        lines.append(f"f{i} {fi.to_str(inp.varnames)}")
    return "\n".join(lines) + "\n"
