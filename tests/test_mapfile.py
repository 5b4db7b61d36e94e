"""Map-file grammar, validation diagnostics, and the print/parse round trip."""

import time
from fractions import Fraction

import pytest

from fiberbound import (CharDividesDegree, CommonFactor, MixedDegrees,
                        NotHomogeneous, ParseError, parse_map_file,
                        parse_polynomial, print_map_file)
from fiberbound.fields import (DEFAULT_PRIME, PrimeField, RationalField,
                               is_prime)
from fiberbound.jacobian import RationalMapInput, jacobian_report
from fiberbound.mapfile import POWER_BITS

EXAMPLE2 = """\
# the degree-6 fixture
field p=2147483647
vars X0 X1 X2
f0 X1^2*X2^4 - X1^4*X2^2
f1 X0^4*X2^2 - X2^6
f2 X0^2*X1^2*X2^2 - X0^2*X1^4
f3 X0^4*X1^2 - X1^2*X2^4
"""


def test_parse_example2_text():
    inp = parse_map_file(EXAMPLE2)
    assert (inp.m, inp.n, inp.d) == (2, 3, 6)
    assert isinstance(inp.field, PrimeField) and inp.field.p == 2147483647
    assert inp.varnames == ("X0", "X1", "X2")


def test_default_field_when_missing():
    text = "vars X Y\nf0 X^2\nf1 Y^2\nf2 X*Y\n"
    inp = parse_map_file(text)
    assert isinstance(inp.field, PrimeField) and inp.field.p == 2147483647
    assert inp.varnames == ("X", "Y")


def test_rational_field_mode():
    text = "field rational\nvars X Y\nf0 X^2\nf1 Y^2\nf2 X*Y\n"
    inp = parse_map_file(text)
    assert isinstance(inp.field, RationalField)


def test_trailing_operator_position():
    text = "vars X0 X1\nf0 X0^2 +\nf1 X1^2\n"
    with pytest.raises(ParseError) as exc:
        parse_map_file(text)
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_undeclared_variable():
    text = "vars X0 X1\nf0 X0*Z9\nf1 X1^2\n"
    with pytest.raises(ParseError) as exc:
        parse_map_file(text)
    assert "Z9" in str(exc.value)


def test_missing_label_detected():
    text = "vars X0 X1\nf0 X0^2\nf2 X1^2\n"
    with pytest.raises(ParseError) as exc:
        parse_map_file(text)
    assert "f1" in str(exc.value)


def test_common_factor_reported():
    text = "vars X0 X1\nf0 X0^2\nf1 X0*X1\n"
    with pytest.raises(CommonFactor) as exc:
        parse_map_file(text)
    assert str(exc.value.gcd) == "X0"
    # A single nonzero form: the factor is reported monic.
    with pytest.raises(CommonFactor) as exc:
        parse_map_file("vars X0 X1\nf0 2*X0^2\nf1 0\n")
    assert str(exc.value.gcd) == "X0^2"
    # The message names the variables of the vars line.
    with pytest.raises(CommonFactor) as exc:
        parse_map_file("vars A B C\nf0 A*B\nf1 A*C\nf2 A^2\n")
    assert str(exc.value) == "generators share the common factor A"


def test_not_homogeneous():
    text = "vars X0 X1\nf0 X0^2 + X1\nf1 X1^2\n"
    with pytest.raises(NotHomogeneous):
        parse_map_file(text)
    with pytest.raises(NotHomogeneous) as exc:
        parse_map_file("vars A B C\nf0 A*B + C\nf1 B^2\nf2 C^2\n")
    assert str(exc.value) == "form is not homogeneous: A*B + C"


def test_mixed_degrees():
    text = "vars X0 X1\nf0 X0^2\nf1 X1^3\n"
    with pytest.raises(MixedDegrees):
        parse_map_file(text)


def test_char_divides_degree():
    text = "field p=3\nvars X0 X1 X2\nf0 X0^3\nf1 X1^3\nf2 X2^3\n"
    with pytest.raises(CharDividesDegree):
        parse_map_file(text)


def test_non_prime_modulus_rejected():
    text = "field p=91\nvars X0 X1\nf0 X0\nf1 X1\n"
    with pytest.raises(ParseError):
        parse_map_file(text)
    # psi_12 fools the bases 2..37, psi_13 the bases 2..41: moduli from
    # psi_13 on are refused, since primality is no longer decided exactly.
    psi12 = 318665857834031151167461   # 399165290221 * 798330580441
    psi13 = 3317044064679887385961981
    assert not is_prime(psi12)
    for modulus in (psi12, psi13):
        with pytest.raises(ParseError) as exc:
            parse_map_file(f"field p={modulus}\nvars X0 X1\nf0 X0\nf1 X1\n")
        assert exc.value.line == 1
    assert PrimeField(2 ** 61 - 1).char == 2 ** 61 - 1


def test_round_trip_over_q_scales_by_one_integer():
    Q = RationalField()
    base = parse_map_file(EXAMPLE2.replace("field p=2147483647",
                                           "field rational"))
    f = list(base.f)
    f[0], f[2] = f[0].scale(Fraction(1, 2)), f[2].scale(Fraction(2, 3))
    inp = RationalMapInput.create(Q, f, base.varnames)
    text = print_map_file(inp)
    assert "/" not in text
    again = parse_map_file(text)
    e, c0 = next(iter(inp.f[0].terms.items()))
    c = again.f[0].terms[e] / c0
    assert c.denominator == 1
    assert again.f == tuple(fi.scale(c) for fi in inp.f)
    assert jacobian_report(again).F == jacobian_report(inp).F


def test_round_trip_on_shipped_fixtures():
    import pathlib
    maps = pathlib.Path(__file__).resolve().parent.parent / "maps"
    for path in sorted(maps.glob("*.map")):
        inp = parse_map_file(path.read_text())
        again = parse_map_file(print_map_file(inp))
        assert again == inp, path.name


def test_parse_polynomial_with_parentheses():
    F = PrimeField()
    p = parse_polynomial("(X0 - X1)*(X0 + X1)", F, ("X0", "X1"))
    q = parse_polynomial("X0^2 - X1^2", F, ("X0", "X1"))
    assert p == q


def test_parse_negative_leading_sign():
    F = PrimeField()
    p = parse_polynomial("-X0^2 + 2*X1^2", F, ("X0", "X1"))
    assert p.to_str(("X0", "X1")) == "-X0^2 + 2*X1^2"


def test_integer_literals_are_decimal_digits():
    F = PrimeField()
    # Arabic-Indic three is a decimal digit; superscript two is not.
    assert parse_polynomial("X0^٣", F, ("X0",)) == \
        parse_polynomial("X0^3", F, ("X0",))
    with pytest.raises(ParseError) as exc:
        parse_polynomial("X0^²", F, ("X0",))
    assert exc.value.col == 4


def test_overlong_integer_literal_is_a_parse_error():
    F = PrimeField()
    with pytest.raises(ParseError) as exc:
        parse_polynomial("X0 + " + "7" * 5000, F, ("X0",), lineno=3)
    assert (exc.value.line, exc.value.col) == (3, 6)


def test_deep_parentheses_are_a_parse_error():
    F = PrimeField()
    text = "(" * 400 + "X0" + ")" * 400
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, F, ("X0",), lineno=5)
    assert exc.value.line == 5 and "nested" in str(exc.value)
    # moderate nesting still parses
    assert parse_polynomial("(" * 50 + "X0" + ")" * 50, F, ("X0",)) == \
        parse_polynomial("X0", F, ("X0",))


def test_label_numbers_are_decimal_and_bounded():
    with pytest.raises(ParseError) as exc:
        parse_map_file("vars X0 X1\nf0 X0^2\nf² X1^2\n")
    assert exc.value.line == 3
    # A gap is reported below the label count, not up to the largest label.
    with pytest.raises(ParseError) as exc:
        parse_map_file("vars X0 X1\nf0 X0^2\nf2000000 X1^2\n")
    assert str(exc.value) == "missing labels: f1"
    with pytest.raises(ParseError) as exc:
        parse_map_file("vars X0 X1\nf0 X0^2\nf" + "1" * 4400 + " X1^2\n")
    assert exc.value.line == 3 and "too long" in str(exc.value)


def test_a_rational_power_over_the_bit_limit_is_a_parse_error():
    # Over Q a one-term power is computed exactly, so 12^345678901 would not
    # finish; it is refused at its exponent.  Over F_p it is a powmod.
    text = "vars X Y\nf0 X + 12^345678901*Y\nf1 Y\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_map_file("field rational\n" + text)
    assert time.perf_counter() - start < 1
    assert (exc.value.line, exc.value.col) == (3, 11)
    assert str(exc.value).startswith(f"power has more than {POWER_BITS} bits")
    assert parse_map_file(text).f[0].terms[(0, 1)] == \
        pow(12, 345678901, DEFAULT_PRIME)
    # The limit is on the value: 2^(POWER_BITS - 1) has POWER_BITS bits, and
    # 3^(2 POWER_BITS / 3) about 1.06 POWER_BITS.
    Q = RationalField()
    for expr, value in ((f"2^{POWER_BITS - 1}", 1 << POWER_BITS - 1),
                        (f"(-2)^{POWER_BITS - 1}", -1 << POWER_BITS - 1),
                        (f"1^{10 ** 30}", 1), (f"(-1)^{10 ** 30 + 1}", -1)):
        assert parse_polynomial(expr, Q, ("X",)).terms == {(0,): value}
    assert parse_polynomial(f"0^{10 ** 30}", Q, ("X",)).is_zero()
    for expr in (f"2^{POWER_BITS}", f"3^{2 * POWER_BITS // 3}",
                 f"(2*X)^{POWER_BITS}", f"12^{10 ** 30}"):
        with pytest.raises(ParseError):
            parse_polynomial(expr, Q, ("X",))


def test_overlong_field_modulus_is_its_own_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_map_file("field p=" + "7" * 4400 + "\nvars X0\nf0 X0\n")
    assert exc.value.line == 1
    assert str(exc.value).startswith("field modulus is too long")
    with pytest.raises(ParseError) as exc:
        parse_map_file("field p=seven\nvars X0\nf0 X0\n")
    assert str(exc.value).startswith("field modulus must be an integer")


@pytest.mark.parametrize("spec", ["p=1_3", "p=+13", "p=1 3", "p = 1 3",
                                  "p=-13"])
def test_field_modulus_is_decimal_digits(spec):
    with pytest.raises(ParseError) as exc:
        parse_map_file(f"field {spec}\nvars X0 X1\nf0 X0^2\nf1 X1^2\n")
    assert str(exc.value) == "field modulus must be an integer at line 1"


@pytest.mark.parametrize("spec", ["p=13", "p = 13", "p =13", "p=  13"])
def test_field_modulus_may_have_spaces_around_the_equals_sign(spec):
    inp = parse_map_file(f"field {spec}\nvars X0 X1\nf0 X0^2\nf1 X1^2\n")
    assert inp.field == PrimeField(13)


@pytest.mark.parametrize("names,bad,col", [("X Y 3", "3", 10),
                                           ("X Y Z-W", "Z-W", 10),
                                           ("X 2Y Z", "2Y", 8),
                                           ("X^2 Y", "X^2", 6)])
def test_vars_are_names_an_expression_can_reference(names, bad, col):
    with pytest.raises(ParseError) as exc:
        parse_map_file(f"# a map\nvars {names}\nf0 X^2\nf1 Y^2\n")
    assert str(exc.value) == f"invalid variable name {bad!r} at line 2, col {col}"
    inp = parse_map_file("vars x_0 Y1 _z\nf0 x_0^2\nf1 Y1^2\nf2 _z^2\n")
    assert inp.varnames == ("x_0", "Y1", "_z")


@pytest.mark.parametrize("text,message,line,col", [
    ("vars X0 X1\nf0 X0 X1\nf1 X1^2\n", "unexpected trailing input", 2, 7),
    ("vars X0 X1\nf0 X0^X1\nf1 X1^2\n",
     "exponent must be an integer literal", 2, 7),
    ("vars X0 X1\nf0 (X0 + X1\nf1 X1^2\n", "expected ')'", 2, 12),
    ("field q=7\nvars X0 X1\nf0 X0^2\nf1 X1^2\n",
     "field spec must be 'p=<prime>' or 'rational'", 1, None),
    ("vars\nf0 X0^2\n", "vars line declares no variables", 1, None),
    ("vars X X\nf0 X^2\n", "duplicate variable name", 1, None),
    ("vars X0 X1\nf0 X0^2\nf0 X1^2\n", "duplicate label f0", 3, None),
    ("f0 X0^2\nf1 X1^2\n", "missing 'vars' line", None, None),
    ("vars X0 X1\n", "no polynomial lines f0..fn", None, None),
])
def test_parse_error_names_the_fault_and_its_place(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_map_file(text)
    assert (str(exc.value).split(" at line")[0], exc.value.line,
            exc.value.col) == (message, line, col)


@pytest.mark.parametrize("text,head,line", [
    # a later directive would otherwise replace the first one silently
    ("field p=7\nvars X Y Z\nfield rational\nvars A B C\n"
     "f0 A^2\nf1 B^2\nf2 C^2\nf3 A*B\n", "field", 3),
    ("vars X Y Z\nvars A B C\nf0 A^2\nf1 B^2\nf2 C^2\n", "vars", 2),
    # even when it repeats the same value
    ("field p=7\nvars X Y\nfield p=7\nf0 X^2\nf1 Y^2\n", "field", 3),
    ("vars X Y\nf0 X^2\nvars X Y\nf1 Y^2\n", "vars", 3),
])
def test_a_directive_may_appear_once(text, head, line):
    with pytest.raises(ParseError) as exc:
        parse_map_file(text)
    assert str(exc.value) == f"second '{head}' line at line {line}"
    assert exc.value.line == line
