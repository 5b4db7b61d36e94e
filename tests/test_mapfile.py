"""Map-file grammar, validation diagnostics, and the print/parse round trip."""

import pytest

from fiberbound import (CharDividesDegree, CommonFactor, MixedDegrees,
                        NotHomogeneous, ParseError, parse_map_file,
                        parse_polynomial, print_map_file)
from fiberbound.fields import PrimeField, RationalField

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


def test_not_homogeneous():
    text = "vars X0 X1\nf0 X0^2 + X1\nf1 X1^2\n"
    with pytest.raises(NotHomogeneous):
        parse_map_file(text)


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
