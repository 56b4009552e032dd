"""Expression grammar: atoms, precedence, errors, and text round-trips."""

import itertools
import random

import pytest

from qw22 import (
    ArithmeticBoundError,
    DeformationProfile,
    L,
    LaurentPoly,
    ParseError,
    T,
    UnsupportedInverseError,
    W,
    element_from,
    element_text,
    parse_element,
    q_bracket,
)
from qw22.exprparse import Diff, Gen, Lit, Pow, Prod, Sum, Var, parse

GEN = DeformationProfile.GENERALIZED


def test_atoms():
    assert element_text(parse_element("3")) == "3"
    assert element_text(parse_element("q + q^-1")) == "q + q^-1"
    assert element_text(parse_element("T^2 L[0] W[3]")) == "T^2 L[0] W[3]"
    assert parse_element("L[-4]") == element_from(L(-4))
    assert parse_element("1") - parse_element("T * T^-1") == parse_element("0")


def test_juxtaposition_is_multiplication():
    assert parse_element("L[1] L[2]") == parse_element("L[1] * L[2]")
    assert element_text(parse_element("L[1] L[2]")) == "L[1] L[2]"


def test_precedence():
    # * binds tighter than +, ^ tighter than *, unary minus scales one factor
    assert element_text(parse_element("2 L[1] + q^2 * T^-1 W[0]")) == (
        "q^2 * T^-1 W[0] + 2 * L[1]"
    )
    assert parse_element("-L[1] + L[1]").is_zero()
    assert parse_element("L[1]^2") == parse_element("L[1] * L[1]")
    got = element_text(parse_element("(L[1] + L[2])^2"))
    assert got == "(1 + q^-2) * L[1] L[2] + L[1]^2 + L[2]^2 - q^-1 * L[3]"


def test_bracket_atom():
    x = parse_element("qbr(L[0], L[1]; q^-1, q)")
    assert element_text(x) == "L[1]"
    assert parse_element("qbr(W[2], L[-1]; q, q^-1)") == q_bracket(
        element_from(W(2)),
        element_from(L(-1)),
        LaurentPoly.q_power(1),
        LaurentPoly.q_power(-1),
    )


def test_parse_errors_carry_positions():
    cases = {
        "L[2": "expected ']', found 'end of input' (line 1, column 4)",
        "q^": "expected an exponent, found 'end of input' (line 1, column 3)",
        "T + * L[1]": "expected an element, found '*' (line 1, column 5)",
        "L[2]*": "expected an element, found 'end of input' (line 1, column 6)",
        "(L[1]": "expected ')', found 'end of input' (line 1, column 6)",
        "W[]": "expected a generator index, found ']' (line 1, column 3)",
        "": "expected an element, found 'end of input' (line 1, column 1)",
        "-L[1] - -L[2]": "expected an element, found '-' (line 1, column 9)",
    }
    for src, message in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_element(src)
        assert str(exc.value) == message


def test_profile_gates_the_second_variable():
    with pytest.raises(ParseError) as exc:
        parse_element("p * L[1]")
    assert "needs the two-parameter profile" in str(exc.value)
    assert element_text(parse_element("p * L[1]", GEN)) == "p * L[1]"


def test_bracket_weights_must_be_scalar():
    with pytest.raises(ParseError) as exc:
        parse_element("qbr(L[0], L[1]; L[2], q)")
    assert "bracket weights must be scalar" in str(exc.value)


def test_bounds_surface_as_arithmetic_errors():
    with pytest.raises(ArithmeticBoundError):
        parse_element("L[9999999]")
    with pytest.raises(ArithmeticBoundError):
        parse_element("q^99999999999999999999")
    with pytest.raises(ArithmeticBoundError):
        parse_element("T^99999999999999999999")


def test_out_of_window_powers_of_non_units_raise_at_once():
    """Past the 64-bit exponent window a non-unit base would be squared or
    folded without end; it raises before any arithmetic.  Units keep their
    exact value or their own exponent check."""
    big = "99999999999999999999"
    for base in ("2", "(-2q)", "(1+q)", "(q - q)", "L[1]", "W[0]", "(L[1] + L[2])", "(2 T)"):
        with pytest.raises(ArithmeticBoundError, match=f"power {big} of a non-unit"):
            parse_element(f"{base}^{big}")
    with pytest.raises(ArithmeticBoundError, match="power"):
        parse_element(f"(2p)^{big}", GEN)
    # a negative power checks invertibility first, as inside the window
    with pytest.raises(UnsupportedInverseError):
        parse_element(f"2^-{big}")
    with pytest.raises(UnsupportedInverseError):
        parse_element(f"L[1]^-{big}")
    assert parse_element(f"(-1)^{big}") == parse_element("-1")
    assert parse_element(f"1^-{big}") == parse_element("1")
    with pytest.raises(ArithmeticBoundError, match="left the checked 64-bit window"):
        parse_element(f"(-q)^{big}")
    with pytest.raises(ArithmeticBoundError, match="T-power beyond the checked window"):
        parse_element(f"(q T)^-{big}")
    # the edge of the window is still inside it
    assert str(parse_element("(-1)^9223372036854775807")) == "-1"
    with pytest.raises(ArithmeticBoundError, match="power 9223372036854775808 of a non-unit"):
        parse_element("2^9223372036854775808")


def test_power_is_the_left_fold():
    # This base does not associate: x*(x*x) differs from (x*x)*x.
    x = "(L[1] + L[-1] + L[-2])"
    assert parse_element(f"{x}^3") == parse_element(f"{x}*{x}*{x}")
    assert parse_element(f"{x}^3") != parse_element(f"{x}*({x}*{x})")
    # A single term c*T^d takes the closed form c^k T^(dk).
    assert element_text(parse_element("(2q T^-2)^3")) == "8*q^3 * T^-6"
    assert parse_element("(2q T^-2)^3") == parse_element("(2q T^-2)(2q T^-2)(2q T^-2)")
    assert parse_element("(q T)^-2") == parse_element("q^-2 T^-2")


def test_round_trip_standard():
    rng = random.Random(5)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)] + [T]
    for _ in range(60):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
        x = element_from(word)
        assert parse_element(element_text(x)) == x


def test_round_trip_generalized():
    rng = random.Random(6)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    for _ in range(60):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
        x = element_from(word, GEN)
        assert parse_element(element_text(x), GEN) == x


def test_syntax_trees_compare_by_node_type_and_fields():
    text = "qbr(L[1] + 2, -W[0]^3; q, q^-1) * (T - 1)"
    tree = parse(text)
    assert tree == parse(text) and hash(tree) == hash(parse(text))
    assert tree != parse(text.replace("+ 2", "+ 3")) and tree != parse(" " + text)
    x, y = parse("L[1]"), parse("W[2]")
    assert x == Gen("L", 1, 1, 1) and x != Var("L", 1, 1)
    nodes = [cls(x, y, 1, 4) for cls in (Sum, Diff, Prod)] + [Pow(x, y, 1, 4)]
    for a, b in itertools.combinations(nodes, 2):
        assert a != b and not a == b
    assert Lit(2, 1, 1) != (2, 1, 1) and parse("2") == Lit(2, 1, 1)
    with pytest.raises(AttributeError):
        tree.line = 2
