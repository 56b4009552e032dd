"""Expression grammar: atoms, precedence, errors, and text round-trips."""

import functools
import itertools
import random

import pytest

from qw22 import (
    ArithmeticBoundError,
    DeformationProfile,
    Element,
    L,
    LaurentPoly,
    NormalWord,
    ParseError,
    T,
    UnsupportedInverseError,
    W,
    algebra,
    element_from,
    element_text,
    multiply,
    normalize,
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


# The repr of a shallow tree, pinned from the namedtuple repr it had when
# nodes printed themselves recursively.
SHALLOW_TREE_REPR = (
    "Diff(left=Neg(child=QBracket(x=Gen(kind='L', index=1, line=1, col=6), "
    "y=Gen(kind='W', index=-2, line=1, col=12), alpha=Var(name='q', line=1, col=19), "
    "beta=Lit(value=2, line=1, col=22), line=1, col=2), line=1, col=1), "
    "right=Pow(base=Gen(kind='T', index=0, line=1, col=27), exponent=-1, line=1, col=28), "
    "line=1, col=25)"
)


def test_long_chains_hash_compare_and_print():
    """A left-deep product of 1,500 factors hashes, compares and prints: the
    nodes walk the tree with a stack.  A shallow tree prints as before."""
    text = " ".join(["L[1]"] * 1500)
    tree, again = parse(text), parse(text)
    assert hash(tree) == hash(again) and tree == again and not tree != again
    assert tree != parse(text + " L[2]") and tree != parse(text.replace("L[1]", "L[2]", 1))
    shown = repr(tree)
    assert shown.startswith("Prod(left=Prod(left=") and shown.count("Gen(kind='L', index=1") == 1500
    assert repr(parse("-qbr(L[1], W[-2]; q, 2) - T^-1")) == SHALLOW_TREE_REPR


def _reference_factor(kind: str, a: int, b: int, profile):
    """A factor of the product test, built without the parser, with its text."""
    one = Element.unit(profile)
    if kind == "L":
        return f"L[{a}]", element_from(L(a), profile)
    if kind == "W":
        return f"W[{a}]", element_from(W(a), profile)
    if kind == "sum":
        return f"(L[{a}] + W[{b}])", element_from(L(a), profile) + element_from(W(b), profile)
    if kind == "q^-1":
        return kind, one.scaled(LaurentPoly.q_power(-1, profile.nvars))
    if kind == "3":
        return kind, one.scaled(3)
    d = {"T": 1, "T^-1": -1, "T^2": 2}[kind]
    if profile is GEN:  # p in place of T
        return kind.replace("T", "p"), one.scaled(LaurentPoly.p_power(d))
    return kind, element_from(NormalWord(t_exp=d))


_FACTOR_KINDS = ("L", "W", "T", "T^-1", "T^2", "q^-1", "3", "sum")


@pytest.mark.parametrize(
    "profile", [DeformationProfile.STANDARD, GEN], ids=["standard", "generalized"]
)
def test_products_are_the_left_fold_of_multiply(profile):
    """A parsed product equals multiply folded left over its evaluated
    factors, for every sequence of up to four factor kinds; the indices
    |a|, |b| <= 2 run through their range along the sequences."""
    indices = itertools.cycle(itertools.product(range(-2, 3), repeat=2))
    for size in range(1, 5):
        for kinds in itertools.product(_FACTOR_KINDS, repeat=size):
            texts, factors = zip(*(_reference_factor(k, *next(indices), profile) for k in kinds))
            want = functools.reduce(multiply, factors)
            assert parse_element(" ".join(texts), profile) == want, texts


def test_products_cross_t_powers_over_folded_tails():
    """A T-power crosses each tail the fold has built so far, which is not
    the normal form of the concatenated word."""
    got = parse_element("L[1] L[-1] T")
    assert element_text(got) == "T L[-1] L[1] + (-q - q^-1) * T L[0]"
    assert element_text(normalize((L(1), L(-1), T))) == "T L[-1] L[1] + (-q^3 - q) * T L[0]"


def test_product_errors_come_from_the_step_that_raises_them():
    """Each factor is multiplied in before the next is read, and each step
    is checked against the exponent windows, so a product raises the error
    of its first failing step, not the parse error of a later factor."""
    half = "4611686018427387904"  # 2^62
    cases = {
        "L[1048576] L[1] p": "generator index 1048577 beyond cap 1048576",
        f"T^{half} T^{half} p": "T-power beyond the checked window",
        f"q^{half} q^{half} p": "exponent 9223372036854775808 left the checked 64-bit window",
        f"L[1] T^{half} T^-{half} p": "T-collection exponent beyond the checked window",
    }
    for text, message in cases.items():
        with pytest.raises(ArithmeticBoundError) as exc:
            parse_element(text)
        assert str(exc.value) == message
    with pytest.raises(ParseError, match="needs the two-parameter profile"):
        parse_element(f"T^{half} T^-{half} p")


def test_each_product_chain_is_decoded_once(monkeypatch):
    """Counted work, not time: a product chain runs on one image state and
    is decoded once, not once per generator and per binary product."""
    decodes = []
    real = algebra._exact
    monkeypatch.setattr(algebra, "_exact", lambda *a, **k: decodes.append(1) or real(*a, **k))
    parse_element("2 L[2] L[-3] + q^-2 W[-2] W[2] T^3 + q^-2 T^-3 L[3]^2 W[0]")
    assert len(decodes) <= 3
    decodes.clear()
    parse_element("4 T^3 W[-1]^2 L[2]^2")
    assert len(decodes) == 1
