"""Comultiplication, counit, antipode, and the axiom checker."""

import random
import sys

import pytest

from qw22 import algebra, hopf, laurent
from qw22 import (
    ArithmeticBoundError,
    DeformationProfile,
    Element,
    L,
    LaurentPoly,
    NormalWord,
    ProfileError,
    T,
    T_INV,
    TensorElement,
    W,
    antipode,
    check_axiom,
    coproduct,
    counit,
    element_from,
    element_text,
    flip,
    multiply,
    normalize,
    power_closed_form,
    q_int,
    tensor_multiply,
    tensor_of,
    tensor_text,
)

S = DeformationProfile.STANDARD
G = DeformationProfile.GENERALIZED


def qp(e):
    return LaurentPoly.q_power(e)


def el(*syms):
    return element_from(tuple(syms))


# -- generator images ---------------------------------------------------------


def test_coproduct_generator_images():
    assert tensor_text(coproduct(el(T))) == "(T) (x) (T)"
    assert tensor_text(coproduct(el(T_INV))) == "(T^-1) (x) (T^-1)"
    assert tensor_text(coproduct(el(L(0)))) == "(1) (x) (L[0]) + (L[0]) (x) (1)"
    assert tensor_text(coproduct(el(L(1)))) == "(L[1]) (x) (T) + (T) (x) (L[1])"
    assert tensor_text(coproduct(el(W(-2)))) == (
        "(T^-2) (x) (W[-2]) + (W[-2]) (x) (T^-2)"
    )
    for r in range(-3, 4):
        word = (T,) * r if r >= 0 else (T_INV,) * (-r)
        tw = NormalWord(r, (), ())
        assert coproduct(el(*word)) == tensor_of(
            element_from(tw), element_from(tw)
        )


def test_counit_values():
    assert str(counit(el(T))) == "1"
    assert str(counit(element_from(NormalWord(5, (), ())))) == "1"
    assert counit(el(L(4))).is_zero()
    assert counit(el(L(5), W(2))).is_zero()
    mixed = element_from(NormalWord(2, (), ())).scaled(
        LaurentPoly.constant(3)
    ) + el(L(1))
    assert str(counit(mixed)) == "3"


def test_antipode_generator_images():
    assert element_text(antipode(el(T))) == "T^-1"
    assert element_text(antipode(el(T_INV))) == "T"
    assert element_text(antipode(el(L(0)))) == "-L[0]"
    # S(X_n) = -T^-n X_n T^-n, normalized to -q^{-2n(n+1)} T^-2n X_n
    assert element_text(antipode(el(L(3)))) == "-q^-24 * T^-6 L[3]"
    assert element_text(antipode(el(W(2)))) == "-q^-12 * T^-4 W[2]"
    for n in range(-6, 7):
        got = antipode(el(L(n)))
        want = element_from(NormalWord(-2 * n, ((n, 1),), ())).scaled(
            -qp(-2 * n * (n + 1))
        )
        assert got == want
    assert antipode(antipode(el(L(3)))) == el(L(3))
    assert antipode(antipode(el(W(-4)))) == el(W(-4))


def test_linearity():
    x = el(L(1)).scaled(q_int(2)) + el(W(0)).scaled(qp(-3))
    assert coproduct(x) == coproduct(el(L(1))).scaled(q_int(2)) + coproduct(
        el(W(0))
    ).scaled(qp(-3))
    assert antipode(x) == antipode(el(L(1))).scaled(q_int(2)) + antipode(
        el(W(0))
    ).scaled(qp(-3))
    assert counit(x + element_from(7)) == LaurentPoly.constant(7)


def test_generalized_profile_is_rejected():
    y = normalize((L(1),), G)
    for fn in (coproduct, antipode, counit):
        if fn is counit:
            continue
        with pytest.raises(ProfileError):
            fn(y)


# -- tensor arithmetic --------------------------------------------------------


def test_tensor_multiply_examples():
    unit2 = TensorElement.unit()
    assert tensor_multiply(
        tensor_of(el(T), el(T)), tensor_of(el(T_INV), el(T_INV))
    ) == unit2
    assert tensor_multiply(
        tensor_of(el(L(1)), Element.unit()), tensor_of(Element.unit(), el(L(1)))
    ) == tensor_of(el(L(1)), el(L(1)))
    got = tensor_multiply(tensor_of(el(L(1)), el(T)), tensor_of(el(T), el(L(1))))
    assert tensor_text(got) == "q^4 * (T L[1]) (x) (T L[1])"


def test_tensor_api_input_checks():
    """The product of no tensors is the unit, as `product_chain` of no
    factors is the unit Element; flip rejects keys of other than two slots."""
    u = tensor_of(el(L(1)), el(T))
    assert tensor_multiply() == TensorElement.unit()
    assert tensor_multiply(u) == u
    assert flip(TensorElement()) == TensorElement()
    for slots in ((NormalWord(),), (NormalWord(),) * 3):
        with pytest.raises(ValueError, match="^flip takes a two-slot tensor$"):
            flip(TensorElement({slots: LaurentPoly.one()}))


def test_tensor_element_is_linear_and_immutable():
    u = tensor_of(el(L(1)), el(T))
    v = tensor_of(el(T), el(L(1)))
    assert (u + v) - v == u
    assert u.scaled(q_int(2)) - u.scaled(q_int(2)) == TensorElement()
    with pytest.raises(AttributeError):
        u._terms = {}
    assert flip(flip(u)) == u
    assert flip(u) == v
    t = coproduct(el(L(1)).scaled(q_int(2)) - el(W(0)))
    assert tensor_text(t) == (
        "-(1) (x) (W[0]) - (W[0]) (x) (1)"
        " + (q + q^-1) * (L[1]) (x) (T) + (q + q^-1) * (T) (x) (L[1])"
    )
    # keys of any length: the coassociativity diagram uses three slots
    slots = (NormalWord(), NormalWord(1, (), ()), NormalWord(0, ((1, 1),), ()))
    triple = TensorElement({slots: -LaurentPoly.one()})
    assert str(triple) == "-(1) (x) (T) (x) (L[1])"
    minus_one = {"terms": [{"eq": 0, "c": "-1"}]}
    q_two = {"terms": [{"eq": 1, "c": "1"}, {"eq": -1, "c": "1"}]}
    unit = {"t": 0, "l": [], "w": []}
    w0 = {"t": 0, "l": [], "w": [[0, 1]]}
    l1 = {"t": 0, "l": [[1, 1]], "w": []}
    t1 = {"t": 1, "l": [], "w": []}
    assert t.to_json_obj() == {
        "terms": [
            {"coeff": minus_one, "slots": [unit, w0]},
            {"coeff": minus_one, "slots": [w0, unit]},
            {"coeff": q_two, "slots": [l1, t1]},
            {"coeff": q_two, "slots": [t1, l1]},
        ]
    }


def test_coproduct_of_a_square():
    got = coproduct(multiply(el(L(1)), el(L(1))))
    assert tensor_text(got) == (
        "(L[1]^2) (x) (T^2) + 2*q^4 * (T L[1]) (x) (T L[1]) + (T^2) (x) (L[1]^2)"
    )


def test_tensor_multiply_takes_two_slot_tensors(monkeypatch):
    """A three-slot factor is refused before any product is built, as flip
    refuses one."""
    t = TensorElement({(NormalWord(),) * 3: LaurentPoly.one()})
    monkeypatch.setattr(hopf, "_tensor_state", lambda *a: pytest.fail("a product was built"))
    for call in (lambda: t * t, lambda: tensor_multiply(t, TensorElement.unit()), lambda: tensor_multiply(t)):
        with pytest.raises(ValueError, match="tensor_multiply takes two-slot tensors"):
            call()


def _reference_tensor_multiply(u, v):
    """The per-pair algorithm: each pair's slot products decoded, then their
    coefficients multiplied as polynomials and summed per tensor key."""
    one = LaurentPoly.one()
    out: dict = {}
    for (a1, a2), c in u._terms.items():
        for (b1, b2), d in v._terms.items():
            left = algebra._exact(algebra._chain, (((a1, c),), (((b1, d),),), S), S)
            right = algebra._exact(algebra._chain, (((a2, one),), (((b2, one),),), S), S)
            for n1, f1 in left.items():
                for n2, f2 in right.items():
                    algebra._add_term(out, (n1, n2), f1 * f2)
    return TensorElement._raw(S, out)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticBoundError as exc:
        return type(exc), str(exc)


def test_tensor_multiply_matches_the_per_pair_products(monkeypatch):
    """Seeded tensors with multi-term coefficients up to 2^70 (past the
    default lanes, so the fold reruns wider), T-powers at +-(2^63 - 1)
    (the same error class and text) and right slots that pairs share; a
    chain of three against the products taken one at a time."""
    rng = random.Random(2210)
    edge = 2**63 - 1
    widths = []
    real_state = hopf._tensor_state
    monkeypatch.setattr(
        hopf, "_tensor_state", lambda terms, bits: widths.append(bits) or real_state(terms, bits)
    )

    def word(edges, size):
        indices = lambda: sorted(rng.sample(range(-3, 4), rng.randint(0, size)))
        block = lambda: tuple((n, rng.randint(1, 2)) for n in indices())
        t_exp = rng.choice((0, 0, 0, 1, -1, -2, 3) + (edge, -edge) * edges)
        return NormalWord(t_exp, block(), block())

    def coefficient(edges):
        exponent = lambda: rng.choice((rng.randint(-4, 4),) * 9 + (2**62, -(2**62)) * edges)
        terms = {(exponent(), 0): rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.choice((3, 40, 70)))
                 for _ in range(rng.randint(1, 3))}
        return LaurentPoly(terms)

    def tensor(edges=True, size=2):
        rights = [word(edges, size) for _ in range(2)]  # few right slots: pairs share them
        return TensorElement({(word(edges, size), rng.choice(rights)): coefficient(edges)
                              for _ in range(rng.randint(1, 4))})

    outcomes = []
    for i in range(100):
        u, v = tensor(), tensor()
        want = _outcome(_reference_tensor_multiply, u, v)
        assert _outcome(tensor_multiply, u, v) == want, (u, v)
        outcomes.append(type(want))
        if i % 4 == 0:
            # short words keep the forms of a chain of three small
            u, v, w = (tensor(i % 8 == 0, size=1) for _ in range(3))
            want = _outcome(lambda: _reference_tensor_multiply(_reference_tensor_multiply(u, v), w))
            assert _outcome(tensor_multiply, u, v, w) == want, (u, v, w)
            outcomes.append(type(want))
    assert max(widths) > 64  # some products reran wider
    assert outcomes.count(TensorElement) > 20 and outcomes.count(tuple) > 20


def test_tensor_multiply_decodes_once_per_output_term(monkeypatch):
    """Counted work: one image decode per output tensor key, and no
    Laurent product."""
    x = normalize((L(2), T, W(-1), L(-1))).scaled(q_int(3)) + el(W(1), L(1))
    u, v = coproduct(x), coproduct(el(L(-2), T_INV, W(0)) - el(L(1)))
    want = tensor_multiply(u, v)  # warms the relation caches
    decodes, products = [], []
    real_decode, real_mul = algebra.from_image, laurent._mul_terms
    monkeypatch.setattr(algebra, "from_image", lambda *a: decodes.append(a) or real_decode(*a))
    monkeypatch.setattr(laurent, "_mul_terms", lambda *a: products.append(a) or real_mul(*a))
    assert tensor_multiply(u, v) == want
    assert len(decodes) == want.term_count > 20 and products == []


def test_a_render_reads_each_word_once():
    """Text and JSON of an N-term Element and of an N-term tensor read the
    blocks of each word once per slot: N and 2N calls of sort_key."""
    x = normalize((L(2), T, W(-1), L(-1))).scaled(q_int(3)) + el(W(1), L(1), L(1))
    t = coproduct(x)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is NormalWord.sort_key.__code__:
            calls.append(1)

    for value, per_term in ((x, 1), (t, 2)):
        for render in (str, lambda v: v.to_json_obj()):
            calls.clear()
            sys.setprofile(count)
            try:
                render(value)
            finally:
                sys.setprofile(None)
            assert len(calls) == per_term * value.term_count > per_term, (value, render)
    assert [k for k, _ in t.terms()] == sorted(t._terms, key=lambda k: [w.sort_key() for w in k])


# -- closed forms -------------------------------------------------------------


def test_power_closed_form_anchors():
    assert power_closed_form("delta", "L", 3, 0) == TensorElement.unit()
    assert power_closed_form("antipode", "W", 3, 0) == Element.unit()
    assert power_closed_form("delta", "L", 2, 1) == coproduct(el(L(2)))
    assert power_closed_form("antipode", "W", 2, 1) == antipode(el(W(2)))
    assert element_text(power_closed_form("antipode", "W", 2, 3)) == (
        "-q^-108 * T^-12 W[2]^3"
    )


def test_power_closed_form_matches_direct_computation():
    for kind in ("L", "W"):
        for n in (-2, 0, 1, 3):
            gen = el(L(n)) if kind == "L" else el(W(n))
            power = Element.unit()
            for r in range(5):
                assert power_closed_form("delta", kind, n, r) == coproduct(power)
                assert power_closed_form("antipode", kind, n, r) == antipode(power)
                power = multiply(power, gen)


def test_power_closed_form_input_validation():
    with pytest.raises(ValueError):
        power_closed_form("delta", "T", 1, 1)
    with pytest.raises(ValueError):
        power_closed_form("eps", "L", 1, 1)
    with pytest.raises(ValueError):
        power_closed_form("delta", "L", 1, -1)


# -- axiom checks on generators ------------------------------------------------


GENERATORS = (
    [el(T), el(T_INV)]
    + [el(L(n)) for n in range(-5, 6)]
    + [el(W(n)) for n in range(-5, 6)]
)


def test_axioms_hold_on_generators():
    for x in GENERATORS:
        for axiom in (
            "coassoc",
            "counit-left",
            "counit-right",
            "antipode-left",
            "antipode-right",
            "s-squared",
        ):
            ok, witness = check_axiom(axiom, x)
            assert ok, f"{axiom} on {x}: {witness}"


def test_counit_diagrams_hold_on_arbitrary_products():
    rng = random.Random(12)
    syms = [T, T_INV] + [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    for _ in range(60):
        x = normalize(tuple(rng.choice(syms) for _ in range(rng.randint(0, 4))))
        for axiom in ("counit-left", "counit-right", "coassoc"):
            ok, witness = check_axiom(axiom, x)
            assert ok, f"{axiom} on {x}: {witness}"


def test_delta_hom_on_t_free_same_index_pairs():
    # no fusion and no crossing: the homomorphism property holds exactly
    for n in (-3, 0, 2):
        x = el(L(n))
        ok, _ = check_axiom("delta-hom", (x, x))
        assert ok


def test_cocommutativity_cannot_be_violated():
    """flip is an algebra map of the tensor square and fixes every generator
    image, so flip(delta(x)) == delta(x) identically; the checker reports
    that no witness exists."""
    rng = random.Random(4)
    syms = [T, T_INV] + [L(n) for n in range(-3, 4)] + [W(n) for n in range(-3, 4)]
    candidates = [element_from(tuple(rng.choice(syms) for _ in range(3)))
                  for _ in range(30)]
    for x in GENERATORS + candidates:
        ok, _ = check_axiom("cocommutativity-witness", x)
        assert not ok
        assert flip(coproduct(x)) == coproduct(x)


def test_commutativity_witness_exists():
    ok, witness = check_axiom("commutativity-witness", (0, 1))
    assert ok
    assert not witness.is_zero()


# -- documented obstructions ----------------------------------------------------


def test_antipode_diagram_fails_on_a_t_free_product():
    """m(S (x) 1) delta(L0 W1) leaves the exact residue (q - q^-1) T^-1 W[1]:
    the convolution argument needs associativity across the fused slot
    products, which the relation system lacks."""
    x = el(L(0), W(1))
    ok, witness = check_axiom("antipode-left", x)
    assert not ok
    assert element_text(witness) == "(q - q^-1) * T^-1 W[1]"
    ok, witness = check_axiom("s-squared", x)
    assert not ok
    assert element_text(witness) == "(q^-1 - q^-3) * W[1]"


def test_s_preservation_pattern_on_ladder_relation():
    """S maps the two sides of the quadratic ladder relation to elements that
    differ by q^{-2(m+n)} on the fused term, so preservation holds exactly
    when m == n (vacuous) or m + n == 0."""
    for rel in ("s-ll", "s-lw"):
        for m in range(-4, 5):
            for n in range(-4, 5):
                ok, _ = check_axiom(rel, (m, n))
                assert ok == (m == n or m + n == 0), (rel, m, n)


def test_preservation_holds_for_delta_eps_and_s_on_the_rest():
    for rel in (
        "delta-tl",
        "delta-tw",
        "delta-ll",
        "delta-lw",
        "delta-ww",
        "eps-tl",
        "eps-tw",
        "eps-ll",
        "eps-lw",
        "eps-ww",
        "s-tl",
        "s-tw",
        "s-ww",
    ):
        for m in range(-4, 5):
            for n in range(-4, 5):
                ok, witness = check_axiom(rel, (m, n))
                assert ok, (rel, m, n, witness)


def test_same_index_relations_at_the_index_cap():
    """X[m] Y[m] has no fused term ([0] = 0), so its check builds no
    X[2m] and gives a verdict where 2m is beyond the index cap; a fused
    letter beyond the cap is an ArithmeticBoundError."""
    for rel in ("delta-ll", "eps-lw", "s-ll", "s-lw"):
        assert check_axiom(rel, (2**20, 2**20)) == (True, None)
        assert check_axiom(rel, (-(2**19) - 1, -(2**19) - 1)) == (True, None)
    with pytest.raises(ArithmeticBoundError):
        check_axiom("delta-ll", (2**19 + 1, 2**19))


def test_t_runs_map_in_one_step():
    """A run of T and T^-1 maps as one group-like factor, so a long T-power
    in a relation costs no more than a short one, and the run's image equals
    the product of its symbols' images."""
    for rel in ("delta-tl", "s-tl", "s-tw"):
        assert check_axiom(rel, (100000, 1)) == (True, None)
    rng = random.Random(17)
    pool = [T, T, T_INV, L(1), L(-2), W(0), W(3)]
    for _ in range(60):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        delta = TensorElement.unit()
        for sym in word:
            delta = tensor_multiply(delta, coproduct(el(sym)))
        s = Element.unit()
        for sym in reversed(word):
            s = multiply(s, antipode(el(sym)))
        assert hopf.map_word_coproduct(word) == delta, word
        assert hopf.map_word_antipode(word) == s, word
    # A normal word's maps agree with those of its generator sequence.
    block = lambda k: tuple((n, rng.randint(1, 2)) for n in sorted(rng.sample(range(-2, 3), k)))
    for _ in range(60):
        nw = NormalWord(rng.randint(-3, 3), block(rng.randint(0, 2)), block(rng.randint(0, 2)))
        word = nw.generator_sequence()
        assert hopf._word_coproduct(nw) == hopf.map_word_coproduct(word), nw
        assert hopf._word_antipode(nw) == hopf.map_word_antipode(word), nw


def test_unknown_axiom_id():
    with pytest.raises(ValueError):
        check_axiom("nope", el(T))
