"""The graded ladder module and the independent relation oracle."""

import random

import pytest

from qw22 import algebra, laurent, oscillator
from qw22 import (
    ArithmeticBoundError,
    DeformationProfile,
    Element,
    L,
    LaurentPoly,
    ModuleVector,
    NormalWord,
    OscillatorProfile,
    ProfileError,
    T,
    T_INV,
    W,
    apply_element,
    apply_generator,
    apply_ladder,
    apply_word,
    basis_vector,
    check_relation,
    classical_limit,
    element_from,
    ladder_weight,
    multiply,
    oracle_consistency,
    q_int,
)
from qw22.oscillator import GRADE_CAP

C = OscillatorProfile.CLASSICAL
Q = OscillatorProfile.Q_DEFORMED
P2 = OscillatorProfile.TWO_PARAM


# -- ladder actions -----------------------------------------------------------


def test_ladder_weights():
    assert str(ladder_weight(C, 3)) == "3"
    assert str(ladder_weight(C, -2)) == "-2"
    # q-deformed lowering weight q^k [k]
    assert ladder_weight(Q, 1) == LaurentPoly.q_power(1)
    for k in range(-8, 9):
        assert ladder_weight(Q, k) == LaurentPoly.q_power(k) * q_int(k)
    # two-param lowering weight p^-k (q^k - p^k)/(q - p)
    assert str(ladder_weight(P2, 1)) == "p^-1"
    assert str(ladder_weight(P2, 3)) == "q^2*p^-3 + q*p^-2 + p^-1"


def test_ladder_actions():
    v = basis_vector(C, 3, 0)
    assert str(apply_ladder("a", v)) == "3 * |2,0>"
    assert str(apply_ladder("a_dag", v)) == "|4,0>"
    assert str(apply_ladder("a", basis_vector(Q, 1, 0))) == "q * |0,0>"
    assert str(apply_ladder("a", basis_vector(P2, 1, 0))) == "p^-1 * |0,0>"
    # the lowering weight vanishes at grade zero in every profile
    for prof in (C, Q, P2):
        assert apply_ladder("a", basis_vector(prof, 0, 0)).is_zero()


def test_fermion_ladder_actions():
    for prof in (C, Q, P2):
        up = apply_ladder("b_dag", basis_vector(prof, 2, 0))
        assert str(up) == "|2,1>"
        assert apply_ladder("b_dag", basis_vector(prof, 2, 1)).is_zero()
        assert apply_ladder("b", basis_vector(prof, 2, 0)).is_zero()
        assert str(apply_ladder("b", basis_vector(prof, 2, 1))) == "|2,0>"


def test_generator_actions():
    assert str(apply_generator(L(1), basis_vector(C, 3, 0))) == "3 * |4,0>"
    assert apply_generator(W(0), basis_vector(C, 2, 1)).is_zero()
    assert str(apply_generator(W(2), basis_vector(C, 3, 0))) == "3 * |5,1>"
    # down-shifts through negative indices stay exact
    got = apply_generator(L(-2), basis_vector(Q, 4, 0))
    assert str(got) == "(q^7 + q^5 + q^3 + q) * |2,0>"
    with pytest.raises(ProfileError):
        apply_generator(T, basis_vector(C, 0, 0))


def test_grade_window():
    with pytest.raises(ArithmeticBoundError):
        basis_vector(C, 2**20 + 1, 0)
    with pytest.raises(ValueError):
        basis_vector(C, 0, 2)


def test_vectors_are_linear():
    v = basis_vector(Q, 2, 0) + basis_vector(Q, 5, 0).scaled(q_int(2))
    w = apply_generator(L(1), v)
    assert w == apply_generator(L(1), basis_vector(Q, 2, 0)) + apply_generator(
        L(1), basis_vector(Q, 5, 0)
    ).scaled(q_int(2))
    # signed monomials lose their sign to the joiner; longer coefficients
    # keep theirs inside parentheses
    mixed = (
        basis_vector(Q, 1, 0).scaled(-2)
        + basis_vector(Q, 3, 1).scaled(q_int(2))
        - basis_vector(Q, 0, 0).scaled(LaurentPoly.q_power(2))
        - basis_vector(Q, 2, 1).scaled(-q_int(3))
    )
    assert str(mixed) == (
        "-q^2 * |0,0> - 2 * |1,0> + (q^2 + 1 + q^-2) * |2,1> + (q + q^-1) * |3,1>"
    )
    two = basis_vector(P2, -1, 0).scaled(-LaurentPoly.p_power(1)) + basis_vector(
        P2, 2, 0
    ).scaled(q_int(-2, 2))
    assert str(two) == "-p * |-1,0> + (-q^-1*p^-2 - q^-2*p^-1) * |2,0>"


def test_profile_mismatch_raises():
    v = basis_vector(C, 1, 0)
    w = basis_vector(Q, 1, 0)
    with pytest.raises(ProfileError):
        v + w
    with pytest.raises(ProfileError, match="classical profile has no rewrite profile"):
        apply_element(element_from(L(1)), v)
    with pytest.raises(ProfileError, match="q-deformed represents the standard-q algebra"):
        apply_element(element_from(L(1), DeformationProfile.GENERALIZED), w)


# -- operator relations ---------------------------------------------------------


def test_defining_brackets():
    assert check_relation("boson", C, (-12, 12)) == (True, None)
    assert check_relation("qboson", Q, (-12, 12)) == (True, None)
    assert check_relation("gboson", P2, (-12, 12)) == (True, None)
    for prof in (C, Q, P2):
        assert check_relation("fermion", prof, (-6, 6)) == (True, None)


def test_iterated_bracket():
    for n in range(-8, 9):
        ok, witness = check_relation(("qd", n), Q, (-10, 10))
        assert ok, witness
        ok, witness = check_relation(("gqd", n), P2, (-10, 10))
        assert ok, witness


def test_ladder_operator_relations():
    for m in range(-4, 5):
        for n in range(-4, 5):
            ok, w = check_relation(("LE", m, n), C, (-8, 8))
            assert ok, w
            ok, w = check_relation(("qLE", m, n), Q, (-8, 8))
            assert ok, w
            ok, w = check_relation(("gq", m, n), P2, (-8, 8))
            assert ok, w


def test_relation_profile_pairing():
    with pytest.raises(ProfileError):
        check_relation("boson", Q, (-2, 2))
    with pytest.raises(ProfileError):
        check_relation(("qLE", 1, 2), C, (-2, 2))
    with pytest.raises(ProfileError):
        check_relation(("gq", 1, 2), Q, (-2, 2))
    for rel in ("nope", ("qd",), ("LE", 1), ("qLE", 1, 2, 3), ()):
        with pytest.raises(ValueError, match="unknown relation id"):
            check_relation(rel, C, (-2, 2))


def test_ladder_identities_read_the_rewrite_table(monkeypatch):
    """qLE and gq take their coefficients from the rewriter's relation
    table, so a wrong convention there fails against the module action."""
    rule = algebra._pair_rule

    def flipped(left, right, profile):
        swap, fuse, fused = rule(left, right, profile)
        return swap, (None if fuse is None else -fuse), fused

    def clear():
        rule.cache_clear()
        algebra._insert_cache.clear()

    clear()
    monkeypatch.setattr(algebra, "_pair_rule", flipped)
    try:
        assert not check_relation(("qLE", 2, -1), Q, (-4, 4))[0]
        assert not check_relation(("gq", 2, -1), P2, (-4, 4))[0]
    finally:
        monkeypatch.undo()
        clear()
    assert check_relation(("qLE", 2, -1), Q, (-4, 4)) == (True, None)
    assert check_relation(("gq", 2, -1), P2, (-4, 4)) == (True, None)


def test_ladder_identities_check_the_fused_index():
    """The fused letter X[m+n] meets the index cap as in the rewriter, even
    where no path of the grade window reaches it."""
    big = 2**19
    for name, prof in (("LE", C), ("qLE", Q), ("gq", P2)):
        for m, n in ((big + 1, big), (-big, -big - 1)):
            with pytest.raises(ArithmeticBoundError):
                check_relation((name, m, n), prof, (0, 0))


# -- the oracle -------------------------------------------------------------------


def test_oracle_anchor_words():
    assert oracle_consistency((L(2), L(1)), Q, (-8, 8)) == (True, None)
    for prof in (C, Q, P2):
        assert oracle_consistency((W(1), W(0)), prof, (-8, 8)) == (True, None)
    assert oracle_consistency((W(0), L(3), L(-1)), Q, (-8, 8)) == (True, None)


def test_oracle_rejects_t():
    with pytest.raises(ProfileError):
        oracle_consistency((T, L(1)), Q, (-2, 2))


def test_oracle_random_words():
    rng = random.Random(99)
    syms = [L(n) for n in range(-5, 6)] + [W(n) for n in range(-5, 6)]
    for prof in (C, Q, P2):
        for _ in range(120):
            word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
            ok, witness = oracle_consistency(word, prof, (-6, 6))
            assert ok, witness


def corrupt_normal_forms(monkeypatch, edit):
    """Make oracle_consistency see edit(terms, profile) in place of each
    normal form; terms is the true normal form's {normal word: coeff} in
    canonical term order."""
    real = oscillator.normalize

    def corrupted(word, profile):
        terms = dict(real(word, profile).terms())
        edit(terms, profile)
        return Element(profile, terms)

    monkeypatch.setattr(oscillator, "normalize", corrupted)


def last_term(terms):
    return list(terms)[-1]


def flip_sign(terms, profile):
    nw = last_term(terms)
    terms[nw] = -terms[nw]


def drop_term(terms, profile):
    del terms[last_term(terms)]


def times_q_squared(terms, profile):
    nw = last_term(terms)
    terms[nw] = terms[nw] * LaurentPoly.q_power(2, profile.nvars)


# The first disagreement of a corrupted normal form of L[2] L[1] over grades
# 0..2: grade 0 is annihilated on both sides, so it shows at |1,0>.
CORRUPTED_WITNESSES = {
    (C, flip_sign): "word L[2] L[1] on |1,0>: direct = 2 * |4,0>, normal form at q=1 differs",
    (C, drop_term): "word L[2] L[1] on |1,0>: direct = 2 * |4,0>, normal form at q=1 differs",
    (C, times_q_squared): None,
    (Q, flip_sign): "word L[2] L[1] on |1,0>: direct = (q^4 + q^2) * |4,0>, "
    "via normal form = (q^4 + q^2 + 2) * |4,0>",
    (Q, drop_term): "word L[2] L[1] on |1,0>: direct = (q^4 + q^2) * |4,0>, "
    "via normal form = (q^4 + q^2 + 1) * |4,0>",
    (Q, times_q_squared): "word L[2] L[1] on |1,0>: direct = (q^4 + q^2) * |4,0>, "
    "via normal form = (q^4 + 1) * |4,0>",
    (P2, flip_sign): "word L[2] L[1] on |1,0>: direct = (q*p^-3 + p^-2) * |4,0>, "
    "via normal form = (q*p^-3 + p^-2 + 2*q^-1*p^-1) * |4,0>",
    (P2, drop_term): "word L[2] L[1] on |1,0>: direct = (q*p^-3 + p^-2) * |4,0>, "
    "via normal form = (q*p^-3 + p^-2 + q^-1*p^-1) * |4,0>",
    (P2, times_q_squared): "word L[2] L[1] on |1,0>: direct = (q*p^-3 + p^-2) * |4,0>, "
    "via normal form = (-q*p^-1 + q*p^-3 + p^-2 + q^-1*p^-1) * |4,0>",
}


@pytest.mark.parametrize(
    "prof, edit",
    list(CORRUPTED_WITNESSES),
    ids=[f"{prof.value}-{edit.__name__}" for prof, edit in CORRUPTED_WITNESSES],
)
def test_oracle_rejects_a_corrupted_normal_form(monkeypatch, prof, edit):
    """Negative controls: a wrong sign or a missing term is caught in every
    profile; the classical profile compares at q = 1, so it catches exactly
    the corruptions visible there and accepts a stray factor q^2."""
    word = (L(2), L(1))
    assert oracle_consistency(word, prof, (0, 2)) == (True, None)
    corrupt_normal_forms(monkeypatch, edit)
    witness = CORRUPTED_WITNESSES[prof, edit]
    assert oracle_consistency(word, prof, (0, 2)) == (witness is None, witness)


def test_oracle_grade_cap_raises_where_the_window_walk_meets_it(monkeypatch):
    """The first (k, eps) of the window to leave the cap raises, the raw word
    before the normal form and the normal form's terms in their order.  The
    words carry two W letters, so every path dies and no weight is built."""
    top = GRADE_CAP
    word = (W(5), W(2))  # normal form c * W[2] W[5]: W[5] acts first
    for prof in (C, Q, P2):
        # at k = top - 1 the raw word's W[2] leaves the window first
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 1} beyond cap"):
            oracle_consistency(word, prof, (top - 1, top))
        # at k = top - 3 only the normal form's W[5] leaves it
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 2} beyond cap"):
            oracle_consistency(word, prof, (top - 3, top))
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 1} beyond cap"):
            oracle_consistency(word, prof, (top - 4, top))
    # an extra term W[1] W[9] acts as zero but leaves the window earlier
    stray = NormalWord(w_block=((1, 1), (9, 1)))
    corrupt_normal_forms(
        monkeypatch, lambda terms, profile: terms.update({stray: LaurentPoly.one(profile.nvars)})
    )
    for prof in (C, Q, P2):
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 3} beyond cap"):
            oracle_consistency(word, prof, (top - 6, top))
        # the true term comes first in the normal form
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 2} beyond cap"):
            oracle_consistency(word, prof, (top - 3, top))


# Laurent products of one oracle_consistency call over grades -8..8, with
# every cache cold: the normal form, the ladder weights and the comparison.
ORACLE_PRODUCT_CEILINGS = {
    ("L[3] L[4] L[2] L[0] L[-5]", C): 91,
    ("L[3] L[4] L[2] L[0] L[-5]", Q): 1236,
    ("L[3] L[4] L[2] L[0] L[-5]", P2): 1236,
    ("W[2] L[-3] L[5] L[1]", C): 37,
    ("W[2] L[-3] L[5] L[1]", Q): 407,
    ("W[2] L[-3] L[5] L[1]", P2): 407,
}


def test_oracle_product_counts(monkeypatch):
    """Counted work, not time: the classical profile multiplies integers
    after evaluating at q = 1, and a path weight is built once per call."""
    words = {
        "L[3] L[4] L[2] L[0] L[-5]": (L(3), L(4), L(2), L(0), L(-5)),
        "W[2] L[-3] L[5] L[1]": (W(2), L(-3), L(5), L(1)),
    }
    products = []
    real = laurent._mul_terms
    monkeypatch.setattr(laurent, "_mul_terms", lambda a, b: products.append(1) or real(a, b))
    counts = {}
    for text, prof in ORACLE_PRODUCT_CEILINGS:
        algebra._insert_cache.clear()
        algebra._pair_rule.cache_clear()
        ladder_weight.cache_clear()
        products.clear()
        assert oracle_consistency(words[text], prof, (-8, 8)) == (True, None)
        counts[text, prof] = len(products)
    assert all(counts[key] <= ceiling for key, ceiling in ORACLE_PRODUCT_CEILINGS.items()), counts


def test_apply_element_is_multiplicative():
    """apply(multiply(x, y)) == apply(x) after apply(y): products concatenate
    before rewriting and each rewrite is sound on the module, so this holds
    even though multiply is not associative."""
    rng = random.Random(31)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    prof_pairs = [(Q, DeformationProfile.STANDARD), (P2, DeformationProfile.GENERALIZED)]
    for osc, alg in prof_pairs:
        for _ in range(40):
            x = element_from(
                tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))), alg
            )
            y = element_from(
                tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))), alg
            )
            for k in (-3, 0, 2):
                v = basis_vector(osc, k, 0)
                assert apply_element(multiply(x, y), v) == apply_element(
                    x, apply_element(y, v)
                )


def test_associativity_residual_acts_as_zero():
    """The realization annihilates the overlap residual: the module cannot
    distinguish the two association orders, which is why the oracle certifies
    soundness of each rewrite but not linear independence of normal words."""
    x, y, z = (element_from(L(n)) for n in (1, -1, -2))
    residual = multiply(multiply(x, y), z) - multiply(x, multiply(y, z))
    assert not residual.is_zero()
    for k in range(-8, 9):
        for eps in (0, 1):
            assert apply_element(residual, basis_vector(Q, k, eps)).is_zero()
    assert classical_limit(residual).is_zero()


def test_apply_word_matches_generator_chain():
    v = basis_vector(Q, 2, 0)
    step = apply_generator(L(1), apply_generator(L(2), v))
    assert apply_word((L(1), L(2)), v) == step


def generator_chain(word, v):
    """The reference action: apply_generator letter by letter, rightmost
    first, stopping once the vector is zero."""
    for sym in reversed(word):
        if v.is_zero():
            break
        v = apply_generator(sym, v)
    return v


def test_actions_match_the_generator_chain():
    rng = random.Random(23)
    syms = [L(n) for n in range(-3, 4)] + [W(n) for n in range(-3, 4)]
    algebras = {Q: DeformationProfile.STANDARD, P2: DeformationProfile.GENERALIZED}
    for prof in (C, Q, P2):
        scalars = [LaurentPoly.one(prof.nvars), -q_int(2, prof.nvars), q_int(3, prof.nvars)]
        for _ in range(60):
            # several grades, zero among them, in both occupancies
            v = ModuleVector(prof)
            for _ in range(rng.randint(1, 5)):
                label = basis_vector(prof, rng.randint(-3, 3), rng.randint(0, 1))
                v = v + label.scaled(rng.choice(scalars))
            word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 5)))
            assert apply_word(word, v) == generator_chain(word, v), (prof, word)
            if prof is C:
                continue
            x = element_from(word, algebras[prof]) + element_from(
                tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))), algebras[prof]
            )
            want = ModuleVector(prof)
            for nw, c in x.terms():
                want = want + generator_chain(nw.generator_sequence(), v).scaled(c)
            assert apply_element(x, v) == want, (prof, x)


def test_t_letter_raises_only_on_a_live_path():
    for prof in (C, Q, P2):
        # lambda_0 = 0, a second W and an occupied W annihilate before the T
        assert apply_word((T, L(1)), basis_vector(prof, 0, 0)).is_zero()
        assert apply_word((T, W(2), W(1)), basis_vector(prof, 3, 0)).is_zero()
        assert apply_word((T_INV, W(0)), basis_vector(prof, 2, 1)).is_zero()
        with pytest.raises(ProfileError, match="T has no module action"):
            apply_word((T, L(1)), basis_vector(prof, 1, 0))
        # one live path in a multi-term vector is enough
        mixed = basis_vector(prof, 0, 0) + basis_vector(prof, 2, 1)
        with pytest.raises(ProfileError, match="T has no module action"):
            apply_word((T, L(1)), mixed)
    # a normal word with a T-power raises whatever it acts on
    with pytest.raises(ProfileError, match="T has no module action"):
        apply_element(element_from((T, L(1))), basis_vector(Q, 0, 0))


def test_grade_cap_raises_at_the_same_step():
    top = GRADE_CAP
    for prof in (C, Q, P2):
        v = basis_vector(prof, top, 0)
        # L[2] leaves the window although L[-3] would bring the path back
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 2} beyond cap"):
            apply_word((L(-3), L(2)), v)
        # the first letter to act decides between the grade and the T
        with pytest.raises(ArithmeticBoundError):
            apply_word((T, L(2)), v)
        with pytest.raises(ProfileError):
            apply_word((L(2), T), v)
        # a path that vanishes first never reaches the cap
        assert apply_word((L(2), W(1)), basis_vector(prof, top, 1)).is_zero()
        # the first term, in the vector's order, to leave the window is named
        two = basis_vector(prof, top - 1, 0) + basis_vector(prof, top, 0)
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 1} beyond cap"):
            apply_word((L(2),), two)
    for prof, alg in ((Q, DeformationProfile.STANDARD), (P2, DeformationProfile.GENERALIZED)):
        with pytest.raises(ArithmeticBoundError, match=f"grade {top + 2} beyond cap"):
            apply_element(element_from(L(2), alg), basis_vector(prof, top, 0))


def test_single_steps_check_the_grade_before_the_weight(monkeypatch):
    """At the cap, lambda_k has 2^20 terms: a step that leaves the window
    must raise before it builds one."""
    calls = []
    real = oscillator.ladder_weight
    monkeypatch.setattr(
        oscillator, "ladder_weight", lambda prof, k: calls.append(k) or real(prof, k)
    )
    for prof in (C, Q, P2):
        top = basis_vector(prof, GRADE_CAP, 0)
        bottom = basis_vector(prof, -GRADE_CAP, 0)
        with pytest.raises(ArithmeticBoundError, match=f"grade {GRADE_CAP + 1} beyond cap"):
            apply_generator(L(1), top)
        with pytest.raises(ArithmeticBoundError, match=f"grade {GRADE_CAP + 2} beyond cap"):
            apply_generator(W(2), top)
        with pytest.raises(ArithmeticBoundError, match=f"grade {-GRADE_CAP - 1} beyond cap"):
            apply_ladder("a", bottom)
        # lambda_0 = 0: grade 0 is skipped without building a weight
        assert apply_generator(L(1), basis_vector(prof, 0, 0)).is_zero()
        assert apply_ladder("a", basis_vector(prof, 0, 0)).is_zero()
    assert calls == []
    # the counter is live: a step inside the window builds its weight
    apply_generator(L(1), basis_vector(Q, 2, 0))
    apply_ladder("a", basis_vector(Q, 3, 0))
    assert calls == [2, 3]


def test_a_vanishing_path_makes_no_laurent_product(monkeypatch):
    """Counted work, not time: a path through lambda_0 or a second W is
    followed in integers and never multiplies a weight."""
    words = {
        Q: element_from(NormalWord(l_block=((-1, 1), (1, 1)))),
        P2: element_from(NormalWord(w_block=((1, 1), (2, 1))), DeformationProfile.GENERALIZED),
    }
    vectors = {prof: basis_vector(prof, -1, 0) for prof in (C, Q, P2)}
    products = []
    real = laurent._mul_terms
    monkeypatch.setattr(laurent, "_mul_terms", lambda a, b: products.append(1) or real(a, b))
    for prof in (C, Q, P2):
        # L[-1] takes |1,0> to grade 0, where L[3] has weight lambda_0 = 0
        assert apply_word((L(3), L(-1)), basis_vector(prof, 1, 0)).is_zero()
        # the second W meets an occupied vector
        assert apply_word((W(1), L(2), W(2)), basis_vector(prof, 3, 0)).is_zero()
    # L[-1] L[1] on |-1,0>: L[1] reaches grade 0; W[1] W[2]: two W letters
    assert apply_element(words[Q], vectors[Q]).is_zero()
    assert apply_element(words[P2], vectors[P2]).is_zero()
    assert products == []
    # the counter is live: a surviving path multiplies its weights
    apply_word((L(1), L(2)), basis_vector(Q, 2, 0))
    assert products
