"""The graded ladder module and the independent relation oracle."""

import functools
import itertools
import os
import random
import subprocess
import sys

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
from qw22.oscillator import GRADE_CAP, FockLabel, word_text

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


def test_ladder_weight_bound_premises():
    """The premises of the oracle's integer image: lambda_g has l1 norm |g|
    and p-exponents in [-|g|, |g|], and its coefficients sum to g, in every
    profile; with two variables every term has total degree -1."""
    for prof in (C, Q, P2):
        for g in range(-200, 201):
            terms = ladder_weight(prof, g).items()
            assert sum(abs(c) for _, c in terms) == abs(g)
            assert all(-abs(g) <= ep <= abs(g) for (_, ep), _ in terms)
            assert prof is not P2 or all(eq + ep == -1 for (eq, ep), _ in terms)
            # the classical comparison's weight: lambda_g at q = p = 1 is g
            assert sum(c for _, c in terms) == g


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


def test_vector_json_form():
    """Each term is its coefficient's JSON beside the label's k and eps; a
    two-parameter coefficient carries its p exponents."""
    v = basis_vector(Q, 2, 0).scaled(q_int(2)) - basis_vector(Q, -1, 1)
    assert v.to_json_obj() == {
        "terms": [
            {"coeff": {"terms": [{"eq": 0, "c": "-1"}]}, "k": -1, "eps": 1},
            {"coeff": {"terms": [{"eq": 1, "c": "1"}, {"eq": -1, "c": "1"}]}, "k": 2, "eps": 0},
        ]
    }
    assert basis_vector(P2, 3, 1).scaled(q_int(-1, 2)).to_json_obj() == {
        "terms": [{"coeff": {"terms": [{"eq": -1, "ep": -1, "c": "-1"}]}, "k": 3, "eps": 1}]
    }


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


def test_ladder_identities_read_the_rewrite_table(monkeypatch, cold_caches):
    """qLE and gq take their coefficients from the rewriter's relation
    table, so a wrong convention there fails against the module action."""
    rule = algebra._pair_rule

    def flipped(left, right, profile):
        swap, fuse, fused = rule(left, right, profile)
        return swap, (None if fuse is None else -fuse), fused

    cold_caches()
    monkeypatch.setattr(algebra, "_pair_rule", flipped)
    try:
        assert not check_relation(("qLE", 2, -1), Q, (-4, 4))[0]
        assert not check_relation(("gq", 2, -1), P2, (-4, 4))[0]
    finally:
        monkeypatch.undo()
        cold_caches()
    assert check_relation(("qLE", 2, -1), Q, (-4, 4)) == (True, None)
    assert check_relation(("gq", 2, -1), P2, (-4, 4)) == (True, None)


def side_vector(side, prof, k, eps):
    """A relation side on |k, eps>, walked op by op from ladder_weight alone:
    L and W take lambda_k and die at k = 0, W, b and b_dag die on the wrong
    occupancy, and the leftmost op acts last."""
    out = ModuleVector(prof)
    for c, ops in side:
        g, occ = k, eps
        for kind, n in reversed(ops):
            if kind in ("L", "W"):
                if g == 0 or (kind == "W" and occ):
                    break
                c = c * ladder_weight(prof, g)
                occ = 1 if kind == "W" else occ
            elif kind in ("b", "b_dag"):
                needs = 1 if kind == "b" else 0
                if occ != needs:
                    break
                occ = 1 - needs
            g += n
        else:
            out = out + basis_vector(prof, g, occ).scaled(c)
    return out


def reference_relation(rel, prof, k_range):
    """The vector comparison check_relation stands for, on both occupancies."""
    sides = list(oscillator._relation_sides(rel, prof))
    for k in range(k_range[0], k_range[1] + 1):
        for eps in (0, 1):
            for lhs, rhs in sides:
                left, right = side_vector(lhs, prof, k, eps), side_vector(rhs, prof, k, eps)
                if left != right:
                    return False, f"rel {rel!r} on |{k},{eps}>: lhs = {left}, rhs = {right}"
    return True, None


def test_relation_checks_match_the_vector_reference(monkeypatch, cold_caches):
    """Adversarial controls: under a flipped fuse sign, a swap factor times
    q and a dropped fuse term in the rewriter's table, check_relation gives
    the reference's verdict and witness on every ladder identity."""
    rule = algebra._pair_rule

    def variant(edit):
        def patched(left, right, profile):
            return edit(*rule(left, right, profile))

        return patched

    variants = {
        "flipped fuse": lambda swap, fuse, fused: (swap, None if fuse is None else -fuse, fused),
        "swap times q": lambda swap, fuse, fused: (swap * LaurentPoly.q_power(1, swap.nvars), fuse, fused),
        "dropped fuse": lambda swap, fuse, fused: (swap, None, None),
    }

    for name, edit in variants.items():
        cold_caches()
        monkeypatch.setattr(algebra, "_pair_rule", variant(edit))
        try:
            failed = 0
            for m in range(-3, 4):
                for n in range(-3, 4):
                    for rel, prof in ((("LE", m, n), C), (("qLE", m, n), Q), (("gq", m, n), P2)):
                        expected = reference_relation(rel, prof, (-4, 4))
                        assert check_relation(rel, prof, (-4, 4)) == expected, (name, rel)
                        failed += not expected[0]
            assert failed > 40, (name, failed)
        finally:
            monkeypatch.undo()
            cold_caches()


def test_relation_checks_compare_occupied_vectors(monkeypatch):
    """An identity that holds on every |k, 0> and fails on |k, 1>: b = 0.
    check_relation compares both occupancies, as the reference does."""
    monkeypatch.setattr(
        oscillator,
        "_relation_sides",
        lambda rel, prof: iter([([(LaurentPoly.one(prof.nvars), (("b", 0),))], [])]),
    )
    for prof in (C, Q, P2):
        expected = reference_relation("fermion", prof, (-2, 2))
        assert expected == (False, "rel 'fermion' on |-2,1>: lhs = |-2,0>, rhs = 0")
        assert check_relation("fermion", prof, (-2, 2)) == expected


def test_ladder_identities_check_the_fused_index():
    """The fused letter X[m+n] meets the index cap as in the rewriter, even
    where no path of the grade window reaches it."""
    big = 2**19
    for name, prof in (("LE", C), ("qLE", Q), ("gq", P2)):
        for m, n in ((big + 1, big), (-big, -big - 1)):
            with pytest.raises(ArithmeticBoundError):
                check_relation((name, m, n), prof, (0, 0))


def test_check_relation_rejects_an_empty_window():
    with pytest.raises(ValueError, match=r"^empty k_range 5\.\.-5$"):
        check_relation("boson", C, (5, -5))
    assert check_relation("boson", C, (0, 0)) == (True, None)


# -- the oracle -------------------------------------------------------------------


def test_oracle_anchor_words():
    assert oracle_consistency((L(2), L(1)), Q, (-8, 8)) == (True, None)
    for prof in (C, Q, P2):
        assert oracle_consistency((W(1), W(0)), prof, (-8, 8)) == (True, None)
    assert oracle_consistency((W(0), L(3), L(-1)), Q, (-8, 8)) == (True, None)


def test_oracle_rejects_an_empty_window():
    with pytest.raises(ValueError, match=r"^empty k_range 5\.\.-5$"):
        oracle_consistency((L(2), L(1)), Q, (5, -5))
    assert oracle_consistency((L(2), L(1)), Q, (0, 0)) == (True, None)


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


def test_oracle_tells_a_one_w_side_from_a_w_free_one(monkeypatch):
    """A normal-form term W[3] in place of L[3], with its coefficient, ends
    on the grade where L[3] ends but at eps = 1, so it cancels nothing of
    the W-free terms: the oracle keys its labels by occupancy."""
    word = (L(2), L(1))
    witnesses = {
        C: "word L[2] L[1] on |1,0>: direct = 2 * |4,0>, normal form at q=1 differs",
        Q: "word L[2] L[1] on |1,0>: direct = (q^4 + q^2) * |4,0>, "
        "via normal form = (q^4 + q^2 + 1) * |4,0> - |4,1>",
        P2: "word L[2] L[1] on |1,0>: direct = (q*p^-3 + p^-2) * |4,0>, "
        "via normal form = (q*p^-3 + p^-2 + q^-1*p^-1) * |4,0> - q^-1*p^-1 * |4,1>",
    }

    def l_to_w(terms, profile):
        c = terms.pop(NormalWord(l_block=((3, 1),)))
        terms[NormalWord(w_block=((3, 1),))] = c

    corrupt_normal_forms(monkeypatch, l_to_w)
    for prof, witness in witnesses.items():
        assert oracle_consistency(word, prof, (0, 2)) == (False, witness)


def at_q_one(v) -> dict:
    """The coefficients of a module vector evaluated at q = 1, zero values
    dropped."""
    return {label: c.eval(1) for label, c in v.terms() if c.eval(1)}


def reference_oracle(word, prof, k_range):
    """The full polynomial comparison oracle_consistency stands for:
    apply_word against apply_element of the normal form it sees, basis
    vector by basis vector; the classical profile compares at q = 1."""
    rewrite = DeformationProfile.GENERALIZED if prof is P2 else DeformationProfile.STANDARD
    nf = oscillator.normalize(word, rewrite)
    for k in range(k_range[0], k_range[1] + 1):
        for eps in (0, 1):
            v = basis_vector(prof, k, eps)
            direct = apply_word(word, v)
            shown = f"word {word_text(word)} on |{k},{eps}>: direct = {direct}"
            if prof is C:
                if at_q_one(direct) != at_q_one(apply_element(nf, basis_vector(Q, k, eps))):
                    return False, f"{shown}, normal form at q=1 differs"
            elif direct != apply_element(nf, v):
                return False, f"{shown}, via normal form = {apply_element(nf, v)}"
    return True, None


def corrupt_with(monkeypatch):
    """corrupt_normal_forms with a swappable edit: set box[0] to an edit,
    or to None for the true normal form."""
    box = [None]
    corrupt_normal_forms(monkeypatch, lambda terms, profile: box[0] and box[0](terms, profile))
    return box


@pytest.mark.parametrize("prof", (Q, P2), ids=lambda p: p.value)
def test_oracle_catches_a_term_that_vanishes_at_a_power_of_two(monkeypatch, prof):
    """q^(e+1) - 2^b q^e vanishes under q -> 2^b (one variable): the image's
    lane width grows with the coefficient's l1 norm, so none of them hides.
    With two variables the two terms differ in total degree, and each total
    degree is compared on its own."""
    word, window = (L(2), L(1)), (0, 2)
    box = corrupt_with(monkeypatch)
    for b in range(1, 97):

        def add_root(terms, profile, b=b):
            nw = last_term(terms)
            (eq, ep), _ = terms[nw].items()[-1]
            root = LaurentPoly({(eq + 1, ep): 1, (eq, ep): -(2**b)}, profile.nvars)
            terms[nw] = terms[nw] + root

        box[0] = add_root
        expected = reference_oracle(word, prof, window)
        assert expected[0] is False
        assert oracle_consistency(word, prof, window) == expected


def test_oracle_catches_a_term_moved_along_the_stride(monkeypatch):
    """q^a p^b -> q^(a-s-1) p^(b+s) moves a term to total degree a + b - 1
    and to a p-lane s further on.  The comparator groups terms by total
    degree, so the move is caught however far it goes."""
    word, window = (L(2), W(-1), L(1)), (-3, 3)
    box = corrupt_with(monkeypatch)
    for s in range(1, 65):

        def move(terms, profile, s=s):
            nw = last_term(terms)
            (a, b), c = terms[nw].items()[0]
            moved = LaurentPoly({(a - s - 1, b + s): c, (a, b): -c}, 2)
            terms[nw] = terms[nw] + moved

        box[0] = move
        expected = reference_oracle(word, P2, window)
        assert expected[0] is False
        assert oracle_consistency(word, P2, window) == expected


def test_oracle_stride_covers_the_raw_word(monkeypatch):
    """A letterless normal form c: the raw action on |k, eps> with its
    lowest p-power q^a p^-P moved to q^(a-2P) p^(P-1), one total degree
    lower and inside the span of the raw word's p-exponents.  Under
    q -> 1, p -> X alone it could share a lane with the raw word's image;
    compared per total degree, it is caught."""
    word, k = (L(1), L(-1)), 3
    direct = apply_word(word, basis_vector(P2, k, 0)).terms()[0][1]
    (a, b), _ = min(direct.items(), key=lambda t: t[0][1])
    moved = LaurentPoly({(a - 2 * -b, -b - 1): 1, (a, b): -1}, 2)

    def replace(terms, profile):
        terms.clear()
        terms[NormalWord()] = direct + moved

    corrupt_normal_forms(monkeypatch, replace)
    expected = reference_oracle(word, P2, (k, k))
    assert expected[0] is False
    assert oracle_consistency(word, P2, (k, k)) == expected


def test_oracle_compares_each_total_degree_apart(monkeypatch):
    """q^a p^b -> q^(a+1) p^b keeps a normal-form term on its p-lane, so its
    image under q -> 1, p -> X is unchanged: only its total degree tells the
    corrupted normal form from the true one.  Every monomial of every term
    of the normal form, moved this way, is caught."""
    word, window = (L(2), W(-1), L(1)), (-3, 3)
    box = corrupt_with(monkeypatch)
    nf = dict(oscillator.normalize(word, DeformationProfile.GENERALIZED).terms())
    moves = [(i, key) for i, c in enumerate(nf.values()) for key, _ in c.items()]
    assert len(moves) > 3
    for i, (a, b) in moves:

        def move(terms, profile, i=i, a=a, b=b):
            nw = list(terms)[i]
            c = terms[nw]._terms[a, b]
            terms[nw] = terms[nw] + LaurentPoly({(a + 1, b): c, (a, b): -c}, 2)

        box[0] = move
        expected = reference_oracle(word, P2, window)
        assert expected[0] is False
        assert oracle_consistency(word, P2, window) == expected


def test_oracle_image_bounds_stay_within_the_grade_cap(monkeypatch):
    """A window far past the cap raises at its first grade.  The image's
    lane width depends on the scalars and ops alone, not on the window, so a
    coefficient that is not homogeneous does not pack into an image as wide
    as the window."""
    def spread(terms, profile):
        for nw, c in terms.items():
            terms[nw] = c * (1 + LaurentPoly.q_power(1, 2))

    corrupt_normal_forms(monkeypatch, spread)
    with pytest.raises(ArithmeticBoundError, match=rf"^grade {-2**60} beyond cap"):
        oracle_consistency((L(2), L(1)), P2, (-2**60, 0))


def test_oracle_matches_the_polynomial_comparison(monkeypatch):
    """Seeded differential test against reference_oracle: verdict and
    witness, on true normal forms and on single-term corruptions."""
    rng = random.Random(113)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    box = corrupt_with(monkeypatch)

    def corruption(prof, pick, kind):
        def edit(terms, profile):
            if not terms:
                return
            nw = list(terms)[pick % len(terms)]
            if kind == "drop":
                del terms[nw]
                return
            factor = {
                "flip": LaurentPoly.constant(-1, prof.nvars),
                "q": LaurentPoly.q_power(1, prof.nvars),
                "1/q": LaurentPoly.q_power(-1, prof.nvars),
                "p": LaurentPoly.monomial(1, 0, 1, 2),
                "1/p": LaurentPoly.monomial(1, 0, -1, 2),
            }[kind]
            terms[nw] = terms[nw] * factor

        return edit

    caught = 0
    for prof in (C, Q, P2):
        kinds = ["flip", "drop", "q", "1/q"] + (["p", "1/p"] if prof is P2 else [])
        for _ in range(120):
            word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
            lo = rng.randint(-5, 3)
            window = (lo, lo + rng.randint(0, 5))
            for edit in (None, corruption(prof, rng.randrange(8), rng.choice(kinds))):
                box[0] = edit
                expected = reference_oracle(word, prof, window)
                assert oracle_consistency(word, prof, window) == expected, (word, prof, window)
                caught += not expected[0]
    assert caught > 200, caught


def record_generic_reads(monkeypatch) -> list:
    """A list that gains, per comparator call from here on, whether some
    group read nonzero at the generic grade (so the window scan ran)."""
    reads = []
    compare, read = oscillator._compare, oscillator._generic_read

    def counted_compare(*args):
        reads.append(False)
        return compare(*args)

    def counted_read(*args):
        out = read(*args)
        reads[-1] = reads[-1] or out != 0
        return out

    monkeypatch.setattr(oscillator, "_compare", counted_compare)
    monkeypatch.setattr(oscillator, "_generic_read", counted_read)
    return reads


def test_a_corruption_the_window_cannot_see(monkeypatch):
    """A stray term L[-3] L[-2] L[1] meets grade 0 at its first, second or
    third op from every |k, 0> with -1 <= k <= 1, so it acts as zero on
    that window, though not as a polynomial in z = c^k.  Its nonzero
    generic read falls back to the window scan, which finds no mismatch; one
    grade further on it shows."""
    stray = NormalWord(l_block=((-3, 1), (-2, 1), (1, 1)))
    corrupt_normal_forms(
        monkeypatch, lambda terms, profile: terms.update({stray: LaurentPoly.one(profile.nvars)})
    )
    reads = record_generic_reads(monkeypatch)
    word = (L(2), L(1))
    for prof in (C, Q, P2):
        reads.clear()
        assert reference_oracle(word, prof, (-1, 1)) == (True, None)
        assert oracle_consistency(word, prof, (-1, 1)) == (True, None)
        assert reads == [True]
        expected = reference_oracle(word, prof, (-1, 2))
        assert expected[0] is False and "|2,0>" in expected[1]
        assert oracle_consistency(word, prof, (-1, 2)) == expected


def test_the_generic_read_decides_as_the_reference(monkeypatch, cold_caches):
    """Seeded differential test of the generic decision: on corrupted normal
    forms and on relation ids under a corrupted relation table, in all three
    profiles, every call gives the reference's verdict and witness.  A call
    whose groups all read 0 must vanish at every grade, so the reference
    holds on a wider window too; a False verdict always read nonzero."""
    rng = random.Random(2025)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    box = corrupt_with(monkeypatch)
    reads = record_generic_reads(monkeypatch)
    edits = {
        "q": lambda nv: LaurentPoly.q_power(1, nv),
        "-1": lambda nv: LaurentPoly.constant(-1, nv),
        "1+q": lambda nv: 1 + LaurentPoly.q_power(1, nv),
        "1/q": lambda nv: LaurentPoly.q_power(-1, nv),
        "p": lambda nv: LaurentPoly.monomial(1, 0, 1, 2),
    }
    counts = {True: 0, False: 0}
    for prof in (C, Q, P2):
        kinds = [None, "q", "-1", "1+q", "1/q"] + (["p"] if prof is P2 else [])
        for _ in range(50):
            word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
            lo = rng.randint(-5, 3)
            window = (lo, lo + rng.randint(0, 4))
            kind, pick = rng.choice(kinds), rng.randrange(8)

            def edit(terms, profile, kind=kind, pick=pick):
                if terms:
                    nw = list(terms)[pick % len(terms)]
                    terms[nw] = terms[nw] * edits[kind](profile.nvars)

            box[0] = kind and edit
            reads.clear()
            expected = reference_oracle(word, prof, window)
            assert oracle_consistency(word, prof, window) == expected, (word, prof, window, kind)
            if not reads[0]:
                assert reference_oracle(word, prof, (-8, 8)) == (True, None), (word, prof, kind)
            assert expected[0] or reads[0]
            counts[expected[0]] += 1
    box[0] = None
    rule = algebra._pair_rule
    variants = [
        lambda swap, fuse, fused: (swap, None if fuse is None else -fuse, fused),
        lambda swap, fuse, fused: (swap * LaurentPoly.q_power(1, swap.nvars), fuse, fused),
        lambda swap, fuse, fused: (swap, None, None),
    ]
    for _ in range(60):
        name, prof = rng.choice((("LE", C), ("qLE", Q), ("gq", P2)))
        rel = (name, rng.randint(-3, 3), rng.randint(-3, 3))
        lo = rng.randint(-4, 2)
        window = (lo, lo + rng.randint(0, 4))
        variant = rng.choice([None] + variants)
        cold_caches()
        if variant:
            monkeypatch.setattr(algebra, "_pair_rule", lambda *a, v=variant: v(*rule(*a)))
        reads.clear()
        expected = reference_relation(rel, prof, window)
        assert check_relation(rel, prof, window) == expected, (rel, window)
        if not reads[0]:
            assert reference_relation(rel, prof, (-8, 8)) == (True, None), rel
        assert expected[0] or reads[0]
        counts[expected[0]] += 1
        monkeypatch.setattr(algebra, "_pair_rule", rule)
    cold_caches()
    assert counts[True] > 50 and counts[False] > 50, counts


def test_a_true_verdict_at_the_grade_cap_returns_at_once():
    """At the grade cap lambda_g has 2^20 terms; a True verdict reads the
    window at the generic grade and builds none.  Run in a child process
    with a time and address-space limit, so that a regression fails here
    instead of stalling the suite."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from qw22 import L, W, oracle_consistency\n"
        "from qw22.oscillator import Q_DEFORMED\n"
        "print(oracle_consistency((W(2), L(1)), Q_DEFORMED, (2**20 - 8, 2**20 - 4)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert (done.returncode, done.stdout) == (0, "(True, None)\n"), done.stderr


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
    monkeypatch.undo()
    # a stray L[-3] L[-2] L[1] reads nonzero at the generic grade, so the
    # window scan meets these errors: the raw word's, or the stray's after
    # the true terms at -top, whose weights near the cap are never built
    stray = NormalWord(l_block=((-3, 1), (-2, 1), (1, 1)))
    corrupt_normal_forms(
        monkeypatch, lambda terms, profile: terms.update({stray: LaurentPoly.one(profile.nvars)})
    )
    reads = record_generic_reads(monkeypatch)
    cases = [
        ((L(2), L(1)), (top - 1, top), top + 2),
        ((L(2), L(1)), (-top, -top + 1), -top - 1),
        ((W(-1), L(3)), (top - 2, top), top + 1),
    ]
    for prof in (C, Q, P2):
        for word, window, grade in cases:
            with pytest.raises(ArithmeticBoundError, match=rf"^grade {grade} beyond cap {top}$"):
                oracle_consistency(word, prof, window)
            assert reads[-1], (word, prof, window)
    monkeypatch.undo()
    # a window starting past the cap raises at its start grade, before any
    # walk and before any weight is built
    monkeypatch.setattr(oscillator, "ladder_weight", lambda *args: pytest.fail("built a weight"))
    for prof in (C, Q, P2):
        for word in ((), (L(-1),), (W(1), W(2))):
            with pytest.raises(ArithmeticBoundError, match=rf"^grade {top + 1} beyond cap {top}$"):
                oracle_consistency(word, prof, (top + 1, top + 1))
            with pytest.raises(ArithmeticBoundError, match=rf"^grade {-top - 1} beyond cap {top}$"):
                oracle_consistency(word, prof, (-top - 1, 0))


def test_oracle_path_dies_before_it_leaves_the_cap(monkeypatch):
    """A path that meets grade 0 ends there, one step before it would leave
    the cap, so the call returns; one grade further on the same word leaves
    the cap at that step and raises there.  The words are W-free or hold one
    W and are their own normal forms, so no q-integer near the cap is built,
    and every path dies or raises before it picks up a weight."""
    top = GRADE_CAP
    monkeypatch.setattr(oscillator, "ladder_weight", lambda *args: pytest.fail("built a weight"))
    # word, the grade whose path meets 0, the grade it leaves at from one further on
    cases = [
        ((L(-top), L(-top), L(-1)), 1, 1 - 2 * top),
        ((L(-top), L(-top), W(-1)), 1, 1 - 2 * top),
        ((L(1), L(top), L(top)), -top, top + 1),
        ((L(1), L(top), W(top)), -top, top + 1),
    ]
    for word, k, leaves in cases:
        for prof in (C, Q, P2):
            assert oracle_consistency(word, prof, (k, k)) == (True, None)
            for window in ((k + 1, k + 1), (k, k + 1)):
                with pytest.raises(ArithmeticBoundError, match=rf"^grade {leaves} beyond cap {top}$"):
                    oracle_consistency(word, prof, window)


def test_apply_element_checks_every_path_before_it_builds_a_weight(monkeypatch):
    """The second term leaves the cap from |-top, 0>: it raises before the
    first term, which stays inside, builds lambda_(-top) with 2^20 terms."""
    top = GRADE_CAP
    monkeypatch.setattr(oscillator, "ladder_weight", lambda *args: pytest.fail("built a weight"))
    one = LaurentPoly.one()
    x = Element(DeformationProfile.STANDARD, {
        NormalWord(l_block=((1, 1), (2, 1))): one,
        NormalWord(l_block=((-3, 1), (-2, 1), (1, 1))): one,
    })
    with pytest.raises(ArithmeticBoundError, match=rf"^grade {-top - 1} beyond cap {top}$"):
        apply_element(x, basis_vector(Q, -top, 0))


def test_occupied_labels_follow_the_empty_ones():
    """What lets oracle_consistency compare on |k, 0> alone: a word with a W
    kills |k, 1>, and a W-free word acts on |k, 1> as on |k, 0> with every
    label's eps set to 1.  The same holds for the action of its normal form,
    exhaustively over short words."""
    syms = [L(n) for n in range(-2, 3)] + [W(n) for n in range(-2, 3)]
    words = [w for m in range(4) for w in itertools.product(syms, repeat=m)]
    rewrite = {Q: DeformationProfile.STANDARD, P2: DeformationProfile.GENERALIZED}
    for prof in (C, Q, P2):
        for word in words:
            actions = [functools.partial(apply_word, word)]
            if prof in rewrite:
                actions.append(functools.partial(apply_element, algebra.normalize(word, rewrite[prof])))
            has_w = any(sym.kind == "W" for sym in word)
            for k in range(-4, 5):
                for act in actions:
                    empty = act(basis_vector(prof, k, 0))
                    occupied = {FockLabel(label.k, 1): c for label, c in empty.terms()}
                    want = ModuleVector(prof, {} if has_w else occupied)
                    assert act(basis_vector(prof, k, 1)) == want, (word, prof, k)


# Laurent products of one oracle_consistency call over grades -8..8, with
# every cache cold: the normal form's alone, since a True verdict is read at
# the generic grade and builds no ladder weight.
ORACLE_PRODUCT_CEILINGS = {
    ("L[3] L[4] L[2] L[0] L[-5]", C): 23,
    ("L[3] L[4] L[2] L[0] L[-5]", Q): 23,
    ("L[3] L[4] L[2] L[0] L[-5]", P2): 23,
    ("W[2] L[-3] L[5] L[1]", C): 8,
    ("W[2] L[-3] L[5] L[1]", Q): 8,
    ("W[2] L[-3] L[5] L[1]", P2): 8,
}
ORACLE_WORDS = {
    "L[3] L[4] L[2] L[0] L[-5]": (L(3), L(4), L(2), L(0), L(-5)),
    "W[2] L[-3] L[5] L[1]": (W(2), L(-3), L(5), L(1)),
}


def count_products(monkeypatch) -> list:
    """A list that gains one entry per Laurent product from here on."""
    products = []
    real = laurent._mul_terms
    monkeypatch.setattr(laurent, "_mul_terms", lambda *a: products.append(1) or real(*a))
    return products


def test_oracle_product_counts(monkeypatch, cold_caches):
    """Counted work, not time: only normalize and ladder_weight multiply
    Laurent polynomials; the comparison runs on integer images."""
    products = count_products(monkeypatch)
    counts = {}
    for text, prof in ORACLE_PRODUCT_CEILINGS:
        cold_caches()
        products.clear()
        assert oracle_consistency(ORACLE_WORDS[text], prof, (-8, 8)) == (True, None)
        counts[text, prof] = len(products)
    assert all(counts[key] <= ceiling for key, ceiling in ORACLE_PRODUCT_CEILINGS.items()), counts


def count_weights(monkeypatch) -> list:
    """A list that gains one entry per ladder weight the comparator asks
    for from here on."""
    built = []
    real = oscillator.ladder_weight
    monkeypatch.setattr(oscillator, "ladder_weight", lambda *a: built.append(a) or real(*a))
    return built


def positions_only(monkeypatch):
    """Make a mismatch return its (k, eps, i) instead of a witness, whose
    module vectors would build ladder weights of their own."""
    real = oscillator._compare
    monkeypatch.setattr(
        oscillator,
        "_compare",
        lambda prof, diffs, lo, hi, occ, witness: real(prof, diffs, lo, hi, occ, lambda *at: at),
    )


def test_a_true_verdict_builds_no_ladder_weight(monkeypatch, cold_caches):
    """Every group of a True verdict reads 0 at the generic grade, where
    each weight is a shift: the window scan, the only place the comparator
    builds lambda_g (through `_act`), does not run."""
    cold_caches()
    monkeypatch.setattr(oscillator, "ladder_weight", lambda *args: pytest.fail("built a weight"))
    rng = random.Random(5)
    syms = [L(n) for n in range(-5, 6)] + [W(n) for n in range(-5, 6)]
    words = list(ORACLE_WORDS.values()) + [
        tuple(rng.choice(syms) for _ in range(rng.randint(0, 5))) for _ in range(40)
    ]
    for prof in (C, Q, P2):
        for word in words:
            assert oracle_consistency(word, prof, (-8, 8)) == (True, None)
    for m in range(-3, 4):
        for n in range(-3, 4):
            for rel, prof in ((("LE", m, n), C), (("qLE", m, n), Q), (("gq", m, n), P2)):
                assert check_relation(rel, prof, (-8, 8)) == (True, None)


def test_ladder_weights_are_built_once_per_process(monkeypatch, cold_caches):
    """A False verdict runs the window scan, whose `_act` takes each
    lambda_g from `ladder_weight`'s memo: a second call on the same word,
    corruption and window builds no weight."""
    positions_only(monkeypatch)
    corrupt_normal_forms(monkeypatch, times_q_squared)
    for word in ORACLE_WORDS.values():
        for prof in (Q, P2):
            cold_caches()
            first = oracle_consistency(word, prof, (-8, 8))
            assert first[0] is False
            misses = oscillator.ladder_weight.cache_info().misses
            assert misses
            assert oracle_consistency(word, prof, (-8, 8)) == first
            assert oscillator.ladder_weight.cache_info().misses == misses


def test_a_false_verdict_asks_only_for_the_weights_of_its_grade(monkeypatch):
    """A True verdict builds no weight; a False one builds only what the
    window scan needs at the grade it fails on.  Each word, its normal form
    and a stray weightless term added fail at |-8, 0>, and only the weights
    of the grades -8 + s_j that their surviving paths meet there are asked
    for.  A path that dies there (at a second W) asks for none."""
    built = count_weights(monkeypatch)
    positions_only(monkeypatch)
    corrupt_normal_forms(
        monkeypatch, lambda terms, profile: terms.update({NormalWord(): LaurentPoly.one(profile.nvars)})
    )
    cases = [
        ((L(-1), L(2)), {-8, -6}),  # its own normal form: L[2] at -8, L[-1] at -6
        ((L(3), W(-2), W(1)), set()),
        ((W(4),), {-8}),
        # the raw word meets -8 and -9, L[-1] L[2] -8 and -6, the fused L[1] -8
        ((L(2), L(-1)), {-8, -9, -6}),
    ]
    for word, grades in cases:
        for prof in (Q, P2):
            built.clear()
            assert oracle_consistency(word, prof, (-8, 8)) == (False, (-8, 0, 0))
            assert set(built) == {(prof, g) for g in grades}, (word, prof)


def test_the_oracle_comparison_makes_no_laurent_product(monkeypatch):
    """With the normal form and the ladder weights at hand, a call makes no
    Laurent product at all."""
    monkeypatch.setattr(oscillator, "normalize", functools.cache(oscillator.normalize))
    for word in ORACLE_WORDS.values():
        for prof in (C, Q, P2):
            oracle_consistency(word, prof, (-8, 8))
    products = count_products(monkeypatch)
    for word in ORACLE_WORDS.values():
        for prof in (C, Q, P2):
            assert oracle_consistency(word, prof, (-8, 8)) == (True, None)
    assert not products


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


def test_words_with_two_w_letters_act_as_zero():
    """W takes occupancy 0 to 1 and kills occupied vectors, so every word
    with two W letters acts as zero: rewriting keeps the W count, and the
    oracle's verdict on such a word compares zero with zero."""
    letters = [make(n) for make in (L, W) for n in (-1, 0, 1)]
    words = [
        word
        for size in (2, 3)
        for word in itertools.product(letters, repeat=size)
        if sum(sym.kind == "W" for sym in word) >= 2
    ]
    assert len(words) == 117
    for prof in (C, Q, P2):
        for k in range(-6, 7):
            for eps in (0, 1):
                v = basis_vector(prof, k, eps)
                for word in words:
                    assert apply_word(word, v).is_zero(), (prof, word, k, eps)


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
    monkeypatch.setattr(laurent, "_mul_terms", lambda *a: products.append(1) or real(*a))
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
