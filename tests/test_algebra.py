"""Normal ordering, the two deformation profiles, and element arithmetic."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from qw22 import algebra, laurent
from qw22 import (
    ArithmeticBoundError,
    DeformationProfile,
    Element,
    EvaluationDomainError,
    GeneratorSymbol,
    L,
    LaurentPoly,
    NormalWord,
    OscillatorProfile,
    ProfileError,
    T,
    T_INV,
    UNIT_WORD,
    W,
    basis_vector,
    classical_limit,
    coproduct,
    element_from,
    element_text,
    evaluate,
    is_normal,
    multiply,
    normalize,
    parse_element,
    q_bracket,
    q_int,
    substitute_p_inverse,
    tensor_of,
)
from fractions import Fraction

S = DeformationProfile.STANDARD
G = DeformationProfile.GENERALIZED


def qp(e):
    return LaurentPoly.q_power(e)


def qp2(e):
    return LaurentPoly.q_power(e, nvars=2)


def pp(e):
    return LaurentPoly.p_power(e)


def gen_word(el):
    ((nw, c),) = el.terms()
    assert c.is_one()
    return nw


# -- symbols and words -----------------------------------------------------


def test_deformation_profiles_hash_by_identity(cold_caches):
    """The identity hash keeps equality, nvars, pickling and memo keys: a
    profile read back from its value or a pickle hits the same entry."""
    for profile, nvars in ((S, 1), (G, 2)):
        copies = (DeformationProfile(profile.value), pickle.loads(pickle.dumps(profile)))
        assert all(c is profile for c in copies)
        assert profile.nvars == nvars
    assert S != G and len({S, G, *map(DeformationProfile, ("standard-q", "generalized-two-param"))}) == 2
    cold_caches()
    for profile in (S, G, pickle.loads(pickle.dumps(S)), DeformationProfile("generalized-two-param")):
        algebra._fuse_image(("L", 2), ("L", 1), profile, 64)
    info = algebra._fuse_image.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_generator_symbols():
    assert L(3) == GeneratorSymbol("L", 3)
    assert W(-2) == GeneratorSymbol("W", -2)
    assert T.kind == "T" and T_INV.kind == "Tinv"
    with pytest.raises(ArithmeticBoundError):
        L(2**20 + 1)
    with pytest.raises(ArithmeticBoundError):
        W(-(2**20) - 1)


def test_normal_word_validation():
    w = NormalWord(2, ((1, 2), (3, 1)), ((0, 1),))
    assert w.text() == "T^2 L[1]^2 L[3] W[0]"
    assert w.generator_sequence() == (T, T, L(1), L(1), L(3), W(0))
    assert not (UNIT_WORD.t_exp or UNIT_WORD.letters) and UNIT_WORD.text() == ""
    with pytest.raises(ValueError):
        NormalWord(0, ((3, 1), (1, 1)), ())
    with pytest.raises(ValueError):
        NormalWord(0, ((1, 0),), ())


def test_normal_word_checks_and_immutability():
    cases = [
        ((2**63,), ArithmeticBoundError, "T-power beyond the checked window"),
        ((0, ((2**20 + 1, 1),)), ArithmeticBoundError, "generator index 1048577 beyond cap"),
        ((0, (), ((0, 1), (2, -1))), ValueError, "block multiplicities must be positive"),
        ((0, (), ((2, 1), (2, 1))), ValueError, "block indices must strictly ascend"),
    ]
    for args, error, message in cases:
        with pytest.raises(error, match=message):
            NormalWord(*args)
    w = NormalWord(-1, ((0, 2),), ((3, 1),))
    for name in ("t_exp", "l_block", "w_block", "letters", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, 5)
    assert pickle.loads(pickle.dumps(w)) == w
    assert repr(w) == "NormalWord(t_exp=-1, l_block=((0, 2),), w_block=((3, 1),))"


def test_fold_words_are_constructor_words():
    # The fold wraps (T-power, tail) as the word: it must be the word the
    # constructor builds from the same blocks, in every derived view.
    built = NormalWord(-2, ((1, 2), (3, 1)), ((0, 1), (4, 2)))
    ((got, _),) = normalize(built.generator_sequence()).terms()
    assert type(got) is NormalWord and got == built and hash(got) == hash(built)
    assert tuple(got) == (-2, (("L", 1), ("L", 1), ("L", 3), ("W", 0), ("W", 4), ("W", 4)))
    assert got.sort_key() == built.sort_key() == (-2, ((1, 2), (3, 1)), ((0, 1), (4, 2)))
    assert got.text() == built.text() == "T^-2 L[1]^2 L[3] W[0] W[4]^2"
    assert got.to_json_obj() == built.to_json_obj() == {
        "t": -2, "l": [[1, 2], [3, 1]], "w": [[0, 1], [4, 2]]
    }
    x = normalize((W(2), L(1), L(-1), L(1)))
    for nw, _ in multiply(x, normalize((T, L(0), W(-1), W(-1)))).terms():
        again = NormalWord(nw.t_exp, nw.l_block, nw.w_block)
        assert again == nw and hash(again) == hash(nw) and again.letters == nw.letters
        assert again.text() == nw.text() and again.to_json_obj() == nw.to_json_obj()


def test_is_normal():
    assert is_normal((T, T, L(1), L(1), L(3), W(0)))
    assert is_normal(())
    assert is_normal((T_INV, T_INV))
    assert not is_normal((T, T_INV))
    assert not is_normal((L(1), T))
    assert not is_normal((L(3), L(1)))
    assert not is_normal((W(0), L(1)))


# -- normalize: anchor outputs ----------------------------------------------


def test_normalize_anchor_examples():
    assert element_text(normalize((L(2), L(1)))) == "q^-2 * L[1] L[2] - q^-1 * L[3]"
    assert element_text(normalize((W(1), L(0)))) == "-q^-1 * W[1] + q^-2 * L[0] W[1]"
    assert element_text(normalize((W(2), W(1)))) == "q^-2 * W[1] W[2]"
    assert element_text(normalize((T, T_INV))) == "1"
    assert element_text(normalize((L(0), T))) == "q^2 * T L[0]"
    assert element_text(normalize((T, L(0)))) == "T L[0]"
    assert element_text(normalize((L(1), T, T, L(0)))) == (
        "q^6 * T^2 L[0] L[1] - q^7 * T^2 L[1]"
    )


def test_normalize_generalized_anchor_examples():
    assert element_text(normalize((L(2), L(1)), G)) == (
        "q^-1*p * L[1] L[2] - q^-1 * L[3]"
    )
    assert element_text(normalize((W(1), L(0)), G)) == (
        "-q^-1 * W[1] + q^-1*p * L[0] W[1]"
    )
    assert element_text(normalize((W(2), W(1)), G)) == "q^-1*p * W[1] W[2]"


def test_generalized_profile_rejects_t():
    with pytest.raises(ProfileError):
        normalize((T,), G)
    with pytest.raises(ProfileError):
        element_from((L(1), T_INV), G)


def test_t_collection_weights():
    # moving L_n left across T^s costs q^{2(n+1)s}; W_n costs the same
    for n in range(-4, 5):
        for s in range(-3, 4):
            word = [L(n)] + [T if s > 0 else T_INV] * abs(s)
            got = normalize(tuple(word))
            want = Element(S, {NormalWord(s, ((n, 1),), ()): qp(2 * (n + 1) * s)})
            assert got == want
            word = [W(n)] + [T if s > 0 else T_INV] * abs(s)
            got = normalize(tuple(word))
            want = Element(S, {NormalWord(s, (), ((n, 1),)): qp(2 * (n + 1) * s)})
            assert got == want


# -- the defining relations hold under normalize ----------------------------


def rel_pairs(lo, hi):
    return [(m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1)]


def test_standard_ladder_relations():
    for m, n in rel_pairs(-5, 5):
        ln_lm = normalize((L(n), L(m)))
        lm_ln = normalize((L(m), L(n)))
        assert ln_lm.scaled(qp(n - m)) - lm_ln.scaled(qp(m - n)) == element_from(
            L(m + n)
        ).scaled(q_int(m - n))
        wn_lm = normalize((W(n), L(m)))
        lm_wn = normalize((L(m), W(n)))
        assert wn_lm.scaled(qp(n - m)) - lm_wn.scaled(qp(m - n)) == element_from(
            W(m + n)
        ).scaled(q_int(m - n))
        wn_wm = normalize((W(n), W(m)))
        wm_wn = normalize((W(m), W(n)))
        assert wn_wm.scaled(qp(n - m)) == wm_wn.scaled(qp(m - n))


def test_standard_t_relations():
    for s in range(-4, 5):
        for n in range(-4, 5):
            t_run = (T,) * s if s >= 0 else (T_INV,) * (-s)
            lhs = normalize(t_run + (L(n),))
            rhs = normalize((L(n),) + t_run).scaled(qp(-2 * (n + 1) * s))
            assert lhs == rhs
            lhs = normalize(t_run + (W(n),))
            rhs = normalize((W(n),) + t_run).scaled(qp(-2 * (n + 1) * s))
            assert lhs == rhs


def test_generalized_ladder_relations():
    for m, n in rel_pairs(-4, 4):
        ln_lm = normalize((L(n), L(m)), G)
        lm_ln = normalize((L(m), L(n)), G)
        assert ln_lm.scaled(qp2(n - m)) - lm_ln.scaled(pp(n - m)) == element_from(
            L(m + n), G
        ).scaled(-q_int(n - m, 2))
        wn_lm = normalize((W(n), L(m)), G)
        lm_wn = normalize((L(m), W(n)), G)
        assert wn_lm.scaled(qp2(n - m)) - lm_wn.scaled(pp(n - m)) == element_from(
            W(m + n), G
        ).scaled(-q_int(n - m, 2))
        wn_wm = normalize((W(n), W(m)), G)
        wm_wn = normalize((W(m), W(n)), G)
        assert wn_wm.scaled(qp2(n - m)) == wm_wn.scaled(pp(n - m))


# -- basis stability ---------------------------------------------------------


def random_normal_word(rng, with_t=True):
    d = rng.randint(-3, 3) if with_t else 0
    l_pool = rng.sample(range(-6, 7), rng.randint(0, 3))
    w_pool = rng.sample(range(-6, 7), rng.randint(0, 3))
    lb = tuple((n, rng.randint(1, 2)) for n in sorted(l_pool))
    wb = tuple((n, rng.randint(1, 2)) for n in sorted(w_pool))
    return NormalWord(d, lb, wb)


def test_normal_words_are_fixed_points():
    rng = random.Random(42)
    for _ in range(300):
        nw = random_normal_word(rng)
        got = normalize(nw.generator_sequence())
        assert got == Element(S, {nw: LaurentPoly.one()})
    for _ in range(100):
        nw = random_normal_word(rng, with_t=False)
        got = normalize(nw.generator_sequence(), G)
        assert got == Element(G, {nw: LaurentPoly.one(2)})


def test_normalize_lands_on_normal_words():
    rng = random.Random(9)
    syms = [T, T_INV] + [L(n) for n in range(-5, 6)] + [W(n) for n in range(-5, 6)]
    for _ in range(200):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 5)))
        for nw, c in normalize(word).terms():
            assert is_normal(nw.generator_sequence())
            assert not c.is_zero()


def _reference_insert(tail, letter, profile, memo):
    """tail + (letter,) for a normal tail by the generic one-rule recursion
    of the leftmost reduction, built from `_pair_rule` alone:
    head*last*letter = swap * (head*letter)*last + fuse * head*fused."""
    key = (tail, letter)
    if key in memo:
        return memo[key]
    if not tail or algebra._in_order(tail[-1], letter):
        return {tail + (letter,): LaurentPoly.one(profile.nvars)}
    head, last = tail[:-1], tail[-1]
    swap, fuse, fused = algebra._pair_rule(last, letter, profile)
    out = {}
    for v, cv in _reference_insert(head, letter, profile, memo).items():
        for w, d in _reference_insert(v, last, profile, memo).items():
            _accumulate(out, w, cv * d)
    out = {w: c * swap for w, c in out.items()}
    if fuse is not None:
        for w, d in _reference_insert(head, fused, profile, memo).items():
            _accumulate(out, w, fuse * d)
    memo[key] = out
    return out


def _accumulate(out, key, c):
    if key in out:
        c = out[key] + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _ladder(word) -> tuple:
    """The L and W letters of a word: (kind, index) pairs, as in a tail."""
    return tuple(sym for sym in word if sym.kind in ("L", "W"))


def _reference_fold(state, word, profile, memo) -> dict:
    """Fold the letters of a word, left to right, into every tail of
    {(T-power, tail): coeff}: a ladder letter through `_reference_insert`,
    and T^s across a tail with q^e, e the sum of `_t_crossing` over the
    tail's letters."""
    for sym in word:
        out = {}
        if sym.kind in ("T", "Tinv"):
            s = 1 if sym.kind == "T" else -1
            for (t, tail), c in state.items():
                e = sum(algebra._t_crossing(n, s) for _, n in tail)
                out[t + s, tail] = c * LaurentPoly.q_power(e, profile.nvars)
        else:
            for (t, tail), c in state.items():
                for w, d in _reference_insert(tail, (sym.kind, sym.index), profile, memo).items():
                    _accumulate(out, (t, w), c * d)
        state = out
    return state


def _reference_terms(state) -> list:
    """{(T-power, normal tail): coeff} as ordered (NormalWord, coeff) terms."""
    terms = []
    for (t, tail), c in state.items():
        blocks = {"L": [], "W": []}
        for (kind, n), run in itertools.groupby(tail):
            blocks[kind].append((n, len(list(run))))
        terms.append((NormalWord(t, tuple(blocks["L"]), tuple(blocks["W"])), c))
    return terms


def _reference_normalize(word, profile, memo) -> list:
    """Ordered (NormalWord, coeff) terms of a word: each T^s first crosses
    the ladder letters before it in the word, then the ladder letters fold
    in through `_reference_insert`."""
    t = e = 0
    for i, sym in enumerate(word):
        if sym.kind in ("T", "Tinv"):
            s = 1 if sym.kind == "T" else -1
            t += s
            e += sum(algebra._t_crossing(n, s) for _, n in _ladder(word[:i]))
    state = {(t, ()): LaurentPoly.q_power(e, profile.nvars)}
    return _reference_terms(_reference_fold(state, _ladder(word), profile, memo))


def _reference_multiply(x, y, memo) -> list:
    """Ordered terms of x * y: each term of y, in order, folded into all the
    terms of x at once, the results summed."""
    out = {}
    for nw2, c2 in y._terms.items():
        state = {
            (nw1.t_exp, _ladder(nw1.generator_sequence())): c1 * c2
            for nw1, c1 in x._terms.items()
        }
        state = _reference_fold(state, nw2.generator_sequence(), x.profile, memo)
        for nw, c in _reference_terms(state):
            _accumulate(out, nw, c)
    return list(out.items())


def test_normalize_matches_the_one_rule_recursion():
    """Same terms, same coefficients and the same term order as the generic
    recursion: exhaustively up to four ladder letters, up to three letters
    with T-powers, and on long W-runs that the closed-form W placement and
    the single pass through the W-block shortcut."""
    letters = [L(n) for n in range(-2, 3)] + [W(n) for n in range(-2, 3)]
    words = [w for size in range(5) for w in itertools.product(letters, repeat=size)]
    words += [
        (W(1),) * 200 + (L(0),),
        (W(4),) * 100 + (W(-3),),
        (L(2),) + (W(3),) * 50 + (L(-1),),
    ]
    t_words = [w for w in itertools.product(letters + [T, T_INV], repeat=3) if {T, T_INV} & set(w)]
    for profile, extra in ((S, t_words), (G, [])):
        memo = {}
        for word in words + extra:
            got = list(normalize(word, profile)._terms.items())
            assert got == _reference_normalize(word, profile, memo), word


def test_multiply_matches_the_one_rule_recursion():
    """multiply against the recursion, term order included: every pair of
    normal words of up to two letters and a scalar, and multi-term left
    factors whose terms meet on one tail with different swap and
    T-crossing factors."""
    letters = [T, T_INV] + [L(n) for n in range(-2, 3)] + [W(n) for n in range(-2, 3)]
    words = [
        w for size in range(3) for w in itertools.product(letters, repeat=size) if is_normal(w)
    ]
    for profile in (S, G):
        memo = {}
        allowed = [w for w in words if profile is S or not {T, T_INV} & set(w)]
        elements = [normalize(w, profile) for w in allowed]
        elements.append(Element.unit(profile).scaled(q_int(3, profile.nvars)))
        lefts = elements + [
            normalize(w, profile)
            for w in [(L(2), L(1)), (W(1), L(-1), L(-2)), (L(1), W(2), L(-1), L(-2))]
        ]
        lefts.append(lefts[-1] + lefts[-2] + lefts[-3])
        if profile is S:
            lefts += [normalize((T, L(2), L(1)), S) + normalize((L(3), L(0), T_INV), S)]
        for x in lefts:
            for y in elements:
                got = list(multiply(x, y)._terms.items())
                assert got == _reference_multiply(x, y, memo), (x, y)


def test_generalized_relation_factors_are_homogeneous():
    """The generalized fold packs one total degree per integer image: every
    swap factor has degree 0 and every fuse factor degree -1."""
    letters = [("L", n) for n in range(-6, 7)] + [("W", n) for n in range(-6, 7)]
    for left, right in itertools.product(letters, [("L", n) for n in range(-6, 7)] + letters[13:]):
        swap, fuse, _ = algebra._pair_rule(left, right, G)
        assert {eq + ep for eq, ep in swap._terms} == {0}
        assert fuse is None or {eq + ep for eq, ep in fuse._terms} == {-1}


def _letter_by_letter_insert_l(tail, letter, profile, bits) -> dict:
    """`_insert_l` as it was: after the L insertion, every W letter of the
    block is placed back one at a time into every tail.  The reference for
    the carried block."""
    j = len(tail)
    while j and tail[j - 1][0] == "W":
        j -= 1
    if j == len(tail):
        return algebra._insert(tail, letter, profile, bits)
    fuses = [algebra._fuse_image(w, letter, profile, bits) for w in reversed(tail[j:])][::-1]
    gap, b = 2 if profile is S else -1, letter[1]
    state = algebra._insert(tail[:j], letter, profile, bits)
    for i, (w, fuse) in enumerate(zip(tail[j:], fuses), j):
        out = {}
        for u, (n, e, l) in state.items():
            u, d = algebra._place_w(u, w)
            out[u] = n, e + gap * (d + b - w[1]), l
        if fuse is not None:
            n, e, l, fused = fuse
            u, d = algebra._place_w(tail[:i], fused)
            laurent._add_image(out, u, n, e + gap * d, l, bits)
        state = out
    return state


def test_carried_w_block_matches_the_letter_by_letter_loop():
    """Every normal tail of up to four letters L[n], W[n], |n| <= 2, times
    every L[b], |b| <= 2, in both profiles: the same tails, images and
    order as placing the W-block back one letter at a time.  Among them
    are fused terms that cancel a tail of the block carried whole."""
    letters = [("L", n) for n in range(-2, 3)] + [("W", n) for n in range(-2, 3)]
    tails = [
        t for size in range(5) for t in itertools.product(letters, repeat=size)
        if all(algebra._in_order(a, b) for a, b in zip(t, t[1:]))
    ]
    cancelled = 0
    for profile in (S, G):
        for tail in tails:
            for b in range(-2, 3):
                want = _letter_by_letter_insert_l(tail, ("L", b), profile, 64)
                got = algebra._insert_l(tail, ("L", b), profile, 64)
                assert list(got.items()) == list(want.items()), (tail, b, profile)
                j = sum(kind == "L" for kind, _ in tail)
                cancelled += len(want) < len(algebra._insert(tail[:j], ("L", b), profile, 64))
    assert cancelled


def _folds_at(monkeypatch) -> list:
    """A list that gains the lane width of every fold from here on."""
    widths = []
    real = algebra._fold
    monkeypatch.setattr(algebra, "_fold", lambda *a: widths.append(a[-1]) or real(*a))
    return widths


def test_coefficients_past_the_lane_width_force_one_wider_run(monkeypatch):
    """A coefficient above 2^63 cannot be read back from 64-bit lanes, so
    the product runs once more, wider, and matches the recursion."""
    widths = _folds_at(monkeypatch)
    for profile in (S, G):
        big = LaurentPoly.monomial(2**100 + 1, 1, 0, nvars=profile.nvars)
        x = element_from(L(1), profile).scaled(big + 1)
        y = normalize((L(-1), L(2)), profile)
        widths.clear()
        got = list(multiply(x, y)._terms.items())
        assert got == _reference_multiply(x, y, {})
        assert widths[0] == 64 and len(widths) == 2 and widths[1] > 101, widths


def test_coefficients_across_lane_boundaries():
    """Digits next to each other with opposite signs borrow across lanes:
    +-(2^63 - 1) beside -+1, -1 beside +1, and 2^64 - q, whose image at
    64-bit lanes is 0 although it is not."""
    top = 2**63 - 1
    y = normalize((L(-1), L(2), W(1)))
    for a, b in ((top, -1), (-top, 1), (-1, 1), (1, -1), (2**64, -1)):
        for profile in (S, G):
            nv = profile.nvars
            c = LaurentPoly({(0, 0): a, (1, -1) if nv == 2 else (1, 0): b}, nv)
            x = element_from((L(1), L(-2)), profile).scaled(c)
            yy = y if profile is S else normalize((L(-1), L(2), W(1)), G)
            assert list(multiply(x, yy)._terms.items()) == _reference_multiply(x, yy, {})


def test_sparse_coefficients_pack_by_bucket():
    """A coefficient whose exponents lie far apart packs one integer per run
    of lanes, not one as wide as its span, and each product of pieces keys
    on the bucket it starts in; the pieces meet again when decoded."""
    for profile in (S, G):
        nv = profile.nvars
        far = (2**20, 0) if nv == 1 else (-(2**20), 2**20)
        c = LaurentPoly({far: 3, (0, 0): 1, (-3, 0): -2}, nv)
        x = element_from((L(1), W(2)), profile).scaled(c)
        y = normalize((L(-1), L(2)), profile)
        for left, right in ((x, y), (y, x), (x + y, x)):
            assert list(multiply(left, right)._terms.items()) == _reference_multiply(left, right, {})


def test_a_sparse_coefficient_decodes_in_few_lanes(monkeypatch):
    """Counted, not timed: (q^n + q^-n) L[1] times L[-1] packs its two terms
    as two pieces, so no decoded image spans the 2n lanes between them."""
    read = []
    real = laurent._signed_digits

    def spy(n, bits):
        read.append(n.bit_length() // bits + 1)
        return real(n, bits)

    monkeypatch.setattr(laurent, "_signed_digits", spy)
    for n in (2000, 30000):
        read.clear()
        got = multiply(parse_element(f"(q^{n} + q^-{n}) L[1]"), parse_element("L[-1]"))
        assert element_text(got) == (
            f"(q^{n - 4} + q^-{n + 4}) * L[-1] L[1]"
            f" + (-q^{n - 1} - q^{n - 3} - q^-{n + 1} - q^-{n + 3}) * L[0]"
        )
        assert sum(read) < 20, read


def test_generalized_products_of_mixed_degrees():
    """Terms of different total degree never share an integer image: a
    coefficient mixing degrees, and a sum whose terms start at different
    kappa, both against the recursion."""
    c = LaurentPoly({(1, 0): 1, (0, 3): 1, (-2, 1): 1}, 2)
    x = normalize((L(2), W(1)), G).scaled(c)
    y = normalize((L(-1), L(3)), G)
    mixed = normalize((L(2), L(1)), G) + normalize((W(1), L(-1), L(-2)), G)
    mixed = mixed + normalize((L(3),), G).scaled(c)
    for left, right in ((x, y), (y, x), (mixed, y), (y, mixed), (mixed, mixed)):
        assert list(multiply(left, right)._terms.items()) == _reference_multiply(left, right, {})


def _random_coefficient(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-4, 4), rng.randint(-3, 3) if nvars == 2 else 0)
        terms[key] = rng.choice((-1, 1)) * rng.randint(1, 2**rng.choice((3, 40, 70)))
    return LaurentPoly(terms, nvars)


def test_seeded_differential_check_with_polynomial_coefficients():
    """normalize and multiply against the recursion, in both profiles, and
    tensor_multiply against slotwise products, on elements with multi-term
    coefficients of all sizes."""
    rng = random.Random(2024)
    one = LaurentPoly.one()
    for profile in (S, G):
        syms = [L(n) for n in range(-3, 4)] + [W(n) for n in range(-3, 4)]
        syms += [T, T_INV] if profile is S else []
        memo = {}

        def word(size):
            return tuple(rng.choice(syms) for _ in range(size))

        def element():
            terms = [
                element_from(word(rng.randint(1, 3)), profile).scaled(
                    _random_coefficient(rng, profile.nvars)
                )
                for _ in range(2)
            ]
            return terms[0] + terms[1]

        for _ in range(40):
            w = word(rng.randint(0, 5))
            got = list(normalize(w, profile)._terms.items())
            assert got == _reference_normalize(w, profile, memo)
            x, y = element(), element()
            assert list(multiply(x, y)._terms.items()) == _reference_multiply(x, y, memo)
            if profile is S:
                u, v = tensor_of(x, y), tensor_of(y, x)
                expected = {}
                for (a1, a2), c in u._terms.items():
                    for (b1, b2), d in v._terms.items():
                        left = multiply(Element(S, {a1: c}), Element(S, {b1: d}))
                        right = multiply(Element(S, {a2: one}), Element(S, {b2: one}))
                        for key, f in tensor_of(left, right)._terms.items():
                            _accumulate(expected, key, f)
                assert (u * v)._terms == expected


def test_t_crossings_at_the_edge_of_the_exponent_window():
    """A T-crossing landing on +-(2^63 - 1) returns; one step past raises."""
    edge = 2**63 - 1
    for s in (1, -1):
        t = element_from(NormalWord(t_exp=s * (2**62 - 1)))
        inside = element_from(L(0)).scaled(LaurentPoly.q_power(s))
        ((nw, c),) = multiply(inside, t).terms()
        assert c == LaurentPoly.q_power(s * edge) and nw.l_block == ((0, 1),)
        outside = element_from(L(0)).scaled(LaurentPoly.q_power(2 * s))
        with pytest.raises(ArithmeticBoundError, match="left the checked 64-bit window"):
            multiply(outside, t)


def _count_work(monkeypatch) -> tuple:
    """Lists that gain one entry per nontrivial insertion, Laurent product,
    `_place_w` call and decode of an image (`laurent._from_image`) from
    here on."""
    work = [], [], [], []
    counted = [(algebra, "_insert_steps"), (laurent, "_mul_terms"), (algebra, "_place_w"),
               (laurent, "_from_image")]
    for (module, name), counts in zip(counted, work):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, c=counts: c.append(1) or real(*a))
    return work


# Work of (xy)z and x(yz) on the heaviest triple of an associator benchmark
# round, every cache cold: nontrivial insertions of an L letter into an
# L-only tail, Laurent products, W placements and decodes.  The fold carries
# integer images, so its only products build the relation factors; a letter
# in order appends and a W-block crosses an L letter whole, so placements
# are left to letters out of order and fused terms.
ASSOC_TRIPLE = ((L(2), W(-1), L(0)), (W(3), L(-3), L(4)), (L(-1), L(-4), W(-5)))
ASSOC_WORK_CEILINGS = {"(xy)z": (85, 39, 670, 357), "x(yz)": (70, 59, 870, 365)}


def test_associator_work_counts(monkeypatch, cold_caches):
    """Counted work, not time: W letters are placed in closed form, so only
    L-block insertions reach the memoized recursion; coefficients are
    integer images, so swap factors and merges make no Laurent product."""
    work = _count_work(monkeypatch)
    counts = {}
    for grouping in ASSOC_WORK_CEILINGS:
        cold_caches()
        for w in work:
            w.clear()
        x, y, z = (element_from(w) for w in ASSOC_TRIPLE)
        product = multiply(multiply(x, y), z) if grouping == "(xy)z" else multiply(x, multiply(y, z))
        assert not product.is_zero()
        counts[grouping] = tuple(map(len, work))
    assert all(
        all(n <= ceiling for n, ceiling in zip(counts[g], ceilings))
        for g, ceilings in ASSOC_WORK_CEILINGS.items()
    ), counts


def test_products_of_normal_forms_make_no_laurent_arithmetic(monkeypatch):
    """With the relation factors at hand, multiply of two normal forms makes
    no Laurent product: the fold runs on integer images."""
    x, y, z = (element_from(w) for w in ASSOC_TRIPLE)
    gx, gy = (normalize(w, G) for w in ASSOC_TRIPLE[:2])
    pairs = [(x, y), (y, z), (multiply(x, y), z), (gx, gy), (gy, gx)]
    for a, b in pairs:
        multiply(a, b)
    products = _count_work(monkeypatch)[1]
    for a, b in pairs:
        multiply(a, b)
    assert not products


# -- element arithmetic ------------------------------------------------------


def test_unit_and_zero():
    one = Element.unit()
    zero = Element.zero()
    x = normalize((L(2), W(-1)))
    assert multiply(one, x) == x
    assert multiply(x, one) == x
    assert x + zero == x
    assert x - x == zero
    assert element_text(zero) == "0"
    assert element_text(one) == "1"


def test_multiply_is_bilinear():
    rng = random.Random(5)
    syms = [T, T_INV] + [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    for _ in range(40):
        a = normalize(tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))))
        b = normalize(tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))))
        c = normalize(tuple(rng.choice(syms) for _ in range(rng.randint(0, 3))))
        s = q_int(rng.randint(2, 5))
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)
        assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
        assert multiply(a.scaled(s), b) == multiply(a, b).scaled(s)
        assert multiply(a, b.scaled(s)) == multiply(a, b).scaled(s)


def test_multiply_concatenates_before_rewriting():
    x = normalize((L(2),))
    y = normalize((L(1),))
    assert multiply(x, y) == normalize((L(2), L(1)))
    assert element_text(multiply(y, x)) == "L[1] L[2]"


def test_profiles_never_mix():
    with pytest.raises(ProfileError):
        multiply(normalize((L(1),)), normalize((L(1),), G))
    with pytest.raises(ProfileError):
        normalize((L(1),)) + normalize((L(1),), G)


def test_known_overlap_obstruction():
    """The ladder overlap L1.L-1.L-2 does not resolve: the two complete
    reduction orders disagree by an exact residual that vanishes at q = 1.
    This pins the deterministic strategy's output on both association orders.
    """
    x, y, z = (element_from(L(n)) for n in (1, -1, -2))
    left = multiply(multiply(x, y), z)
    right = multiply(x, multiply(y, z))
    residual = left - right
    want = (
        element_from(NormalWord(0, ((-3, 1), (1, 1)), ())).scaled(qp(-9) - qp(-11))
        + element_from(NormalWord(0, ((-2, 1),), ())).scaled(qp(-4) - qp(-8))
        + element_from(NormalWord(0, ((-2, 1), (0, 1)), ())).scaled(
            qp(-9) + qp(-11) - qp(-5) - qp(-7)
        )
        + element_from(NormalWord(0, ((-1, 2),), ())).scaled(qp(-3) - qp(-9))
    )
    assert residual == want
    assert classical_limit(residual).is_zero()


def test_t_crossing_obstruction():
    """A fused pair crosses T with weight 2(m+n+1), the unfused factors with
    2(m+1) + 2(n+1); the q^2 gap makes the orders of fusion and crossing
    observable, so this triple breaks associativity."""
    x = element_from(L(1))
    y = element_from(L(0))
    t = element_from(T)
    a = multiply(multiply(x, y), t)
    b = multiply(x, multiply(y, t))
    assert element_text(a) == "q^4 * T L[0] L[1] - q^3 * T L[1]"
    assert element_text(b) == "q^4 * T L[0] L[1] - q^5 * T L[1]"


# -- brackets, limits, substitution -------------------------------------------


def test_q_bracket_reproduces_fusion():
    for m, n in rel_pairs(-5, 5):
        got = q_bracket(element_from(L(n)), element_from(L(m)), qp(n - m), qp(m - n))
        assert got == element_from(L(m + n)).scaled(q_int(m - n))
        got = q_bracket(element_from(W(n)), element_from(L(m)), qp(n - m), qp(m - n))
        assert got == element_from(W(m + n)).scaled(q_int(m - n))
        got = q_bracket(element_from(W(n)), element_from(W(m)), qp(n - m), qp(m - n))
        assert got.is_zero()
    # Generalized: q^(n-m) X[n] Y[m] - p^(n-m) Y[m] X[n] = -[n-m]_2 Z[m+n].
    g = lambda sym: element_from(sym, G)
    for m, n in rel_pairs(-5, 5):
        got = q_bracket(g(L(n)), g(L(m)), qp2(n - m), pp(n - m))
        assert got == g(L(m + n)).scaled(-q_int(n - m, 2))
        got = q_bracket(g(W(n)), g(L(m)), qp2(n - m), pp(n - m))
        assert got == g(W(m + n)).scaled(-q_int(n - m, 2))
        got = q_bracket(g(W(n)), g(W(m)), qp2(n - m), pp(n - m))
        assert got.is_zero()


def test_classical_limit_is_the_lie_bracket():
    for m, n in rel_pairs(-4, 4):
        lm, ln = element_from(L(m)), element_from(L(n))
        commutator = multiply(lm, ln) - multiply(ln, lm)
        got = classical_limit(commutator)
        assert got.terms() == (
            ((NormalWord(0, ((m + n, 1),), ()), Fraction(n - m)),)
            if m != n
            else ()
        )


def test_evaluate_exactness():
    x = normalize((L(2), L(1)))
    num = evaluate(x, Fraction(3, 2))
    for nw, c in x.terms():
        assert num.terms()[[t[0] for t in num.terms()].index(nw)][1] == c.eval(
            Fraction(3, 2)
        )
    with pytest.raises(EvaluationDomainError):
        evaluate(x, Fraction(0))
    y = normalize((L(2), L(1)), G)
    with pytest.raises(ProfileError):
        evaluate(y, Fraction(2))
    assert str(evaluate(element_from(L(1)).scaled(qp(1)), Fraction(2))) == "2 * L[1]"
    mixed = (
        element_from(L(1)).scaled(qp(1) - 3 * qp(2))
        + element_from(-3)
        + element_from(W(-2)).scaled(qp(-1))
    )
    half = evaluate(mixed, Fraction(1, 2))
    assert str(half) == "-3 + 2 * W[-2] - 1/4 * L[1]"
    assert str(evaluate(mixed, Fraction(-2, 3))) == "-3 - 3/2 * W[-2] - 2 * L[1]"
    assert str(classical_limit(mixed)) == "-3 + W[-2] - 2 * L[1]"
    assert str(evaluate(element_from(-3), Fraction(1, 2))) == "-3"
    assert str(evaluate(element_from(1) - element_from(L(0)), 2)) == "1 - L[0]"
    assert half.to_json_obj() == {
        "terms": [
            {"coeff": "-3", "t": 0, "l": [], "w": []},
            {"coeff": "2", "t": 0, "l": [], "w": [[-2, 1]]},
            {"coeff": "-1/4", "t": 0, "l": [[1, 1]], "w": []},
        ]
    }


def test_substitute_p_inverse_recovers_standard():
    rng = random.Random(3)
    syms = [L(n) for n in range(-4, 5)] + [W(n) for n in range(-4, 5)]
    for _ in range(60):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(0, 4)))
        collapsed = substitute_p_inverse(normalize(word, G))
        assert collapsed == normalize(word, S)
    with pytest.raises(ProfileError):
        substitute_p_inverse(normalize((L(1),), S))


# -- text form ----------------------------------------------------------------


def test_element_text_conventions():
    assert element_text(element_from(L(0)).scaled(-LaurentPoly.one())) == "-L[0]"
    assert element_text(element_from(W(2)).scaled(q_int(2))) == "(q + q^-1) * W[2]"
    assert element_text(element_from(3)) == "3"
    # pure-W words carry an empty L-block, which sorts ahead of any L-word
    assert (
        element_text(element_from(L(1)) - element_from(W(1)).scaled(qp(-1)))
        == "-q^-1 * W[1] + L[1]"
    )
    assert element_text(element_from(NormalWord(-2, (), ((0, 3),)))) == "T^-2 W[0]^3"


def _pairs_of_each_type():
    """Two values x, y of each sparse linear-combination type, with a term
    in common so that sums collect and cancel."""
    x = normalize((L(2), L(1)))
    y = (
        element_from(L(1)).scaled(q_int(2))
        + element_from(NormalWord(0, ((1, 1), (2, 1)), ()))
        + element_from(3)
    )
    yield "Element", x, y
    yield "TensorElement", coproduct(x), coproduct(y) - tensor_of(x, y)
    q = OscillatorProfile.Q_DEFORMED
    u = basis_vector(q, 2, 0).scaled(q_int(2)) - basis_vector(q, -1, 1)
    yield "ModuleVector", u, basis_vector(q, 2, 0).scaled(-qp(1)) + basis_vector(q, 4, 0)
    yield "NumericElement", evaluate(x, Fraction(2, 3)), evaluate(y, Fraction(-1, 2))


@pytest.mark.parametrize(
    "name, x, y", [pytest.param(*case, id=case[0]) for case in _pairs_of_each_type()]
)
def test_linear_combinations_share_one_arithmetic(name, x, y):
    assert type(x).__name__ == name
    again = (x + y) - y
    assert again == x and hash(again) == hash(x)
    assert x + y == y + x
    assert (x + (-x)).is_zero()
    assert x.scaled(0).is_zero()
    assert x - x == x.scaled(0)
    assert not x.is_zero() and x != x + y
    with pytest.raises(AttributeError):
        x._terms = {}


@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.sampled_from(
            [T, T_INV, L(-3), L(0), L(2), W(-2), W(1), W(3)],
        ),
        max_size=5,
    )
)
def test_normalize_is_a_projection(word):
    el = normalize(tuple(word))
    for nw, c in el.terms():
        again = normalize(nw.generator_sequence())
        assert again == Element(S, {nw: LaurentPoly.one()})
