"""Coproduct, counit, and antipode for the standard profile.

T is group-like, and both generator ladders are T-twisted primitive:

    delta(T)    = T (x) T
    delta(L[n]) = L[n] (x) T^n  +  T^n (x) L[n]
    delta(W[n]) = W[n] (x) T^n  +  T^n (x) W[n]
    eps(T^d) = 1,   eps(L[n]) = eps(W[n]) = 0
    S(T) = T^-1,    S(X[n]) = -T^-n X[n] T^-n     (X either ladder)

delta extends as an algebra map (images multiplied left to right), S as an
anti-map (images of the reversed word).  Everything here is exact; the
generalized two-parameter profile has no Hopf layer and is rejected.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import groupby
from math import comb

from .algebra import (
    STANDARD,
    Combination,
    Element,
    GeneratorSymbol,
    L,
    NormalWord,
    T,
    T_INV,
    UNIT_WORD,
    W,
    Word,
    _add_scaled,
    _add_term,
    _bracket,
    _chain,
    _exact,
    _product_state,
    _t_crossing,
    element_from,
    multiply,
    normalize,
    product_chain,
)
from .errors import ArithmeticBoundError, ProfileError
from .laurent import EXPONENT_BOUND, LaurentPoly, _add_image, _bucket, _pieces


def _require_standard(x: Element):
    if x.profile is not STANDARD:
        raise ProfileError("the Hopf structure lives on the standard profile")


class TensorElement(Combination):
    """A finite sum of tensors of normal words, standard profile: two slots
    for the coproduct, three for the coassociativity diagram."""

    __slots__ = ()
    _sort_key = staticmethod(lambda key: tuple(map(NormalWord.sort_key, key)))
    _key_text = staticmethod(lambda key: " (x) ".join([f"({Element._key_text(w) or '1'})" for w in key]))
    _key_json = staticmethod(lambda key: {"slots": [Element._key_json(w) for w in key]})

    def __init__(self, terms: dict | None = None):
        for c in (terms or {}).values():
            if c.nvars != 1:
                raise ProfileError("tensor coefficients live in the one-variable ring")
        super().__init__(STANDARD, terms)

    @staticmethod
    def unit() -> "TensorElement":
        return TensorElement({(UNIT_WORD, UNIT_WORD): LaurentPoly.one()})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_multiply(self, other)
        return Combination.__mul__(self, other)

    def __str__(self):
        return tensor_text(self)


def tensor_of(x: Element, y: Element) -> TensorElement:
    """Outer product of two Elements as a TensorElement."""
    _require_standard(x)
    _require_standard(y)
    out = {}
    for nw1, c1 in x._terms.items():
        for nw2, c2 in y._terms.items():
            v = c1 * c2
            if v:
                out[(nw1, nw2)] = v
    return TensorElement._raw(STANDARD, out)


def _tensor_state(tensors, bits: int) -> dict:
    """The image state {((t1, tail1), (t2, tail2), (0, bucket)): image} of the
    products of tensors (term maps): per entry and term, the slots' fold states
    (a right slot once per step; never empty, a longest word coming from swaps
    alone) multiplied as integers.  Raises past |t| <= 2^63 - 1, |e| <= 2^61."""
    one, safe, bound = LaurentPoly.one(), EXPONENT_BOUND >> 2, EXPONENT_BOUND
    state = {(a1, a2, (0, _bucket(e))): (n, e, l)
             for (a1, a2), c in tensors[0].items() for _, n, e, l in _pieces(c, bits)}
    for v in tensors[1:]:
        rights, out = {}, {}
        for ((t, w), a2, k), image in state.items():
            for (b1, b2), d in v.items():
                left = _product_state((((t, w, k), image),), ((b1, d),), STANDARD, bits)
                if (a2, b2) not in rights:
                    rights[a2, b2] = _chain(((a2, one),), (((b2, one),),), STANDARD, bits)
                for (t1, w1, _), (n1, e1, l1) in left.items():
                    for (t2, w2, _), (n2, e2, l2) in rights[a2, b2].items():
                        if abs(e1) > safe or abs(e2) > safe or abs(t1) > bound or abs(t2) > bound:
                            raise ArithmeticBoundError("a slot near the edge of the exponent window")
                        e = e1 + e2
                        _add_image(out, ((t1, w1), (t2, w2), (0, _bucket(e))), n1 * n2, e, l1 * l2, bits)
        state = out
    return state


def _pairwise_product(u: dict, v: dict) -> dict:
    """u v, each pair's slots decoded and their coefficients then multiplied."""
    one, out = LaurentPoly.one(), {}
    for (a1, a2), c in u.items():
        for (b1, b2), d in v.items():
            left = _exact(_chain, (((a1, c),), (((b1, d),),), STANDARD), STANDARD)
            right = _exact(_chain, (((a2, one),), (((b2, one),),), STANDARD), STANDARD)
            for n1, f1 in left.items():
                for n2, f2 in right.items():
                    _add_term(out, (n1, n2), f1 * f2)
    return out


def tensor_multiply(*tensors: TensorElement) -> TensorElement:
    """Slotwise product of tensors, left to right (each slot normally ordered
    on its own), on one image state decoded once per output term; near the
    edge of the exponent window pairwise, step by step, as errors are met.
    The product of none is the unit."""
    if not tensors:
        return TensorElement.unit()
    terms = [t._terms for t in tensors]
    if any(len(key) != 2 for t in terms for key in t):
        raise ValueError("tensor_multiply takes two-slot tensors")
    pair = lambda w1, w2: (tuple.__new__(NormalWord, w1), tuple.__new__(NormalWord, w2))
    try:
        return TensorElement._raw(STANDARD, _exact(_tensor_state, (terms,), STANDARD, word=pair))
    except ArithmeticBoundError:
        return TensorElement._raw(STANDARD, reduce(_pairwise_product, terms))


def flip(t: TensorElement) -> TensorElement:
    if any(len(key) != 2 for key in t._terms):
        raise ValueError("flip takes a two-slot tensor")
    return TensorElement._raw(STANDARD, {(b, a): c for (a, b), c in t._terms.items()})


# -- the three structure maps ----------------------------------------------


def _t_word(d: int) -> Word:
    return tuple([T if d > 0 else T_INV] * abs(d))


def _t_power(d: int) -> Element:
    return element_from(NormalWord(t_exp=d))


def _factors(word: Word) -> tuple:
    """A free word's factor stream: its ladder letters, and ("T", d) for each
    maximal run of T and T^-1 with net power d; the empty word is one run."""
    out = []
    for is_t, run in groupby(word, key=lambda sym: sym.kind in ("T", "Tinv")):
        out += [("T", sum(1 if sym.kind == "T" else -1 for sym in run))] if is_t else run
    return tuple(out) or (("T", 0),)


# A cold `cli` round hits each of the two factor memos 198 / 24 misses;
# without both, `cli` ran 4.9% slower (slower in 8 of 12 pairs).
@lru_cache(maxsize=512)
def _factor_coproduct(factor) -> TensorElement:
    """delta of a factor: T^d (x) T^d, or X[n] (x) T^n + T^n (x) X[n]."""
    kind, n = factor
    one, tn = LaurentPoly.one(), NormalWord(t_exp=n)
    if kind == "T":
        return TensorElement._raw(STANDARD, {(tn, tn): one})
    gen = NormalWord(l_block=((n, 1),)) if kind == "L" else NormalWord(w_block=((n, 1),))
    return TensorElement._raw(STANDARD, {(gen, tn): one, (tn, gen): one})


@lru_cache(maxsize=512)
def _factor_antipode(factor) -> tuple:
    """S of a factor as terms: T^-d, or -T^-n X[n] T^-n, whose T-powers
    cross X[n] in closed form, so |n| costs nothing extra."""
    kind, n = factor
    t = ((NormalWord(t_exp=-n), LaurentPoly.one()),)
    if kind == "T":
        return t
    gen = NormalWord(l_block=((n, 1),)) if kind == "L" else NormalWord(w_block=((n, 1),))
    return tuple(product_chain((t, ((gen, -LaurentPoly.one()),), t), STANDARD)._terms.items())


def _coproduct_of(factors: tuple) -> TensorElement:
    """delta of a factor stream: the product of the factor images."""
    return tensor_multiply(*map(_factor_coproduct, factors))


def _antipode_of(factors: tuple) -> Element:
    """S of a factor stream: the factor images multiplied in reverse."""
    return product_chain(map(_factor_antipode, reversed(factors)), STANDARD)


def map_word_coproduct(word: Word) -> TensorElement:
    """delta on a free word, a T-run mapping to T^d (x) T^d in one step."""
    return _coproduct_of(_factors(word))


def map_word_antipode(word: Word) -> Element:
    """S on a free word, a T-run mapping to T^-d in one step."""
    return _antipode_of(_factors(word))


def map_word_counit(word: Word) -> LaurentPoly:
    for sym in word:
        if sym.kind in ("L", "W"):
            return LaurentPoly.zero()
    return LaurentPoly.one()


# A cold `cli` round hits each of the two word memos 52 / 64 misses; without
# both, `cli` ran 5.0% slower (slower in 11 of 12 pairs).
@lru_cache(maxsize=1 << 14)
def _word_coproduct(nw: NormalWord) -> TensorElement:
    return _coproduct_of((("T", nw.t_exp), *nw.letters))


@lru_cache(maxsize=1 << 14)
def _word_antipode(nw: NormalWord) -> Element:
    return _antipode_of((("T", nw.t_exp), *nw.letters))


def coproduct(x: Element) -> TensorElement:
    _require_standard(x)
    out: dict = {}
    for nw, c in x._terms.items():
        _add_scaled(out, _word_coproduct(nw)._terms, c)
    return TensorElement._raw(STANDARD, out)


def counit(x: Element) -> LaurentPoly:
    _require_standard(x)
    total = LaurentPoly.zero()
    for nw, c in x._terms.items():
        if not nw.letters:
            total = total + c
    return total


def antipode(x: Element) -> Element:
    _require_standard(x)
    out: dict = {}
    for nw, c in x._terms.items():
        _add_scaled(out, _word_antipode(nw)._terms, c)
    return Element._raw(STANDARD, out)


def power_closed_form(map_name: str, gen_kind: str, n: int, r: int):
    """Binomial closed forms for delta and S on an r-th generator power.

    delta(X[n]^r) = sum_i C(r, i) X[n]^(r-i) T^(i n) (x) T^((r-i) n) X[n]^i
    S(X[n]^r)     = (-1)^r T^(-r n) X[n]^r T^(-r n)
    """
    if gen_kind not in ("L", "W"):
        raise ValueError("gen_kind must be 'L' or 'W'")
    if r < 0:
        raise ValueError("power must be nonnegative")
    power = lambda k: normalize((GeneratorSymbol(gen_kind, n),) * k, STANDARD)
    if map_name == "delta":
        total = TensorElement()
        for i in range(r + 1):
            left = multiply(power(r - i), _t_power(i * n))
            right = multiply(_t_power((r - i) * n), power(i))
            total = total + tensor_of(left, right).scaled(comb(r, i))
        return total
    if map_name == "antipode":
        t = _t_power(-r * n)
        body = multiply(multiply(t, power(r)), t)
        return body if r % 2 == 0 else -body
    raise ValueError("map_name must be 'delta' or 'antipode'")


# -- law checks -------------------------------------------------------------
#
# Each law maps its argument to the difference of its two sides, so the law
# holds exactly where that difference is zero.


def _with_slot(key: tuple, slot: int, *values) -> tuple:
    """key with its entry at slot replaced by values."""
    return key[:slot] + values + key[slot + 1 :]


def _delta_in_slot(slot: int, x: Element) -> TensorElement:
    """(delta (x) 1) delta x at slot 0, (1 (x) delta) delta x at slot 1."""
    out: dict = {}
    for key, c in coproduct(x)._terms.items():
        for pair, d in _word_coproduct(key[slot])._terms.items():
            _add_term(out, _with_slot(key, slot, *pair), c * d)
    return TensorElement._raw(STANDARD, out)


def _counit_diagram(slot: int, x: Element) -> TensorElement:
    """(eps (x) 1) delta = 1 (x) x at slot 0, (1 (x) eps) delta = x (x) 1 at 1."""
    got = {}
    for key, c in coproduct(x)._terms.items():
        if not key[slot].letters:
            _add_term(got, _with_slot(key, slot, UNIT_WORD), c)
    want = tensor_of(*_with_slot((x, x), slot, Element.unit(STANDARD)))
    return TensorElement._raw(STANDARD, got) - want


def _antipode_diagram(slot: int, x: Element) -> Element:
    """m (S (x) 1) delta = eps * 1 at slot 0, m (1 (x) S) delta = eps * 1 at 1."""
    got = {}
    for key, c in coproduct(x)._terms.items():
        factors = _with_slot(tuple(map(element_from, key)), slot, _word_antipode(key[slot]))
        _add_scaled(got, multiply(*factors)._terms, c)
    return Element._raw(STANDARD, got) - Element.unit(STANDARD).scaled(counit(x))


# The structure maps on free words, each with the zero of its target.
_WORD_MAPS = {
    "delta": (map_word_coproduct, TensorElement),
    "eps": (map_word_counit, LaurentPoly.zero),
    "s": (map_word_antipode, lambda: Element.zero(STANDARD)),
}

# Relation ids usable in relation-preservation checks: each maps (m, n) to
# scalar-weighted free words for the two sides of a defining relation, the
# T-crossing T^m X[n] = q^-e X[n] T^m (tl, tw) or the bracket form of the
# pair X[m] Y[n] with the letters named here (ll, lw, ww).
_PAIRS = {"ll": (L, L), "lw": (W, L), "ww": (W, W)}
_RELATIONS = ("tl", "tw", *_PAIRS)


def _relation_words(rel: str, m: int, n: int):
    if rel == "tl" or rel == "tw":
        sym = L(n) if rel == "tl" else W(n)
        lhs = [(LaurentPoly.one(), _t_word(m) + (sym,))]
        rhs = [(LaurentPoly.q_power(-_t_crossing(n, m)), (sym,) + _t_word(m))]
        return lhs, rhs
    if rel in _PAIRS:
        make_left, make_right = _PAIRS[rel]
        return _bracket(make_left(m), make_right(n), STANDARD)
    raise ValueError(f"unknown relation id {rel!r}")


def _preservation(map_name: str, rel: str, m: int, n: int):
    mapper, zero = _WORD_MAPS[map_name]
    left, right = (
        sum((mapper(word) * scalar for scalar, word in side), zero())
        for side in _relation_words(rel, m, n)
    )
    return left - right


def _commutator(m: int, n: int) -> Element:
    x, y = element_from(L(m)), element_from(L(n))
    return multiply(x, y) - multiply(y, x)


def _flip_difference(x: Element) -> TensorElement:
    t = coproduct(x)
    return flip(t) - t


# The law families the check suites iterate: laws on a standard Element, on
# an (x, y) pair of them, and relation preservation at indices (m, n).
GENERATOR_LAWS = {
    "coassoc": lambda x: _delta_in_slot(0, x) - _delta_in_slot(1, x),
    "counit-left": partial(_counit_diagram, 0),
    "counit-right": partial(_counit_diagram, 1),
    "antipode-left": partial(_antipode_diagram, 0),
    "antipode-right": partial(_antipode_diagram, 1),
    "s-squared": lambda x: antipode(antipode(x)) - x,
}
PAIR_LAWS = {
    "delta-hom": lambda x, y: (
        coproduct(multiply(x, y)) - tensor_multiply(coproduct(x), coproduct(y))
    ),
    "s-antihom": lambda x, y: antipode(multiply(x, y)) - multiply(antipode(y), antipode(x)),
}
PRESERVATION_LAWS = {
    f"{map_name}-{rel}": partial(_preservation, map_name, rel)
    for map_name in _WORD_MAPS
    for rel in _RELATIONS
}

# Argument families: (description, arity, type of each entry).
_ELEMENT = ("an Element", 1, Element)
_ELEMENT_PAIR = ("an (x, y) pair of Elements", 2, Element)
_INDEX_PAIR = ("an (m, n) pair of ints", 2, int)

# The one table of laws: id -> (argument family, law).  A -witness law
# exhibits a violation where its difference is nonzero.
_LAWS = {
    law_id: (family, law)
    for family, laws in (
        (_ELEMENT, {**GENERATOR_LAWS, "cocommutativity-witness": _flip_difference}),
        (_ELEMENT_PAIR, PAIR_LAWS),
        (_INDEX_PAIR, {**PRESERVATION_LAWS, "commutativity-witness": _commutator}),
    )
    for law_id, law in laws.items()
}


def check_axiom(axiom: str, arg=None) -> tuple:
    """Verify one law of `_LAWS` on arg; returns (ok, witness).

    arg is an Element for the GENERATOR_LAWS and cocommutativity-witness, an
    (x, y) pair of Elements for the PAIR_LAWS, and an (m, n) pair of ints
    for the PRESERVATION_LAWS ("<map>-<relation>", map in delta/eps/s,
    relation in tl/tw/ll/lw/ww) and commutativity-witness.  The witness is
    the difference of the law's two sides, None when it vanishes.  The
    convention is inverted for the two -witness laws: ok means a violation
    was exhibited.  An unknown id or an argument of another family raises
    ValueError, an Element outside the standard profile ProfileError.
    """
    if axiom not in _LAWS:
        raise ValueError(f"unknown axiom id {axiom!r}")
    (takes, arity, kind), law = _LAWS[axiom]
    args = (arg,) if arity == 1 else arg
    if not (
        isinstance(args, (tuple, list))
        and len(args) == arity
        and all(isinstance(v, kind) for v in args)
    ):
        raise ValueError(f"axiom {axiom!r} takes {takes}, got {arg!r}")
    if kind is Element:
        for x in args:
            _require_standard(x)
    diff = law(*args)
    found = not diff.is_zero()
    return (found if axiom.endswith("-witness") else not found), (diff if found else None)


# -- rendering ---------------------------------------------------------------


def tensor_text(t: TensorElement) -> str:
    """Canonical text: `coeff * (a) (x) (b)` terms joined by signs, the
    unit word written 1."""
    return t._render()
