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

from functools import lru_cache, partial
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
    _exact,
    _product_state,
    _t_crossing,
    element_from,
    multiply,
    normalize,
)
from .errors import ProfileError
from .laurent import LaurentPoly


def _require_standard(x: Element):
    if x.profile is not STANDARD:
        raise ProfileError("the Hopf structure lives on the standard profile")


class TensorElement(Combination):
    """A finite sum of tensors of normal words, standard profile: two slots
    for the coproduct, three for the coassociativity diagram."""

    __slots__ = ()
    _sort_key = staticmethod(lambda term: tuple(map(NormalWord.sort_key, term[0])))
    _key_text = staticmethod(lambda key: " (x) ".join([f"({w.text() or '1'})" for w in key]))

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

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"coeff": c.to_json_obj(), "slots": [w.to_json_obj() for w in key]}
                for key, c in self.terms()
            ]
        }


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


def tensor_multiply(u: TensorElement, v: TensorElement) -> TensorElement:
    """Slotwise product; each slot is normally ordered independently."""
    one = LaurentPoly.one()
    out: dict = {}
    for (a1, a2), c in u._terms.items():
        for (b1, b2), d in v._terms.items():
            left = _exact(_product_state, (((a1, c),), ((b1, d),), STANDARD), STANDARD)
            right = _exact(_product_state, (((a2, one),), ((b2, one),), STANDARD), STANDARD)
            for n1, f1 in left.items():
                for n2, f2 in right.items():
                    _add_term(out, (n1, n2), f1 * f2)
    return TensorElement._raw(STANDARD, out)


def flip(t: TensorElement) -> TensorElement:
    return TensorElement._raw(STANDARD, {(b, a): c for (a, b), c in t._terms.items()})


# -- the three structure maps ----------------------------------------------


def _t_word(d: int) -> Word:
    return tuple([T if d > 0 else T_INV] * abs(d))


def _t_power(d: int) -> Element:
    return element_from(NormalWord(t_exp=d))


def _t_coproduct(d: int) -> TensorElement:
    tw = NormalWord(t_exp=d)
    return TensorElement._raw(STANDARD, {(tw, tw): LaurentPoly.one()})


@lru_cache(maxsize=512)
def _gen_coproduct(sym: GeneratorSymbol) -> TensorElement:
    kind, n = sym
    if kind in ("T", "Tinv"):
        return _t_coproduct(1 if kind == "T" else -1)
    gen = NormalWord(l_block=((n, 1),)) if kind == "L" else NormalWord(w_block=((n, 1),))
    tn = NormalWord(t_exp=n)
    one = LaurentPoly.one()
    return TensorElement._raw(STANDARD, {(gen, tn): one, (tn, gen): one})


@lru_cache(maxsize=512)
def _gen_antipode(sym: GeneratorSymbol) -> Element:
    kind, n = sym
    if kind == "T":
        return _t_power(-1)
    if kind == "Tinv":
        return _t_power(1)
    # The T-powers cross X[n] in closed form, so |n| costs nothing extra.
    t = _t_power(-n)
    return -multiply(multiply(t, element_from(sym)), t)


def _factor_images(word, gen_image, t_image):
    """Images of a free word's factors, left to right: one per ladder symbol
    and one, t_image(d), per maximal run of T and T^-1 with net power d."""
    for is_t, run in groupby(word, key=lambda sym: sym.kind in ("T", "Tinv")):
        if is_t:
            yield t_image(sum(1 if sym.kind == "T" else -1 for sym in run))
        else:
            yield from map(gen_image, run)


def map_word_coproduct(word: Word) -> TensorElement:
    """delta on a free word: the product of the generator images, a T-run
    mapping to T^d (x) T^d in one step."""
    out = TensorElement.unit()
    for image in _factor_images(word, _gen_coproduct, _t_coproduct):
        out = tensor_multiply(out, image)
    return out


def map_word_antipode(word: Word) -> Element:
    """S on a free word: images of the symbols multiplied in reverse, a
    T-run mapping to T^-d in one step."""
    out = Element.unit(STANDARD)
    for image in _factor_images(reversed(word), _gen_antipode, lambda d: _t_power(-d)):
        out = multiply(out, image)
    return out


def map_word_counit(word: Word) -> LaurentPoly:
    for sym in word:
        if sym.kind in ("L", "W"):
            return LaurentPoly.zero()
    return LaurentPoly.one()


@lru_cache(maxsize=1 << 14)
def _word_coproduct(nw: NormalWord) -> TensorElement:
    # Group-like T-power in one step, then the ladder images.
    tw = NormalWord(t_exp=nw.t_exp)
    out = TensorElement._raw(STANDARD, {(tw, tw): LaurentPoly.one()})
    for letter in nw.letters:
        out = tensor_multiply(out, _gen_coproduct(GeneratorSymbol(*letter)))
    return out


@lru_cache(maxsize=1 << 14)
def _word_antipode(nw: NormalWord) -> Element:
    # S(T^d X1...Xr) = S(Xr)...S(X1) T^-d, multiplied left to right.
    out = Element.unit(STANDARD)
    for letter in reversed(nw.letters):
        out = multiply(out, _gen_antipode(GeneratorSymbol(*letter)))
    if nw.t_exp:
        out = multiply(out, _t_power(-nw.t_exp))
    return out


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
