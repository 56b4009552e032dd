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

from functools import lru_cache
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
    _t_crossing,
    _word_product,
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
            left = _word_product(a1, b1, STANDARD, c * d)
            right = _word_product(a2, b2, STANDARD, one)
            for n1, f1 in left.items():
                for n2, f2 in right.items():
                    _add_term(out, (n1, n2), f1 if f2 is one else f1 * f2)
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
    d = nw.t_exp
    tw = NormalWord(t_exp=d)
    out = TensorElement._raw(STANDARD, {(tw, tw): LaurentPoly.one()})
    for n, k in nw.l_block:
        img = _gen_coproduct(GeneratorSymbol("L", n))
        for _ in range(k):
            out = tensor_multiply(out, img)
    for n, k in nw.w_block:
        img = _gen_coproduct(GeneratorSymbol("W", n))
        for _ in range(k):
            out = tensor_multiply(out, img)
    return out


@lru_cache(maxsize=1 << 14)
def _word_antipode(nw: NormalWord) -> Element:
    # S(T^d X1...Xr) = S(Xr)...S(X1) T^-d, multiplied left to right.
    out = Element.unit(STANDARD)
    for kind, block in (("W", nw.w_block), ("L", nw.l_block)):
        for n, k in reversed(block):
            image = _gen_antipode(GeneratorSymbol(kind, n))
            for _ in range(k):
                out = multiply(out, image)
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
        if not (nw.l_block or nw.w_block):
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


# -- axiom checks -----------------------------------------------------------


def _triple_expand(t: TensorElement, slot: int) -> TensorElement:
    """Apply delta inside one slot of a two-tensor, giving a three-slot tensor."""
    out: dict = {}
    for (a, b), c in t._terms.items():
        inner = _word_coproduct(a if slot == 0 else b)
        for (u, v), d in inner._terms.items():
            _add_term(out, (u, v, b) if slot == 0 else (a, u, v), c * d)
    return TensorElement._raw(STANDARD, out)


# Relation ids usable in relation-preservation checks: each maps (m, n) to
# scalar-weighted free words for the two sides of a defining relation, the
# T-crossing T^m X[n] = q^-e X[n] T^m (tl, tw) or the bracket form of the
# pair X[m] Y[n] with the letters named here (ll, lw, ww).
_PAIRS = {"ll": (L, L), "lw": (W, L), "ww": (W, W)}


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


def _combine_words(side, mapper, zero):
    return sum((mapper(word) * scalar for scalar, word in side), zero)


def _verdict(diff) -> tuple:
    """(ok, witness) for a law whose two sides differ by diff."""
    ok = diff.is_zero()
    return ok, (None if ok else diff)


def _preservation(map_name: str, rel: str, m: int, n: int):
    lhs, rhs = _relation_words(rel, m, n)
    if map_name == "delta":
        mapper, zero = map_word_coproduct, TensorElement()
    elif map_name == "eps":
        mapper, zero = map_word_counit, LaurentPoly.zero()
    elif map_name == "s":
        mapper, zero = map_word_antipode, Element.zero(STANDARD)
    else:
        raise ValueError(f"unknown map {map_name!r}")
    left = _combine_words(lhs, mapper, zero)
    right = _combine_words(rhs, mapper, zero)
    return _verdict(left - right)


_PRESERVATION_IDS = {
    f"{m}-{r}" for m in ("delta", "eps", "s") for r in ("tl", "tw", "ll", "lw", "ww")
}


def check_axiom(axiom: str, arg=None) -> tuple:
    """Verify one Hopf axiom; returns (ok, witness).

    Single-element axioms (arg is an Element): coassoc, counit-left,
    counit-right, antipode-left, antipode-right, s-squared,
    cocommutativity-witness.  Pair axioms (arg is an (x, y) Element pair):
    delta-hom, s-antihom.  Index-pair axioms (arg is (m, n)):
    commutativity-witness, and every "<map>-<relation>" preservation id
    with map in delta/eps/s and relation in tl/tw/ll/lw/ww.  The witness
    conventions are inverted for the two -witness axioms: True means a
    violation was exhibited.
    """
    if axiom in _PRESERVATION_IDS:
        m, n = arg
        map_name, rel = axiom.split("-")
        return _preservation(map_name, rel, m, n)

    if axiom == "delta-hom":
        x, y = arg
        _require_standard(x)
        diff = coproduct(multiply(x, y)) - tensor_multiply(coproduct(x), coproduct(y))
        return _verdict(diff)

    if axiom == "s-antihom":
        x, y = arg
        diff = antipode(multiply(x, y)) - multiply(antipode(y), antipode(x))
        return _verdict(diff)

    if axiom == "commutativity-witness":
        m, n = arg
        x = element_from(L(m))
        y = element_from(L(n))
        diff = multiply(x, y) - multiply(y, x)
        return (not diff.is_zero()), (diff if not diff.is_zero() else None)

    if axiom not in (
        "coassoc",
        "counit-left",
        "counit-right",
        "antipode-left",
        "antipode-right",
        "s-squared",
        "cocommutativity-witness",
    ):
        raise ValueError(f"unknown axiom id {axiom!r}")
    x = arg
    _require_standard(x)
    if axiom == "coassoc":
        t = coproduct(x)
        # (delta (x) 1) delta - (1 (x) delta) delta
        diff = _triple_expand(t, 0) - _triple_expand(t, 1)
        return _verdict(diff)
    if axiom == "counit-left":
        # (eps (x) 1) delta = 1 (x) x
        t = coproduct(x)
        got = {}
        for (a, b), c in t._terms.items():
            if not (a.l_block or a.w_block):
                _add_term(got, (UNIT_WORD, b), c)
        diff = TensorElement._raw(STANDARD, got) - tensor_of(Element.unit(STANDARD), x)
        return _verdict(diff)
    if axiom == "counit-right":
        # (1 (x) eps) delta = x (x) 1
        t = coproduct(x)
        got = {}
        for (a, b), c in t._terms.items():
            if not (b.l_block or b.w_block):
                _add_term(got, (a, UNIT_WORD), c)
        diff = TensorElement._raw(STANDARD, got) - tensor_of(x, Element.unit(STANDARD))
        return _verdict(diff)
    if axiom == "antipode-left":
        # m (S (x) 1) delta = eps * unit
        t = coproduct(x)
        got = {}
        for (a, b), c in t._terms.items():
            _add_scaled(got, multiply(_word_antipode(a), element_from(b))._terms, c)
        diff = Element._raw(STANDARD, got) - Element.unit(STANDARD).scaled(counit(x))
        return _verdict(diff)
    if axiom == "antipode-right":
        # m (1 (x) S) delta = eps * unit
        t = coproduct(x)
        got = {}
        for (a, b), c in t._terms.items():
            _add_scaled(got, multiply(element_from(a), _word_antipode(b))._terms, c)
        diff = Element._raw(STANDARD, got) - Element.unit(STANDARD).scaled(counit(x))
        return _verdict(diff)
    if axiom == "s-squared":
        diff = antipode(antipode(x)) - x
        return _verdict(diff)
    if axiom == "cocommutativity-witness":
        t = coproduct(x)
        diff = flip(t) - t
        return (not diff.is_zero()), (diff if not diff.is_zero() else None)
    raise ValueError(f"unknown axiom id {axiom!r}")


# -- rendering ---------------------------------------------------------------


def tensor_text(t: TensorElement) -> str:
    """Canonical text: `coeff * (a) (x) (b)` terms joined by signs, the
    unit word written 1."""
    return t._render()
