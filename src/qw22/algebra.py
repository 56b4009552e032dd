"""Generators, words, and PBW normal forms for the deformed algebra.

The algebra is generated by an invertible group-like T and two ladders of
generators L[n], W[n] indexed over the integers.  A word is a free product
of generator symbols; `normalize` rewrites any word into the spanning basis
of normally ordered monomials

    T^d  L[i1]^k1 ... L[ir]^kr  W[j1]^m1 ... W[js]^ms

with i1 < ... < ir and j1 < ... < js, T-power first.  Two deformation
profiles are supported: the standard one-parameter profile (coefficients in
Z[q, q^-1], T allowed) and a generalized two-parameter profile
(coefficients in Z[q^±1, p^±1], T-free).  All rewriting is exact.

`Combination` is the sparse linear-combination core shared by elements,
evaluated elements, tensors (`hopf`) and module vectors (`oscillator`).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import ArithmeticBoundError, ProfileError
from .laurent import EXPONENT_BOUND, LaurentPoly, from_image, q_int
from .laurent import _LANE_BITS, _add_image, _bucket, _pieces

# Generator indices stay inside this cap so exponent formulas like
# -2(n+1)m keep well within the checked 64-bit exponent window.
INDEX_CAP = 1 << 20


class DeformationProfile(Enum):
    STANDARD = "standard-q"
    GENERALIZED = "generalized-two-param"
    # Memo keys, compared by identity: the id hash spares Enum's Python one.
    __hash__ = object.__hash__

    @property
    def nvars(self) -> int:
        return 1 if self is DeformationProfile.STANDARD else 2


STANDARD = DeformationProfile.STANDARD
GENERALIZED = DeformationProfile.GENERALIZED


class GeneratorSymbol(NamedTuple):
    kind: str  # "T", "Tinv", "L", "W"
    index: int


T = GeneratorSymbol("T", 0)
T_INV = GeneratorSymbol("Tinv", 0)


def _check_index(n: int) -> int:
    if abs(n) > INDEX_CAP:
        raise ArithmeticBoundError(f"generator index {n} beyond cap {INDEX_CAP}")
    return n


def L(n: int) -> GeneratorSymbol:
    return GeneratorSymbol("L", _check_index(n))


def W(n: int) -> GeneratorSymbol:
    return GeneratorSymbol("W", _check_index(n))


Word = tuple  # tuple[GeneratorSymbol, ...]


class NormalWord(tuple):
    """A normally ordered basis monomial: T-power, then L-block, W-block.

    It is the tuple (t_exp, letters), letters the ladder letters in order
    as (kind, index) pairs, the tails the rewriter folds; so hashing and
    equality are the tuple's.  The blocks are read off the letters: tuples
    of (index, multiplicity) with strictly ascending indices and positive
    multiplicities.
    """

    __slots__ = ()
    t_exp = property(itemgetter(0))
    letters = property(itemgetter(1))

    def __new__(cls, t_exp: int = 0, l_block: tuple = (), w_block: tuple = ()):
        if abs(t_exp) > EXPONENT_BOUND:
            raise ArithmeticBoundError("T-power beyond the checked window")
        letters = []
        for kind, block in (("L", l_block), ("W", w_block)):
            last = None
            for n, k in block:
                _check_index(n)
                if k < 1:
                    raise ValueError("block multiplicities must be positive")
                if last is not None and n <= last:
                    raise ValueError("block indices must strictly ascend")
                last = n
                letters += [(kind, n)] * k
        return tuple.__new__(cls, (t_exp, tuple(letters)))

    def __getnewargs__(self):
        return self.sort_key()

    def __repr__(self):
        return "NormalWord(t_exp={}, l_block={}, w_block={})".format(*self.sort_key())

    def sort_key(self):
        """(t_exp, l_block, w_block), the order terms are listed in."""
        runs: dict = {}
        for letter in self[1]:  # equal letters are adjacent
            runs[letter] = runs.get(letter, 0) + 1
        blocks: dict = {"L": [], "W": []}
        for (kind, n), k in runs.items():
            blocks[kind].append((n, k))
        return self[0], tuple(blocks["L"]), tuple(blocks["W"])

    l_block = property(lambda self: self.sort_key()[1])
    w_block = property(lambda self: self.sort_key()[2])

    def generator_sequence(self) -> Word:
        t = self[0]
        return (T if t > 0 else T_INV,) * abs(t) + tuple(GeneratorSymbol(*x) for x in self[1])

    to_json_obj = lambda self: _word_json(self.sort_key())
    text = lambda self: _word_text(self.sort_key())


# A normal word's JSON tree and text, read off its sort key.
def _word_json(key) -> dict:
    t, lb, wb = key
    return {"t": t, "l": [[n, k] for n, k in lb], "w": [[n, k] for n, k in wb]}


def _word_text(key) -> str:
    d, lb, wb = key
    pieces = ["T" if d == 1 else f"T^{d}"] if d else []
    for kind, block in (("L", lb), ("W", wb)):
        pieces += [f"{kind}[{n}]" if k == 1 else f"{kind}[{n}]^{k}" for n, k in block]
    return " ".join(pieces)


UNIT_WORD = NormalWord()


# -- sparse linear combinations ---------------------------------------------


def _add_term(out: dict, key, c) -> None:
    """out[key] += c on a sparse {key: coeff} map, dropping zeros; a new key is hashed once."""
    size = len(out)
    prev = out.setdefault(key, c)
    if len(out) == size:  # an old key, whose coeff may be c itself
        c = out[key] = prev + c
    if not c:
        del out[key]


def _add_scaled(out: dict, terms: dict, factor) -> None:
    """out += factor * terms on sparse {key: coeff} maps."""
    for key, c in terms.items():
        _add_term(out, key, c * factor)


def _signed(c) -> tuple:
    """A coefficient as (negative, magnitude text).  A monomial or a rational
    gives its sign to the joiner and renders as "" when it is 1; a longer
    polynomial keeps its signs inside parentheses."""
    if isinstance(c, LaurentPoly):
        if c.term_count != 1:
            return False, f"({c})"
        if c.is_one():
            return False, ""
    text = str(c)
    neg = text[0] == "-"
    if neg:
        text = text[1:]
    return neg, ("" if text == "1" else text)


class Combination:
    """A finite sum of keys with exact coefficients, stored as {key: coeff}
    with no zero coefficient.

    Subclasses check their input in __init__ and name their key order
    (`_sort_key`) and key text and JSON read off it (`_key_text`, `_key_json`);
    the arithmetic, equality, hashing, immutability, text and JSON live here.
    Sums need equal types and the same profile.
    """

    __slots__ = ("profile", "_terms")
    _coeff_json = staticmethod(LaurentPoly.to_json_obj)

    def __init__(self, profile, terms: dict | None = None):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "_terms", {k: c for k, c in terms.items() if c} if terms else {})

    @classmethod
    def _raw(cls, profile, terms: dict):
        """Wrap a zero-free {key: coeff} map as is: no checks, no copy."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "profile", profile)
        object.__setattr__(obj, "_terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _sorted(self) -> list:
        """(sort key, key, coeff) in canonical key order, each sort key read once."""
        return sorted([(self._sort_key(k), k, c) for k, c in self._terms.items()], key=itemgetter(0))

    def terms(self) -> tuple:
        """Term pairs (key, coeff) in canonical ascending key order."""
        return tuple([(k, c) for _, k, c in self._sorted()])

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _require_same(self, other):
        if self.profile is not other.profile:
            raise ProfileError(f"mixed profiles {self.profile.value} and {other.profile.value}")

    def _merged(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            _add_term(out, key, c if sign > 0 else -c)
        return self._raw(self.profile, out)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self._raw(self.profile, {k: -c for k, c in self._terms.items()})

    def scaled(self, factor):
        out = {}
        for key, c in self._terms.items():
            v = c * factor
            if v:
                out[key] = v
        return self._raw(self.profile, out)

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return (
            type(other) is type(self)
            and self.profile is other.profile
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.profile, frozenset(self._terms.items())))

    def __str__(self):
        return self._render()

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    def _render(self) -> str:
        """`coeff * key` terms in key order, joined by their signs; a lone
        term with an empty key text is the coefficient alone."""
        items = self._sorted()
        if not items:
            return "0"
        key_text = self._key_text
        if len(items) == 1 and not key_text(items[0][0]):
            return str(items[0][2])
        chunks = []
        for key, _, c in items:
            kt = key_text(key)
            neg, mag = _signed(c)
            body = (f"{mag} * {kt}" if mag else kt) if kt else (mag or "1")
            if chunks:
                chunks.append(f"- {body}" if neg else f"+ {body}")
            else:
                chunks.append(f"-{body}" if neg else body)
        return " ".join(chunks)

    def to_json_obj(self) -> dict:
        return {"terms": [{"coeff": self._coeff_json(c), **self._key_json(k)} for k, _, c in self._sorted()]}


class Element(Combination):
    """A finite linear combination of normal words over the profile's ring."""

    __slots__ = ()
    _sort_key = staticmethod(NormalWord.sort_key)
    _key_text, _key_json = staticmethod(_word_text), staticmethod(_word_json)

    def __init__(self, profile: DeformationProfile, terms: dict | None = None):
        for nw, c in (terms or {}).items():
            if c.nvars != profile.nvars:
                raise ProfileError("coefficient profile does not match element profile")
            if profile is GENERALIZED and nw.t_exp:
                raise ProfileError("T symbols are not supported in the generalized profile")
        super().__init__(profile, terms)

    @staticmethod
    def unit(profile: DeformationProfile = STANDARD) -> "Element":
        return Element._raw(profile, {UNIT_WORD: LaurentPoly.one(profile.nvars)})

    @staticmethod
    def zero(profile: DeformationProfile = STANDARD) -> "Element":
        return Element._raw(profile, {})

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return Combination.__mul__(self, other)

    def __str__(self):
        return element_text(self)


def element_from(x, profile: DeformationProfile = STANDARD) -> Element:
    """Build an Element from a generator symbol, a word, a normal word,
    a scalar coefficient, or a plain integer."""
    if isinstance(x, GeneratorSymbol):
        return normalize((x,), profile)
    if isinstance(x, NormalWord):
        return Element(profile, {x: LaurentPoly.one(profile.nvars)})
    if isinstance(x, (tuple, list)):
        return normalize(tuple(x), profile)
    if isinstance(x, LaurentPoly):
        return Element(profile, {UNIT_WORD: x})
    if isinstance(x, int):
        return Element(profile, {UNIT_WORD: LaurentPoly.constant(x, profile.nvars)})
    raise TypeError(f"cannot build an Element from {type(x).__name__}")


# -- rewriting ------------------------------------------------------------


def _in_order(left, right) -> bool:
    """True when the adjacent letters left*right are already normally ordered."""
    if right[0] == "L":
        return left[0] == "L" and left[1] <= right[1]
    return left[0] == "L" or left[1] <= right[1]


def is_normal(word: Word) -> bool:
    """True when the word is literally in normal order: a same-direction
    T-run, then weakly ascending L indices, then weakly ascending W indices."""
    t_run = 0
    while t_run < len(word) and word[t_run].kind in ("T", "Tinv"):
        t_run += 1
    if len({sym.kind for sym in word[:t_run]}) > 1:
        return False
    rest = word[t_run:]
    return all(
        b.kind not in ("T", "Tinv") and _in_order(a, b) for a, b in zip(rest, rest[1:])
    )


def _collect_t(word: Word, profile: DeformationProfile):
    """Commute every T-power to the front in one sweep.

    The crossing exponent is additive over letters, so a T arriving from
    the right of the current tail picks up the tail's accumulated sum.
    Returns (q-exponent, net T-power, tail of (kind, index) pairs).
    """
    exp = 0
    t_net = 0
    shift_sum = 0
    tail = []
    for sym in word:
        kind = sym.kind
        if kind == "T" or kind == "Tinv":
            if profile is GENERALIZED:
                raise ProfileError("T symbols are not supported in the generalized profile")
            s = 1 if kind == "T" else -1
            exp += s * shift_sum
            t_net += s
        elif kind in ("L", "W"):
            _check_index(sym.index)
            tail.append((kind, sym.index))
            shift_sum += _t_crossing(sym.index)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    if abs(exp) > EXPONENT_BOUND or abs(t_net) > EXPONENT_BOUND:
        raise ArithmeticBoundError("T-collection exponent beyond the checked window")
    return exp, t_net, tuple(tail)


# -- the defining relations ---------------------------------------------------


def _t_crossing(n: int, s: int = 1) -> int:
    """The T-crossing relation X[n] T^s = q^e T^s X[n], as its exponent
    e = 2(n+1)s.  It is additive over letters: a tail of letters crosses
    T^s with the sum of their exponents."""
    return 2 * (n + 1) * s


def _r_power(e: int, profile):
    """r^e for the profile's second unit: r = q^-1 (standard), r = p
    (generalized)."""
    return LaurentPoly.q_power(-e) if profile is STANDARD else LaurentPoly.p_power(e)


# -- the fold's keys ----------------------------------------------------------
#
# A coefficient c rides through the fold as its image (n, e, l) of
# `laurent._pieces`: lanes along e_q (standard) or e_p (generalized, one
# total degree per image), l an l1 bound.  The generalized relation factors
# are homogeneous, so a key holds kappa, the final degree less len(tail),
# and the bucket of the lane its product started in, so that pieces far
# apart such as q^(2^62) and 1 never merge into one integer.


def _pair_rule(left, right, profile):
    """The defining relation of two adjacent letters, the one table of
    relations: the rewriter applies it to the pairs `_in_order` rejects,
    and every relation check reads it through `_bracket`.

    Returns (swap, fuse, fused) with
    left*right = swap * right*left + fuse * fused, and fuse None when the
    relation has no fused term.  With r = q^-1 in the standard profile and
    r = p in the generalized one, [n] = (q^n - r^n)/(q - r), and a, b the
    indices of left, right: swap = q^(b-a) r^(a-b) and fuse = r^(a-b) [b-a],
    where L[a] L[b] fuses to L[a+b] and W[a] L[b] to W[a+b].  W[a] W[b]
    only swaps.
    """
    (k1, a), (k2, b) = left, right
    d = b - a
    swap = LaurentPoly({(2 * d, 0) if profile is STANDARD else (d, -d): 1}, profile.nvars)
    if k2 != "L" or not d:  # [0] = 0
        return swap, None, None
    fused = (k1, _check_index(a + b))  # before [d] is built: its size is |d|
    return swap, _r_power(-d, profile) * q_int(d, profile.nvars), fused


# The fold's one memo of the relation factors: only L L and W L pairs reach
# it, and `_pair_rule` behind it keeps none.  A cold round hits 7,179 / 336
# misses on `assoc`, 838 / 393 on `oracle`, 342 / 65 on `cli`; two rounds
# meet about 510 distinct pairs on `assoc` and about 460 on `oracle`.
@lru_cache(maxsize=1024)
def _fuse_image(left, right, profile, bits):
    """`_pair_rule`'s fuse factor as (n, e, l, fused), or None.  A fuse
    factor r^(a-b) [b-a] has one total degree and its lanes at most two
    apart, so it packs as one piece."""
    _, fuse, fused = _pair_rule(left, right, profile)
    return None if fuse is None else (*_pieces(fuse, bits)[0][1:], fused)


def _bracket(left: GeneratorSymbol, right: GeneratorSymbol, profile) -> tuple:
    """The relation of `_pair_rule` in bracket form, times -r^(b-a): for
    left = X[a], right = Y[b] and every a, b,

        q^(b-a) Y[b] X[a] - r^(b-a) X[a] Y[b] = -[b-a] Z[a+b]

    with Z[a+b] the fused letter and no right-hand term where there is none.
    Returns (lhs, rhs) as lists of (scalar, word).
    """
    swap, fuse, fused = _pair_rule(left, right, profile)
    r = _r_power(right[1] - left[1], profile)
    lhs = [(r * swap, (right, left)), (-r, (left, right))]
    return lhs, ([] if fuse is None else [(-r * fuse, (GeneratorSymbol(*fused),))])


def _place_w(tail, letter) -> tuple:
    """Normal form of tail + (W[b],) for a normal tail, as (tail, d): W[b]
    goes after the last letter that `_in_order` accepts before it, with the
    swap factor of the gap d, the sum of b - a over the W[a] it crosses.

    The W W relation has no fused term, so this is the leftmost reduction
    in closed form.  Distinct tails give distinct results.
    """
    b = letter[1]
    i = len(tail)
    d = 0
    while i and not _in_order(tail[i - 1], letter):
        i -= 1
        d += b - tail[i][1]
    return tail[:i] + (letter,) + tail[i:], d


# Bounded memo of nontrivial insertions of an L letter into an L-only tail,
# keyed by (tail, letter, profile, lane width), oldest entry evicted first.
# The size is fixed from measurement: an entry holds about 0.9 kB on `assoc`,
# 0.8 kB on `oracle`, whose round fills about half of it.  A cold round hits
# 1,310 / 613 misses on `assoc`, 161 / 280 on `oracle`, 281 / 105 on `cli`.
_INSERT_CACHE_SIZE = 512
_insert_cache: dict = {}


def _insert_steps(tail, letter, profile, bits):
    """One nontrivial insertion into an L-only tail, as a coroutine that
    yields each (tail, letter) sub-insertion it needs and receives its
    result."""
    head, last = tail[:-1], tail[-1]
    fuse = _fuse_image(last, letter, profile, bits)
    swap = (letter[1] - last[1]) * (2 if profile is STANDARD else -1)
    # tail*letter = head*(swap * letter*last + fuse * fused), both sides
    # rewritten leftmost first: head*letter before last is appended.
    out: dict = {}
    for v, (n, e, l) in (yield head, letter).items():
        for w, (m, f, k) in (yield v, last).items():
            _add_image(out, w, n * m, e + f + swap, l * k, bits)
    if fuse is not None:
        n, e, l, fused = fuse
        for w, (m, f, k) in (yield head, fused).items():
            _add_image(out, w, n * m, e + f, l * k, bits)
    if len(_insert_cache) >= _INSERT_CACHE_SIZE:
        del _insert_cache[next(iter(_insert_cache))]
    _insert_cache[tail, letter, profile, bits] = out
    return out


def _insert(tail, letter, profile, bits) -> dict:
    """Normal form of tail + (L[b],) for an L-only normal tail, as
    {normal tail: image (n, e, l)}; a pair in order maps to itself with the
    unit image.

    Every sub-insertion of the leftmost reduction stays in L-only tails.
    They run on an explicit stack, so the length of a word is not limited
    by Python's recursion limit.
    """
    stack = []
    while True:
        if not tail or _in_order(tail[-1], letter):
            result = {tail + (letter,): (1, 0, 1)}
        else:
            result = _insert_cache.get((tail, letter, profile, bits))
        if result is None:
            stack.append(_insert_steps(tail, letter, profile, bits))
            request = next(stack[-1])
        else:
            while stack:  # hand the result to the insertion waiting for it
                try:
                    request = stack[-1].send(result)
                    break
                except StopIteration as done:
                    stack.pop()
                    result = done.value
            else:
                return result
        tail, letter = request


def _insert_l(tail, letter, profile, bits) -> dict:
    """`_insert` for a normal tail, which may end in a W-block.

    L[b] crosses the W-block without changing it.  The leftmost reduction
    first inserts L[b] into the L-block, then appends the W letters back in
    order, each W[a] with its swap and the fused term of W[a] L[b]: W[a+b]
    placed after the tail's letters before W[a].  The tails `_insert`
    returns hold only L letters, so the ascending block appends to them
    whole, with gap 0 and one summed swap; only a fused term places the
    later W letters one at a time.  Terms come out in the order of the
    one-letter-at-a-time recursion.
    """
    j = len(tail)
    while j and tail[j - 1][0] == "W":
        j -= 1
    if j == len(tail):
        return _insert(tail, letter, profile, bits)
    # Build the crossed pairs' relations in the recursion's order, last W
    # first, so an index beyond the cap is reported for the same pair.
    fuses = [_fuse_image(w, letter, profile, bits) for w in reversed(tail[j:])][::-1]
    gap, b, block = 2 if profile is STANDARD else -1, letter[1], tail[j:]
    swap = gap * sum([b - a for _, a in block])
    state = {u + block: (n, e + swap, l)
             for u, (n, e, l) in _insert(tail[:j], letter, profile, bits).items()}
    for i, fuse in enumerate(fuses, j):
        if fuse is not None:
            n, e, l, fused = fuse
            u, d = _place_w(tail[:i], fused)
            e += gap * d
            for w in tail[i + 1:]:
                u, d = _place_w(u, w)
                e += gap * (d + b - w[1])
            # A tail met again at this step is met again at every later one,
            # with the same swaps: merging at the end keeps the recursion's
            # images and order.
            _add_image(state, u, n, e, l, bits)
    return state


def _fold(state: dict, letters, profile, bits) -> dict:
    """Insert letters, left to right, into every tail of the image state
    {(T-power, normal tail, (kappa, bucket)): (n, e, l)}.  A letter in order
    after a tail's last letter appends with its image unchanged."""
    gap = 2 if profile is STANDARD else -1  # a swap gap d has the image X^(gap d)
    for letter in letters:
        out: dict = {}
        if letter[0] == "W":
            for (t, tail, k), (n, e, l) in state.items():
                if not tail or _in_order(tail[-1], letter):
                    out[t, tail + (letter,), k] = n, e, l
                else:
                    tail, d = _place_w(tail, letter)
                    out[t, tail, k] = n, e + gap * d, l
        else:
            for (t, tail, k), (n, e, l) in state.items():
                if not tail or _in_order(tail[-1], letter):
                    _add_image(out, (t, tail + (letter,), k), n, e, l, bits)
                    continue
                for w, (m, f, h) in _insert_l(tail, letter, profile, bits).items():
                    _add_image(out, (t, w, k), n * m, e + f, l * h, bits)
        state = out
    return state


def _exact(fold, args, profile, bits: int = _LANE_BITS, state=None, word=None) -> dict:
    """fold(*args, bits), or its given state at the default bits, decoded to
    {word(a, b): coeff} over its keys (a, b, (kappa, bucket)); by default the
    NormalWord of T-power a, window-checked, and tail b.  An l1 bound of
    2^(bits - 1) reruns it wider once."""
    state, nvars, out = fold(*args, bits) if state is None else state, profile.nvars, {}
    for (a, b, (kappa, _)), (n, e, l) in state.items():
        if l >> (bits - 1):  # no bound depends on bits, so one rerun decodes
            bits = max(l for _, _, l in state.values()).bit_length() + 2
            return _exact(fold, args, profile, bits, word=word)
        c = from_image(n, e, bits, nvars, kappa + len(b))
        if word is None and abs(a) > EXPONENT_BOUND:
            raise ArithmeticBoundError("T-power beyond the checked window")
        key = word(a, b) if word else tuple.__new__(NormalWord, (a, b))  # a normal, capped tail
        _add_term(out, key, c)  # a key may recur at another kappa or bucket
    return out


def normalize(word: Word, profile: DeformationProfile = STANDARD) -> Element:
    """Rewrite a free word of generator symbols into the normal basis."""
    exp, t_net, tail = _collect_t(tuple(word), profile)
    start = {(t_net, (), (-len(tail) if profile is GENERALIZED else 0, 0)): (1, exp, 1)}
    return Element._raw(profile, _exact(_fold, (start, tail, profile), profile))


def _product_state(pairs, rights, profile, bits) -> dict:
    """The image state of the (key, image) pairs of a state times the sum of
    c2 nw2 over the terms (nw2, c2) of rights.  Per right term, nw2's T-power
    crosses each tail in closed form, then its letters go into all tails."""
    out: dict = {}
    for (t2, w2), c2 in rights:
        ys = _pieces(c2, bits)
        size = len(w2) if profile is GENERALIZED else 0
        step: dict = {}
        for (t1, w1, (k1, _)), (n1, e1, l1) in pairs:
            exp = t2 and t2 * sum(_t_crossing(n) for _, n in w1)
            if abs(exp) > EXPONENT_BOUND:
                raise ArithmeticBoundError("T-collection exponent beyond the checked window")
            for d2, n2, e2, l2 in ys:
                e = e1 + e2 + exp
                _add_image(step, (t1 + t2, w1, (k1 + d2 - size, _bucket(e))), n1 * n2, e, l1 * l2, bits)
        step = _fold(step, w2, profile, bits)
        for key, (n, e, l) in step.items() if out else ():
            _add_image(out, key, n, e, l, bits)
        out = out or step
    return out


def _chain(lefts, factors, profile, bits) -> dict:
    """The image state of the terms (nw, c) of lefts, distinct words, times
    the terms of each of one or more factors in turn: the left fold.  Pieces
    of one coefficient start in distinct buckets, so no left pair is merged."""
    gen, state = profile is GENERALIZED, {}
    pairs = [((t, w, (d - gen * len(w), _bucket(e))), (n, e, l))
             for (t, w), c in lefts for d, n, e, l in _pieces(c, bits)]
    for rights in factors:
        state = _product_state(pairs, rights, profile, bits)
        pairs = state.items()
    return state


def multiply(x: Element, y: Element) -> Element:
    """Product of two Elements in the same profile, normally ordered."""
    x._require_same(y)
    for a, b in ((x, y), (y, x)):
        if len(a._terms) == 1 and UNIT_WORD in a._terms:  # a scalar
            return b.scaled(a._terms[UNIT_WORD])
    args = (x._terms.items(), (y._terms.items(),), x.profile)
    return Element._raw(x.profile, _exact(_chain, args, x.profile))


def product_chain(factors, profile: DeformationProfile) -> Element:
    """The left fold of the product of factors, each an iterable of terms
    (nw, c) taken once the one before is multiplied in, on one image state
    decoded once.  A state that may leave the exponent window (none can with
    |e|, |kappa| <= 2^61) is decoded where `multiply` would: same errors."""
    lefts, done, safe = ((UNIT_WORD, LaurentPoly.one(profile.nvars)),), [], EXPONENT_BOUND >> 2
    state = {(0, (), (0, 0)): (1, 0, 1)}  # the image state of lefts
    for rights in factors:
        done.append(rights)
        state = _product_state(state.items(), rights, profile, _LANE_BITS)
        if any(abs(t) > EXPONENT_BOUND or abs(e) > safe or abs(k) > safe
               for (t, _, (k, _)), (_, e, _) in state.items()):
            _exact(_chain, (lefts, done, profile), profile, state=state)
    return Element._raw(profile, _exact(_chain, (lefts, done, profile), profile, state=state))


def q_bracket(x: Element, y: Element, alpha: LaurentPoly, beta: LaurentPoly) -> Element:
    """The deformed commutator alpha*x*y - beta*y*x."""
    return multiply(x, y).scaled(alpha) - multiply(y, x).scaled(beta)


# -- numeric specializations ----------------------------------------------


class NumericElement(Combination):
    """An Element whose coefficients have been evaluated to exact rationals."""

    __slots__ = ()
    _sort_key = staticmethod(NormalWord.sort_key)
    _key_text, _key_json = staticmethod(_word_text), staticmethod(_word_json)
    _coeff_json = staticmethod(str)

    def __init__(self, terms: dict | None = None):
        super().__init__(None, {nw: Fraction(c) for nw, c in terms.items()} if terms else None)


def evaluate(x: Element, q_val, p_val=None) -> NumericElement:
    """Evaluate every coefficient at exact rational points."""
    return NumericElement({nw: c.eval(q_val, p_val) for nw, c in x._terms.items()})


def classical_limit(x: Element) -> NumericElement:
    """Specialize the standard profile at q = 1."""
    if x.profile is not STANDARD:
        raise ProfileError("the classical limit applies to the standard profile")
    return evaluate(x, 1)


def substitute_p_inverse(x: Element) -> Element:
    """Collapse a generalized-profile Element onto the standard profile
    by sending p to q^-1."""
    if x.profile is not GENERALIZED:
        raise ProfileError("substitution applies to the generalized profile")
    out: dict = {}
    for nw, c in x._terms.items():
        v = c.substitute_p_inverse()
        if v:
            out[nw] = v
    return Element._raw(STANDARD, out)


# -- rendering ------------------------------------------------------------


def element_text(el: Element) -> str:
    """Canonical text: `coeff * word` terms joined by signs, words with
    T-power first, then L and W factors."""
    return el._render()
