"""Exact Laurent polynomials over the integers.

Coefficients live in Z[q, q^-1] (one-variable profile) or in
Z[q, q^-1, p, p^-1] (two-variable profile, p playing the role of a second
deformation unit).  Terms are kept sparse as a dict mapping exponent pairs
(e_q, e_p) to nonzero integer coefficients; the one-variable profile keeps
e_p = 0 everywhere.  Arithmetic is always exact: integers are unbounded,
but exponents are confined to a checked signed 64-bit window so downstream
exponent formulas cannot silently run away.

Operands of different variable profiles never mix; that is a ProfileError,
not a coercion.

A product takes one of three paths, all in Python integers:

- unit: a product by exactly 1 returns the other operand, shared;
- shift: a one-term operand shifts the other's keys (`_shift_terms`);
- image pieces: every other product splits each operand's integer image
  into pieces (`_pieces`), makes one integer product per pair of pieces,
  merges the products per key (`_add_image`) and decodes each key once.

The images are values at q -> X (one variable) or q -> 1, p -> X on one
total degree (two), X = 2^bits, with lanes as wide as the coefficients
need, so huge coefficients stay packed.  An image decodes to its signed
base-X digits (`_signed_digits`): 64-bit lanes are cast to C int64s with
the empty ones dropped in C, other widths are read lane by lane in halves
that skip empty stretches.  The rewriter's fold in `algebra` carries the
same images through its rewrite steps, at 64-bit lanes, and decodes its
output terms through the memo `from_image`; the oscillator's comparator
reads its scalars and ladder weights on them too.  Decodes and shifts in
one variable take each key (e, 0) from one table, `_keys`: one tuple and
int per exponent, at most 1024 (a benchmark round meets 109-355).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .errors import (
    ArithmeticBoundError,
    EvaluationDomainError,
    ProfileError,
    UnsupportedInverseError,
)

# Exponents are semantically int64; Python ints never wrap, so the window is
# enforced by hand and violations raise instead.
EXPONENT_BOUND = 2**63 - 1

# Lane width of the fold's images; a fold whose l1 bound reaches 2^63 runs
# once more with wider lanes.
_LANE_BITS = 64

# A run of this many empty lanes splits an image into pieces, and products
# of pieces merge only when they start in the same bucket of this many
# lanes, so no image integer is mostly empty.  Narrower buckets split the
# fold's merges: at 32 lanes criterion 3's products decode 20% more often.
_RUN = 256

# Lanes that `_pack` adds, and `_read_lanes` reads, one by one before
# they split the work.
_PACK_RUN = 64


def _check_exponent(e: int) -> int:
    if e > EXPONENT_BOUND or e < -EXPONENT_BOUND:
        raise ArithmeticBoundError(f"exponent {e} left the checked 64-bit window")
    return e


def _pack(lanes, coeffs, bits: int) -> int:
    """One operand as a single integer: coefficient c in lane i adds
    c * 2**(bits * i).  Each add copies the integer built so far, so past
    _PACK_RUN lanes the sorted lanes are packed in runs, each against its
    first lane, and the runs joined pairwise: near-linear, not quadratic."""
    if len(lanes) <= _PACK_RUN:
        x = 0
        for i, c in zip(lanes, coeffs):
            x += c << (bits * i)
        return x
    coeffs = list(coeffs)
    order = sorted(range(len(lanes)), key=lanes.__getitem__)
    runs = []
    for j in range(0, len(order), _PACK_RUN):
        run, base = order[j:j + _PACK_RUN], lanes[order[j]]
        runs.append((base, _pack([lanes[o] - base for o in run], [coeffs[o] for o in run], bits)))
    while len(runs) > 1:
        pairs = zip(runs[::2], runs[1::2])
        runs = [(b, x + (y << bits * (c - b))) for (b, x), (c, y) in pairs] + runs[len(runs) & ~1:]
    return runs[0][1] << (bits * runs[0][0])


# Shared keys (e, 0), entered checked by `_key`, oldest evicted first; wider
# decodes and shifts build their own.  A cold round (seed 5, rounds 0-2) meets
# 257-355 exponents on `assoc`, 115-131 on `oracle`, 109-161 on `cli`; 1024 is 3x that.
_KEYS_SIZE = 1024
_keys: dict = {}


def _key(e: int) -> tuple:
    if len(_keys) >= _KEYS_SIZE:
        del _keys[next(iter(_keys))]
    return _keys.setdefault(e, (_check_exponent(e), 0))


def _accumulate(out: dict, terms, sign: int = 1) -> dict:
    """out += sign * terms, (key, coeff) pairs of nonzero coeffs, dropping zeros."""
    for key, c in terms:
        c = out.get(key, 0) + sign * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _shift_terms(terms: dict, eq: int, ep: int, c: int, nvars: int) -> dict:
    """terms times the monomial c q^eq p^ep: the keys shift, no term collects."""
    if nvars == 1 and len(terms) <= _KEYS_SIZE:  # shared keys, checked on entry
        get = _keys.get
        return {get(eq + e) or _key(eq + e): c * cb for (e, _), cb in terms.items()}
    out, bound = {(eq + qb, ep + pb): c * cb for (qb, pb), cb in terms.items()}, EXPONENT_BOUND
    for x, y in out:
        if not (-bound <= x <= bound and -bound <= y <= bound):
            _check_exponent(x)
            _check_exponent(y)
    return out


# -- integer images ------------------------------------------------------
#
# A coefficient rides as (n, e, l): n X^e, X = 2^bits, is its image under
# q -> X (lanes along e_q) or q -> 1, p -> X (along e_p, one total degree),
# and l bounds its l1 norm.


def _signed_digits(n: int, bits: int, first: int = 0) -> list:
    """n's nonzero signed base-2^bits digits as (first + lane, digit), from |n|.
    v = (|n| + H) ^ H, H = 2^(bits - 1) in each of n's lanes and the one
    above, holds each digit mod 2^bits in its lane: no borrow crosses a
    lane.  At 64 bits, the fold's lanes, v's bytes are cast to C int64s
    and `compress` drops the empty lanes in C; other widths go to
    `_read_lanes`, which halves v and skips halves that are 0.  A negative
    n has the digits of |n| negated."""
    negative = n < 0
    if negative:
        n = -n
    if bits == 64:
        size = n.bit_length() // 64 + 2
        h = int.from_bytes((b"\0" * 7 + b"\x80") * size, "little")
        lanes = memoryview(((n + h) ^ h).to_bytes(8 * size, sys.byteorder)).cast("q")
        if sys.byteorder == "big":  # lane 0 came last
            lanes = lanes[::-1]
        digits = compress(enumerate(lanes, first), lanes)
        return [(i, -c) for i, c in digits] if negative else list(digits)
    h = 1 << (bits - 1)
    while h.bit_length() < n.bit_length() + bits:
        h |= h << h.bit_length()
    out: list = []
    _read_lanes((n + h) ^ h, bits, first, -1 if negative else 1, out)
    return out


def _read_lanes(v: int, bits: int, first: int, sign: int, out: list) -> None:
    """Append v's nonzero lanes from lane `first` on, as signed digits times
    sign, halving v past _PACK_RUN lanes."""
    if v.bit_length() > _PACK_RUN * bits:
        k = bits * (v.bit_length() // bits // 2)
        low = v & ((1 << k) - 1)
        if low:
            _read_lanes(low, bits, first, sign, out)
        _read_lanes(v >> k, bits, first + k // bits, sign, out)
        return
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while v:
        c = v & mask
        v >>= bits
        if c:
            out.append((first, sign * (c - (mask + 1) if c >= half else c)))
        first += 1


def _bucket(lane: int) -> int:
    return lane // _RUN


def _pieces(c: "LaurentPoly", bits: int) -> list:
    """c's image as pieces (degree, n, e, l): one per total degree (0 with
    one variable) and per run of lanes that no _RUN empty lanes cut."""
    terms, two = c._terms, c.nvars == 2
    if len(terms) == 1:  # a monomial, packed without a loop
        ((eq, ep), v), = terms.items()
        return [(eq + ep, v, ep, abs(v)) if two else (0, v, eq, abs(v))]
    degrees: dict = {} if two or not terms else {0: {eq: v for (eq, _), v in terms.items()}}
    for (eq, ep), v in terms.items() if two else ():
        degrees.setdefault(eq + ep, {})[ep] = v
    out = []
    for d, lanes in degrees.items():
        runs = [lanes]
        if max(lanes) - min(lanes) >= len(lanes) + _RUN - 1:  # room for a cut: sort
            order = sorted(lanes)
            cuts = [i for i in range(1, len(order)) if order[i] - order[i - 1] > _RUN]
            runs = [{k: lanes[k] for k in order[i:j]} for i, j in zip([0, *cuts], [*cuts, None])]
        for run in runs:
            e, coeffs = min(run), run.values()
            out.append((d, _pack([k - e for k in run], coeffs, bits), e, sum(map(abs, coeffs))))
    return out


def _add_image(out: dict, key, n: int, e: int, l: int, bits: int) -> None:
    """out[key] += n X^e of l1 bound l.  n == 0 proves a term zero only where
    l < 2^(bits - 1); a zero past that stays, for a wider run to decode."""
    prev = out.get(key)
    if prev is not None:
        m, f, k = prev
        if e > f:
            n, m, e, f = m, n, f, e
        n, l = n + (m << bits * (f - e)), l + k
    if n or l >> (bits - 1):
        out[key] = n, e, l
    else:
        out.pop(key, None)


def _from_image(n: int, e: int, bits: int, nvars: int, degree: int) -> dict:
    """The terms whose image is n X^e, X = 2^bits, under q -> X (one
    variable) or q -> 1, p -> X (two, of the given total degree): n's signed
    base-X digits, exact for n != 0 and coefficients below 2^(bits - 1) in
    size."""
    if -(1 << (bits - 1)) < n < 1 << (bits - 1):  # one lane
        if nvars == 1:
            return {_keys.get(e) or _key(e): n}
        return {(_check_exponent(degree - e), _check_exponent(e)): n}
    digits = _signed_digits(n, bits, e)
    for i in (digits[0][0], digits[-1][0]):
        if nvars == 2:
            _check_exponent(degree - i)
        _check_exponent(i)
    if nvars == 1 and len(digits) <= _KEYS_SIZE:
        get = _keys.get
        return {get(i) or _key(i): c for i, c in digits}
    return {(degree - i, i) if nvars == 2 else (i, 0): c for i, c in digits}


# The fold's decoded polynomials are shared.  A cold round hits 4,982 / 6,371
# misses on `assoc` (4.2% slower without it), 598 / 1,172 on `oracle` and
# 1,436 / 303 on `cli`; 1024 entries hold 0.8-1.0 MB, and 512 left op_p50 4% up.
# Products decode without it, so they evict no entry.
@lru_cache(maxsize=1024)
def from_image(n: int, e: int, bits: int, nvars: int, degree: int) -> "LaurentPoly":
    """`_from_image` as a polynomial, memoized for the rewriter's fold."""
    return _wrap(_from_image(n, e, bits, nvars, degree), nvars)


def _mul_terms(a: "LaurentPoly", b: "LaurentPoly") -> dict:
    """The terms of a * b.  A monomial operand shifts the other; else one
    integer product per pair of pieces, merged per key and decoded once per
    key.  Lanes of (l1(a) l1(b)).bit_length() + 2 bits hold every output
    coefficient with its sign, so one run decodes."""
    if len(a._terms) > len(b._terms):
        a, b = b, a
    if len(a._terms) < 2:
        if not a._terms:
            return {}
        ((qa, pa), ca), = a._terms.items()
        return _shift_terms(b._terms, qa, pa, ca, a.nvars)
    l1a, l1b = sum(map(abs, a._terms.values())), sum(map(abs, b._terms.values()))
    bits = (l1a * l1b).bit_length() + 2
    images: dict = {}
    xs, ys = _pieces(a, bits), _pieces(b, bits)
    for d, n, e, l in xs:
        for f, m, g, k in ys:
            _add_image(images, (d + f, _bucket(e + g)), n * m, e + g, l * k, bits)
    out: dict = {}
    for (d, _), (n, e, _) in images.items():
        terms = _from_image(n, e, bits, a.nvars, d)
        out = _accumulate(out, terms.items()) if out else terms
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial with a fixed variable profile.

    nvars is 1 (q only) or 2 (q and p).  Never mutate ``_terms``; all
    operations hand back fresh objects, which keeps sharing safe.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, terms: dict | None = None, nvars: int = 1):
        if nvars not in (1, 2):
            raise ProfileError(f"nvars must be 1 or 2, got {nvars}")
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                if not c:
                    continue
                eq, ep = key
                if ep and nvars == 1:
                    raise ProfileError("p-exponent in a one-variable polynomial")
                clean[(_check_exponent(eq), _check_exponent(ep))] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int = 1) -> "LaurentPoly":
        return _ZERO[nvars]

    @staticmethod
    def one(nvars: int = 1) -> "LaurentPoly":
        return _ONE[nvars]

    @staticmethod
    def constant(c: int, nvars: int = 1) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c}, nvars)

    @staticmethod
    def monomial(c: int, eq: int, ep: int = 0, nvars: int | None = None) -> "LaurentPoly":
        if nvars is None:
            nvars = 2 if ep else 1
        return LaurentPoly({(eq, ep): c}, nvars)

    @staticmethod
    def q_power(e: int, nvars: int = 1) -> "LaurentPoly":
        return LaurentPoly({(e, 0): 1}, nvars)

    @staticmethod
    def p_power(e: int) -> "LaurentPoly":
        return LaurentPoly({(0, e): 1}, 2)

    # -- inspection -----------------------------------------------------

    def items(self) -> tuple:
        """Terms as ((e_q, e_p), coeff) pairs in descending canonical order."""
        return tuple(sorted(self._terms.items(), reverse=True))

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == _UNIT_TERMS

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ProfileError("mixed variable profiles in arithmetic")
            return other
        if isinstance(other, int):
            return LaurentPoly({(0, 0): other}, self.nvars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(_accumulate(dict(self._terms), other._terms.items()), self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()}, self.nvars)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(_accumulate(dict(self._terms), other._terms.items(), -1), self.nvars)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other._terms == _UNIT_TERMS:
            return self
        if self._terms == _UNIT_TERMS:
            return other
        return _wrap(_mul_terms(self, other), self.nvars)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self._terms) != 1:
                raise UnsupportedInverseError(
                    "negative power of a non-monomial Laurent polynomial"
                )
            ((eq, ep), c), = self._terms.items()
            if c not in (1, -1):
                raise UnsupportedInverseError(
                    "monomial coefficient must be a unit to invert"
                )
            base = LaurentPoly({(-eq, -ep): c}, self.nvars)
            return base ** (-k)
        result = _ONE[self.nvars]
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            return self._terms == {(0, 0): other}
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- specializations ------------------------------------------------

    def eval(self, q_val: Fraction, p_val: Fraction | None = None) -> Fraction:
        """Exact evaluation at nonzero rational points."""
        q_val = Fraction(q_val)
        if q_val == 0:
            raise EvaluationDomainError("q = 0 is outside the Laurent domain")
        if self.nvars == 2:
            if p_val is None:
                raise ProfileError("two-variable polynomial needs a p value")
            p_val = Fraction(p_val)
            if p_val == 0:
                raise EvaluationDomainError("p = 0 is outside the Laurent domain")
        elif p_val is not None:
            raise ProfileError("one-variable polynomial takes no p value")
        if q_val == 1 and (p_val is None or p_val == 1):
            return Fraction(sum(self._terms.values()))
        total = Fraction(0)
        for (eq, ep), c in self._terms.items():
            v = c * q_val**eq
            if ep:
                v *= p_val**ep
            total += v
        return total

    def substitute_p_inverse(self) -> "LaurentPoly":
        """Collapse the two-variable profile by sending p to q^-1."""
        if self.nvars != 2:
            raise ProfileError("substitution applies to two-variable polynomials")
        terms = (((_check_exponent(eq - ep), 0), c) for (eq, ep), c in self._terms.items())
        return _wrap(_accumulate({}, terms), 1)

    # -- rendering ------------------------------------------------------

    def _monomial_text(self, eq: int, ep: int, c: int) -> str:
        pieces = []
        if abs(c) != 1 or (eq == 0 and ep == 0):
            pieces.append(str(abs(c)))
        if eq:
            pieces.append("q" if eq == 1 else f"q^{eq}")
        if ep:
            pieces.append("p" if ep == 1 else f"p^{ep}")
        return "*".join(pieces)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for (eq, ep), c in self.items():
            body = self._monomial_text(eq, ep, c)
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"LaurentPoly({self._terms!r}, nvars={self.nvars})"

    def to_json_obj(self) -> dict:
        terms = []
        for (eq, ep), c in self.items():
            entry: dict = {"eq": eq}
            if self.nvars == 2:
                entry["ep"] = ep
            entry["c"] = str(c)
            terms.append(entry)
        return {"terms": terms}


def _wrap(terms: dict, nvars: int) -> LaurentPoly:
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "_terms", terms)
    return poly


_UNIT_TERMS = {(0, 0): 1}
_ZERO = {1: LaurentPoly({}, 1), 2: LaurentPoly({}, 2)}
_ONE = {1: LaurentPoly({(0, 0): 1}, 1), 2: LaurentPoly({(0, 0): 1}, 2)}


# -- deformed integers ---------------------------------------------------


def q_int(n: int, nvars: int = 1) -> LaurentPoly:
    """The deformed integer [n]: a symmetric q-power sum for one variable,
    the exact quotient (q^n - p^n)/(q - p) for two."""
    if nvars == 1:
        terms = {(e, 0): 1 if n > 0 else -1 for e in range(abs(n) - 1, -abs(n) - 1, -2)}
    elif n >= 0:
        terms = {(i, n - 1 - i): 1 for i in range(n)}
    else:
        # The negative case keeps the defining exact division
        # (q - p) * value = q^n - p^n true, so the value picks up the unit
        # -q^n p^n relative to the positive case.
        terms = {(i + n, -1 - i): -1 for i in range(-n)}
    return _wrap(terms, nvars)


def q_identity_check(m: int, n: int) -> bool:
    """Both one-variable splitting identities for the pair (m, n):
    q^n [m] - q^m [n] = [m - n] and q^-n [m] + q^m [n] = [m + n]."""
    qm = q_int(m)
    qn = q_int(n)
    first = LaurentPoly.q_power(n) * qm - LaurentPoly.q_power(m) * qn == q_int(m - n)
    second = LaurentPoly.q_power(-n) * qm + LaurentPoly.q_power(m) * qn == q_int(m + n)
    return first and second
