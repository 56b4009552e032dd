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

A product takes one of four paths, all in Python integers:

- short-circuit: a product by exactly 1 returns the other operand, shared;
- shift: a one-term operand shifts the other's keys (`LaurentPoly.shifted`);
- Kronecker product, above _SMALL_PRODUCT coefficient pairs: each operand
  packs into one integer, lanes along e_q or, if smaller, along e_q + e_p;
  one integer product convolves them, read back as signed digits;
- pair loop: every other product, or one past the _MAX_DENSE_SPAN cap.

The rewriter's fold takes none of them: it multiplies `kronecker_image`s
and decodes once with `from_image`, through the same signed-digit reader.
Lanes are as wide as the coefficients need, so huge coefficients stay packed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import (
    ArithmeticBoundError,
    EvaluationDomainError,
    ProfileError,
    UnsupportedInverseError,
)

# Exponents are semantically int64; Python ints never wrap, so the window is
# enforced by hand and violations raise instead.
EXPONENT_BOUND = 2**63 - 1

# Below this many coefficient pair-products, plain dict loops beat the
# packing overhead of the Kronecker product.
_SMALL_PRODUCT = 96

# Lane cap of the Kronecker product: wider operands take the pair loop.
_MAX_DENSE_SPAN = 1 << 16

# Lanes that `_pack` adds one by one before it packs in runs.
_PACK_RUN = 64


def _check_exponent(e: int) -> int:
    if e > EXPONENT_BOUND or e < -EXPONENT_BOUND:
        raise ArithmeticBoundError(
            f"exponent {e} left the checked 64-bit window"
        )
    return e


def _mul_terms_small(a: dict, b: dict) -> dict:
    out: dict = {}
    get = out.get
    for (qa, pa), ca in a.items():
        for (qb, pb), cb in b.items():
            key = (qa + qb, pa + pb)
            v = get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


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


def _mul_terms_kronecker(a: dict, b: dict):
    """Exact product by Kronecker substitution, or None past the span cap.

    Each exponent pair is packed into one lane index (low part + high part
    * stride), the stride being the combined span of the low part, so lane
    sums never carry into the high part.  The low part is e_q, or the total
    degree e_q + e_p when its span is smaller: homogeneous operands such as
    the two-parameter ladder weights then pack into one lane per e_p.

    Each operand becomes one integer with `bits` bits per lane, and a single
    integer product does the convolution.  No lane of the product can exceed
    min(len a, len b) * max|a| * max|b| in size, so `bits` holds it with a
    sign bit to spare and the lanes read back as signed digits.
    """
    qa, pa = zip(*a)
    qb, pb = zip(*b)
    sa = list(map(add, qa, pa))
    sb = list(map(add, qb, pb))
    sp = (max(pa) - min(pa)) + (max(pb) - min(pb)) + 1
    sq = (max(qa) - min(qa)) + (max(qb) - min(qb)) + 1
    ss = (max(sa) - min(sa)) + (max(sb) - min(sb)) + 1
    total_degree = ss < sq
    lowa, lowb, stride = (sa, sb, ss) if total_degree else (qa, qb, sq)
    if stride * sp > _MAX_DENSE_SPAN:
        return None
    ma = max(map(abs, a.values()))
    mb = max(map(abs, b.values()))
    bits = (min(len(a), len(b)) * ma * mb).bit_length() + 1

    minla, minlb, minpa, minpb = min(lowa), min(lowb), min(pa), min(pb)
    x = _pack([(e - minla) + (f - minpa) * stride for e, f in zip(lowa, pa)], a.values(), bits)
    y = _pack([(e - minlb) + (f - minpb) * stride for e, f in zip(lowb, pb)], b.values(), bits)
    minl, minp = minla + minlb, minpa + minpb
    out = {}
    for i, c in _signed_digits(x * y, bits):
        low, ep = minl + i % stride, minp + i // stride
        out[(low - ep if total_degree else low, ep)] = c
    return out


def _signed_digits(n: int, bits: int) -> list:
    """n's nonzero signed base-2^bits digits as (lane, digit), from |n|."""
    negative = n < 0
    if negative:
        n = -n
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    i = 0
    while n:
        c = n & mask
        n >>= bits
        if c:
            if c >= half:
                # A negative digit borrowed one from the lane above.
                c -= mask + 1
                n += 1
            out.append((i, -c if negative else c))
        i += 1
    return out


def _check_window(terms: dict) -> dict:
    bound = EXPONENT_BOUND
    for eq, ep in terms:
        if not (-bound <= eq <= bound and -bound <= ep <= bound):
            _check_exponent(eq)
            _check_exponent(ep)
    return terms


def _shift_terms(terms: dict, eq: int, ep: int, c: int = 1) -> dict:
    """terms times the monomial c q^eq p^ep: the keys shift, no term collects."""
    return _check_window({(eq + qb, ep + pb): c * cb for (qb, pb), cb in terms.items()})


def _mul_terms(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((qa, pa), ca), = a.items()
        return _shift_terms(b, qa, pa, ca)
    out = _mul_terms_kronecker(a, b) if len(a) * len(b) > _SMALL_PRODUCT else None
    if out is None:
        out = _mul_terms_small(a, b)
    return _check_window(out)


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

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def constant_value(self) -> int:
        """The integer value of a constant polynomial."""
        if not self._terms:
            return 0
        if set(self._terms) == {(0, 0)}:
            return self._terms[(0, 0)]
        raise ValueError("polynomial is not constant")

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
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                del out[key]
        return _wrap(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()}, self.nvars)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) - c
            if v:
                out[key] = v
            else:
                del out[key]
        return _wrap(out, self.nvars)

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
        return _wrap(_mul_terms(self._terms, other._terms), self.nvars)

    __rmul__ = __mul__

    def shifted(self, eq: int, ep: int = 0) -> "LaurentPoly":
        """self * q^eq p^ep, without building the monomial."""
        if ep and self.nvars == 1:
            raise ProfileError("p-exponent in a one-variable polynomial")
        return _wrap(_shift_terms(self._terms, eq, ep), self.nvars)

    def kronecker_image(self, bits: int, stride: int = 1) -> tuple:
        """The image at q = X^stride, p = X^(stride + 1), X = 2^bits, as
        (n, e) meaning n X^e: q^a p^b lands in lane b + stride (a + b).  A
        ring homomorphism, injective where coefficients are below
        2^(bits - 1) in size and p-exponents span less than stride, or, at
        stride 0 (q = 1, p = X), on polynomials of one total degree."""
        lanes = [ep + stride * (eq + ep) for eq, ep in self._terms]
        e = min(lanes, default=0)
        return _pack([i - e for i in lanes], self._terms.values(), bits), e

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
        out: dict = {}
        for (eq, ep), c in self._terms.items():
            key = (_check_exponent(eq - ep), 0)
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                del out[key]
        return _wrap(out, 1)

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


# Decoded polynomials are shared.  Measured on the benchmarks, about four
# decodes in ten hit, and 1024 entries hold 1-2 MB; 512 left op_p50 4% up.
@lru_cache(maxsize=1024)
def from_image(n: int, e: int, bits: int, nvars: int, degree: int) -> LaurentPoly:
    """The polynomial of `kronecker_image` n X^e, X = 2^bits, at stride 1 (one
    variable) or 0 (two, of the given total degree): n's signed base-X digits,
    exact for n != 0 and coefficients below 2^(bits - 1) in size."""
    if -(1 << (bits - 1)) < n < 1 << (bits - 1):  # one lane
        if nvars == 1:
            return _wrap({(_check_exponent(e), 0): n}, 1)
        return _wrap({(_check_exponent(degree - e), _check_exponent(e)): n}, 2)
    digits = _signed_digits(n, bits)
    for i in (digits[0][0], digits[-1][0]):
        if nvars == 2:
            _check_exponent(degree - e - i)
        _check_exponent(e + i)
    if nvars == 1:
        return _wrap({(e + i, 0): c for i, c in digits}, 1)
    return _wrap({(degree - e - i, e + i): c for i, c in digits}, 2)


_UNIT_TERMS = {(0, 0): 1}
_ZERO = {1: LaurentPoly({}, 1), 2: LaurentPoly({}, 2)}
_ONE = {1: LaurentPoly({(0, 0): 1}, 1), 2: LaurentPoly({(0, 0): 1}, 2)}


# -- deformed integers ---------------------------------------------------


def _q_int_terms(n: int, nvars: int) -> dict:
    if n == 0:
        return {}
    if nvars == 1:
        if n < 0:
            return {k: -c for k, c in _q_int_terms(-n, 1).items()}
        return {(e, 0): 1 for e in range(n - 1, -n - 1, -2)}
    if n > 0:
        return {(i, n - 1 - i): 1 for i in range(n)}
    # Negative two-variable case keeps the defining exact division
    # (q - p) * value = q^n - p^n true, so the value picks up the unit
    # -q^n p^n relative to the positive case.
    m = -n
    return {(i - m, -1 - i): -1 for i in range(m)}


@lru_cache(maxsize=4096)
def _q_int_cached(n: int, nvars: int) -> LaurentPoly:
    return _wrap(_q_int_terms(n, nvars), nvars)


def q_int(n: int, nvars: int = 1) -> LaurentPoly:
    """The deformed integer [n]: a symmetric q-power sum for one variable,
    the exact quotient (q^n - p^n)/(q - p) for two."""
    if abs(n) <= 512:
        return _q_int_cached(n, nvars)
    return _wrap(_q_int_terms(n, nvars), nvars)


def q_identity_check(m: int, n: int) -> bool:
    """Both one-variable splitting identities for the pair (m, n):
    q^n [m] - q^m [n] = [m - n] and q^-n [m] + q^m [n] = [m + n]."""
    qm = q_int(m)
    qn = q_int(n)
    first = LaurentPoly.q_power(n) * qm - LaurentPoly.q_power(m) * qn == q_int(m - n)
    second = LaurentPoly.q_power(-n) * qm + LaurentPoly.q_power(m) * qn == q_int(m + n)
    return first and second
