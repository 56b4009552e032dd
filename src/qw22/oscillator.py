"""Oscillator module over a graded boson-fermion basis.

This is the package's independent cross-check: the module action below is
built directly from ladder operators (never from the rewrite engine), so
agreement between a word and its normal form acting on basis vectors is
genuine evidence for the rewrite rules.

Basis vectors |k, eps> carry an integer grade k and a fermionic occupancy
eps in {0, 1}.  The bosonic ladder weight lambda_k depends on the profile:

    classical   lambda_k = k
    q-deformed  lambda_k = q^k [k]
    two-param   lambda_k = p^-k (q^k - p^k)/(q - p)

L[n] acts as lambda_k multiplied with an n-shift; W[n] additionally flips
the occupancy from 0 to 1 and annihilates occupied vectors.  T has no
module action: only the T-free subalgebra is represented.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .algebra import (
    INDEX_CAP,
    Combination,
    DeformationProfile,
    Element,
    GeneratorSymbol,
    Word,
    _add_scaled,
    _add_term,
    _bracket,
    normalize,
)
from .errors import ArithmeticBoundError, ProfileError
from .laurent import LaurentPoly, q_int


class OscillatorProfile(Enum):
    CLASSICAL = "classical"
    Q_DEFORMED = "q-deformed"
    TWO_PARAM = "two-param"

    @property
    def nvars(self) -> int:
        return 2 if self is OscillatorProfile.TWO_PARAM else 1


CLASSICAL = OscillatorProfile.CLASSICAL
Q_DEFORMED = OscillatorProfile.Q_DEFORMED
TWO_PARAM = OscillatorProfile.TWO_PARAM

# Rewrite profile whose normal forms this oscillator profile cross-checks.
_REWRITE_FOR = {
    Q_DEFORMED: DeformationProfile.STANDARD,
    TWO_PARAM: DeformationProfile.GENERALIZED,
}

GRADE_CAP = INDEX_CAP


class FockLabel(NamedTuple):
    k: int
    eps: int


def _grade_window(k_range) -> tuple:
    """(lo, hi) of a grade window; an empty one raises ValueError."""
    lo, hi = k_range
    if lo > hi:
        raise ValueError(f"empty k_range {lo}..{hi}")
    return lo, hi


def _check_grade(k: int) -> int:
    if abs(k) > GRADE_CAP:
        raise ArithmeticBoundError(f"grade {k} beyond cap {GRADE_CAP}")
    return k


@lru_cache(maxsize=8192)
def ladder_weight(profile: OscillatorProfile, k: int) -> LaurentPoly:
    """The weight lambda_k picked up when the lowering operator acts on
    grade k.  Each choice solves its profile's one-step recurrence."""
    if profile is CLASSICAL:
        return LaurentPoly.constant(k)
    if profile is Q_DEFORMED:
        return LaurentPoly.q_power(k) * q_int(k)
    return LaurentPoly.p_power(-k) * q_int(k, 2)


class ModuleVector(Combination):
    """Finite linear combination of basis vectors with exact coefficients."""

    __slots__ = ()
    _sort_key = staticmethod(itemgetter(0))
    _key_text = staticmethod(lambda label: f"|{label[0]},{label[1]}>")

    def __init__(self, profile: OscillatorProfile, terms: dict | None = None):
        for label, c in (terms or {}).items():
            if c.nvars != profile.nvars:
                raise ProfileError("coefficient profile does not match module profile")
            if c:
                _check_grade(label.k)
        super().__init__(profile, terms)


def basis_vector(profile: OscillatorProfile, k: int, eps: int) -> ModuleVector:
    if eps not in (0, 1):
        raise ValueError("occupancy must be 0 or 1")
    _check_grade(k)
    return ModuleVector._raw(profile, {FockLabel(k, eps): LaurentPoly.one(profile.nvars)})


# -- operator actions -----------------------------------------------------


def apply_ladder(op: str, v: ModuleVector) -> ModuleVector:
    """Apply one of the four ladder operators: a, a_dag, b, b_dag.  Each
    maps distinct basis vectors to distinct ones, so no terms collect."""
    profile = v.profile
    out = {}
    if op == "a_dag":
        for (k, eps), c in v._terms.items():
            out[FockLabel(_check_grade(k + 1), eps)] = c
    elif op == "a":
        for (k, eps), c in v._terms.items():
            if k:
                label = FockLabel(_check_grade(k - 1), eps)
                out[label] = c * ladder_weight(profile, k)
    elif op == "b":
        for (k, eps), c in v._terms.items():
            if eps == 1:
                out[FockLabel(k, 0)] = c
    elif op == "b_dag":
        for (k, eps), c in v._terms.items():
            if eps == 0:
                out[FockLabel(k, 1)] = c
    else:
        raise ValueError(f"unknown ladder operator {op!r}")
    return ModuleVector._raw(profile, out)


def shift(n: int, v: ModuleVector) -> ModuleVector:
    """The pure grade shift: the n-th power of the raising operator,
    meaningful for every integer n since raising is invertible."""
    out = {}
    for (k, eps), c in v._terms.items():
        out[FockLabel(_check_grade(k + n), eps)] = c
    return ModuleVector._raw(v.profile, out)


def apply_generator(sym: GeneratorSymbol, v: ModuleVector) -> ModuleVector:
    """Module action of one algebra generator (T-free subalgebra only).
    The grade shift k -> k + n is injective, so no terms collect."""
    profile = v.profile
    kind, n = sym
    if kind not in ("L", "W"):
        raise ProfileError("T has no module action; only the T-free subalgebra is represented")
    out = {}
    for (k, eps), c in v._terms.items():
        # lambda_k vanishes only at k = 0; check the grade before building
        # the weight, which at the grade cap has 2^20 terms.
        if k and not (kind == "W" and eps):
            label = FockLabel(_check_grade(k + n), 1 if kind == "W" else eps)
            out[label] = c * ladder_weight(profile, k)
    return ModuleVector._raw(profile, out)


def _follow(letters, terms: dict) -> list:
    """Follow each basis label of `terms` through `letters`, (kind, index)
    pairs in acting order, in integers.

    A step checks what `apply_generator` checks, at the same letter and in
    the same term order: a T letter raises ProfileError, a grade leaving the
    cap raises ArithmeticBoundError, and only while some path survives.  A
    path dies where lambda_k = 0 (k = 0 in every profile) or where a W meets
    an occupied vector.  Returns (k, eps, coeff, grades) for each surviving
    path: its target label, its input coefficient and the grades whose
    weights it picks up, in acting order.
    """
    paths = [(k, eps, c, []) for (k, eps), c in terms.items()]
    for kind, n in letters:
        if not paths:
            break
        if kind not in ("L", "W"):
            raise ProfileError("T has no module action; only the T-free subalgebra is represented")
        alive = []
        for k, eps, c, grades in paths:
            if k and not (kind == "W" and eps):
                grades.append(k)
                alive.append((_check_grade(k + n), 1 if kind == "W" else eps, c, grades))
        paths = alive
    return paths


def _weighted(profile: OscillatorProfile, c: LaurentPoly, grades) -> LaurentPoly:
    for k in grades:
        c = c * ladder_weight(profile, k)
    return c


def apply_word(word: Word, v: ModuleVector) -> ModuleVector:
    """Act with a free word, rightmost symbol first."""
    profile = v.profile
    out = {}
    for k, eps, c, grades in _follow(reversed(word), v._terms):
        out[FockLabel(k, eps)] = _weighted(profile, c, grades)
    return ModuleVector._raw(profile, out)


def apply_element(x: Element, v: ModuleVector) -> ModuleVector:
    """Act with a normally ordered Element on a module vector."""
    if v.profile is CLASSICAL:
        raise ProfileError(
            "the classical profile has no rewrite profile of its own; "
            "oracle_consistency compares it at q = 1"
        )
    expected = _REWRITE_FOR[v.profile]
    if x.profile is not expected:
        raise ProfileError(f"profile {v.profile.value} represents the {expected.value} algebra")
    out: dict = {}
    for nw, c in x._terms.items():
        if nw.t_exp:
            raise ProfileError("T has no module action; only the T-free subalgebra is represented")
        for k, eps, cv, grades in _follow(reversed(nw.letters), v._terms):
            _add_term(out, FockLabel(k, eps), _weighted(v.profile, cv, grades) * c)
    return ModuleVector._raw(v.profile, out)


# -- relation checks ------------------------------------------------------


# Relation ids: the profile each applies to (None: every profile) and the
# number of indices it takes.
_RELATION_IDS = {
    "boson": (CLASSICAL, 0), "qboson": (Q_DEFORMED, 0), "gboson": (TWO_PARAM, 0),
    "fermion": (None, 0), "qd": (Q_DEFORMED, 1), "gqd": (TWO_PARAM, 1),
    "LE": (CLASSICAL, 2), "qLE": (Q_DEFORMED, 2), "gq": (TWO_PARAM, 2),
}


def _relation_sides(rel, profile: OscillatorProfile):
    """Operator identities as (scalar, ops) term lists, one (lhs, rhs)
    pair per identity covered by the relation id.  An op is
    ("ladder", name), ("shift", n) or a generator symbol; the leftmost op
    acts last.

    The boson, fermion and shift identities are the module's own.  The
    ladder identities LE, qLE and gq are the algebra's defining relations
    as the rewriter's table gives them (`algebra._bracket`), so these
    checks hold the rewriter's relations against the module action.
    """
    nv = profile.nvars
    one = LaurentPoly.one(nv)
    q = lambda e: LaurentPoly.q_power(e, nv)
    # r = q^-1 in the q-deformed profile, r = p in the two-param one.
    r = lambda e: q(-e) if profile is Q_DEFORMED else LaurentPoly.p_power(e)
    a, a_dag = ("ladder", "a"), ("ladder", "a_dag")

    if isinstance(rel, str):
        rel = (rel,)
    spec = _RELATION_IDS.get(rel[0]) if rel else None
    if spec is None or len(rel) != spec[1] + 1:
        raise ValueError(f"unknown relation id {rel!r}")
    name, target = rel[0], spec[0]
    if target is not None and profile is not target:
        raise ProfileError(f"rel {name!r} applies to the {target.value} profile")

    if name == "boson":
        yield [(one, (a, a_dag)), (-one, (a_dag, a))], [(one, ())]
    elif name in ("qboson", "gboson"):
        yield [(r(1), (a, a_dag)), (-q(1), (a_dag, a))], [(one, ())]
    elif name == "fermion":
        b, b_dag = ("ladder", "b"), ("ladder", "b_dag")
        yield [(one, (b, b_dag)), (one, (b_dag, b))], [(one, ())]
        yield [(one, (b, b))], []
        yield [(one, (b_dag, b_dag))], []
    elif name in ("qd", "gqd"):
        (n,) = rel[1:]
        yield ([(r(n), (a, ("shift", n))), (-q(n), (("shift", n), a))],
               [(q_int(n, nv), (("shift", n - 1),))])
    else:
        m, n = rel[1:]
        if name == "LE":  # the q = 1 limit of qLE(n, m)
            m, n = n, m
        rewrite = _REWRITE_FOR.get(profile, DeformationProfile.STANDARD)
        for left, right in (("L", "L"), ("W", "L"), ("W", "W")):
            sides = _bracket(GeneratorSymbol(left, m), GeneratorSymbol(right, n), rewrite)
            if profile is CLASSICAL:
                at_one = lambda side: [(LaurentPoly.constant(int(c.eval(1))), w) for c, w in side]
                sides = map(at_one, sides)
            yield tuple(sides)


def _eval_side(side, v: ModuleVector) -> ModuleVector:
    out: dict = {}
    for scalar, ops in side:
        w = v
        for op in reversed(ops):
            if op[0] == "ladder":
                w = apply_ladder(op[1], w)
            elif op[0] == "shift":
                w = shift(op[1], w)
            else:
                w = apply_generator(op, w)
        _add_scaled(out, w._terms, scalar)
    return ModuleVector._raw(v.profile, out)


def check_relation(rel, profile: OscillatorProfile, k_range) -> tuple:
    """Verify an operator identity on every |k, eps> with k in k_range.

    rel is an id string or a tuple (id, indices...): "boson", "fermion",
    "qboson", "gboson", ("qd", n), ("gqd", n), ("LE", m, n), ("qLE", m, n),
    ("gq", m, n); an unknown id, a wrong number of indices or an empty
    window raises ValueError, an id of another profile ProfileError.
    Returns (ok, witness) with a printed counterexample."""
    lo, hi = _grade_window(k_range)
    sides = list(_relation_sides(rel, profile))
    for k in range(lo, hi + 1):
        for eps in (0, 1):
            v = basis_vector(profile, k, eps)
            for lhs, rhs in sides:
                left = _eval_side(lhs, v)
                right = _eval_side(rhs, v)
                if left != right:
                    return False, (
                        f"rel {rel!r} on |{k},{eps}>: lhs = {left}, rhs = {right}"
                    )
    return True, None


def _image_bounds(raw, terms, lo: int, hi: int, nvars: int) -> tuple:
    """(B, S) for an image injective on every difference the call compares.

    lambda_g has l1 norm |g| and p-exponents in [-|g|, |g|], and a path
    through m letters meets grades of size at most G, the window's largest
    plus the letters' |indices| (and at most GRADE_CAP).  So a difference has
    l1 norm at most G^m + sum_t |c_t|_1 G_t^m_t, and p-exponents within the
    larger of m G and |p-exponent of c_t| + m_t G_t."""
    def reach(letters):
        return min(max(abs(lo), abs(hi)) + sum(abs(n) for _, n in letters), GRADE_CAP)

    g = reach(raw)
    size, span = g ** len(raw), len(raw) * g
    for letters, c in terms:
        g = reach(letters)
        size += sum(map(abs, c._terms.values())) * g ** len(letters)
        span = max(span, max(abs(ep) for _, ep in c._terms) + len(letters) * g)
    return size.bit_length() + 1, 2 * span + 1 if nvars == 2 else 1


def oracle_consistency(word: Word, profile: OscillatorProfile, k_range) -> tuple:
    """Compare the raw word action with the action of its normal form on
    every basis vector in range.  The classical profile compares both sides
    of the standard normal form at q = 1.

    Each side (the raw word, then each normal-form term) is read from the
    prefix sums s_i of its indices in acting order: from |k, 0> its path
    meets the grades k + s_0 .. k + s_(m-1) and ends at grade k + s_m, unless
    one of them is 0 or the side holds two W letters.  The grade checks of
    `apply_word` and `apply_element` are kept in their order.  Only |k, 0> is
    compared: a W-free side acts on |k, 1> as on |k, 0> and any other side
    kills it, so |k, 1> repeats part of the |k, 0> comparison.  Values are
    exact integer images n X^e under q -> X^S, p -> X^(S+1), X = 2^B, a ring
    homomorphism injective on every difference compared (`_image_bounds`):
    the verdicts and witnesses are those of the full polynomial comparison.
    The classical profile evaluates every factor at q = 1 instead (B = 0).
    """
    word = tuple(word)
    for sym in word:
        if sym.kind not in ("L", "W"):
            raise ProfileError("oracle words must be T-free")
    lo, hi = _grade_window(k_range)
    nf = normalize(word, _REWRITE_FOR.get(profile, DeformationProfile.STANDARD))
    raw = word[::-1]
    terms = [(nw.letters[::-1], c) for nw, c in nf._terms.items()]
    if profile is CLASSICAL:
        bits = 0
        image = lambda c: (sum(c._terms.values()), 0)
        direct_weight = cache(lambda g: (ladder_weight(CLASSICAL, g).constant_value(), 0))
        nf_weight = cache(lambda g: image(ladder_weight(Q_DEFORMED, g)))
    else:
        bits, stride = _image_bounds(raw, terms, lo, hi, profile.nvars)
        image = lambda c: c.kronecker_image(bits, stride)
        direct_weight = nf_weight = cache(lambda g: image(ladder_weight(profile, g)))
    # Plan each side, the raw word with sign +1, then the normal form's terms
    # negated: its prefix sums, the first step at which each k meets lambda_0
    # and the step of its second W (m if none).  Sides share an end label
    # (k + s_m, [a W was met]) at one k iff at every k.
    near, groups = [], {}
    sides = [(raw, direct_weight, (1, 0))] + [(t, nf_weight, image(-c)) for t, c in terms]
    for letters, weight, coeff in sides:
        m = len(letters)
        prefix = list(accumulate((n for _, n in letters), initial=0))
        zero_at = {-prefix[i]: i for i in reversed(range(m))}
        w_at = [i for i, (kind, _) in enumerate(letters) if kind == "W"] + [m, m]
        if max(abs(lo), abs(hi)) + max(map(abs, prefix)) > GRADE_CAP:
            near.append((prefix, zero_at, w_at[1]))
        if w_at[1] == m:  # a second W letter kills every path
            group = groups.setdefault((prefix[m], w_at[0] < m), [])
            group.append((prefix[:m], zero_at, weight, coeff))
    # Only |k, 0> is compared.  At |k, 1> a side with a W dies and a W-free
    # side ends where it ends from |k, 0>, with eps = 1, so the difference
    # there is the |k, 0> one on the W-free sides' labels, which one-W sides
    # (ending at eps = 1) never share: it vanishes whenever the |k, 0> one
    # does.  Nor can |k, 1> leave the cap first: its path dies at the first
    # W, the |k, 0> one at the second, so it walks a prefix of it.
    for k in range(lo, hi + 1):
        _check_grade(k)
        # A side leaves the cap at its first grade k + s_(j+1) beyond it,
        # unless its path died at step j or before.
        for prefix, zero_at, second_w in near:
            for s in prefix[1:min(zero_at.get(k, second_w), second_w) + 1]:
                _check_grade(k + s)
        for group in groups.values():
            total, f = 0, 0  # the image of direct - via normal form, over X^f
            for grades, zero_at, weight, (n, e) in group:
                if k in zero_at:
                    continue
                for s in grades:
                    wn, we = weight(k + s)
                    n *= wn
                    e += we
                if e > f:  # a sum aligns to the smaller exponent
                    n, e, total, f = total, f, n, e
                total, f = n + (total << bits * (f - e)), e
            if total:
                v = basis_vector(profile, k, 0)
                shown = f"word {word_text(word)} on |{k},0>: direct = {apply_word(word, v)}"
                if profile is CLASSICAL:
                    return False, f"{shown}, normal form at q=1 differs"
                return False, f"{shown}, via normal form = {apply_element(nf, v)}"
    return True, None


def word_text(word: Word) -> str:
    pieces = []
    for sym in word:
        if sym.kind == "T":
            pieces.append("T")
        elif sym.kind == "Tinv":
            pieces.append("T^-1")
        else:
            pieces.append(f"{sym.kind}[{sym.index}]")
    return " ".join(pieces) if pieces else "1"
