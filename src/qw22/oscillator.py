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
from functools import lru_cache
from typing import NamedTuple

from .algebra import (
    INDEX_CAP,
    Combination,
    DeformationProfile,
    Element,
    GeneratorSymbol,
    Word,
    _add_term,
    _bracket,
    normalize,
)
from .errors import ArithmeticBoundError, ProfileError
from .laurent import LaurentPoly, _add_image, _pieces, q_int


class OscillatorProfile(Enum):
    CLASSICAL = "classical"
    Q_DEFORMED = "q-deformed"
    TWO_PARAM = "two-param"
    # Memo keys, compared by identity: the id hash spares Enum's Python one.
    __hash__ = object.__hash__

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


# The module actions (`_act`) take their weights here, the comparator's
# window scan among them, which runs only where a group reads nonzero.  The
# timed calls of a cold `oracle` round and the `qw22 check` oscillator
# suites meet no key; the round's output check (`apply_element` on 8 labels
# per word) hits 8,422 / 68 misses.
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
    _sort_key = staticmethod(lambda label: label)
    _key_text = staticmethod(lambda label: f"|{label[0]},{label[1]}>")
    _key_json = staticmethod(lambda label: {"k": label[0], "eps": label[1]})

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


# Every operator is an op (kind, n) that moves the grade by n, mapped here
# to (weighted, the occupancy it needs).  L and W take the weight lambda_k of
# the grade k they meet; W, b and b_dag need an occupancy and leave the other
# one.  A path dies where L or W meets k = 0 or an op finds the wrong
# occupancy.  A generator symbol is an op; so are the ladder operators.
_OPS = {"L": (True, None), "W": (True, 0), "shift": (False, None), "b": (False, 1), "b_dag": (False, 0)}
_LADDER = {"a": ("L", -1), "a_dag": ("shift", 1), "b": ("b", 0), "b_dag": ("b_dag", 0)}
_NO_T = "T has no module action; only the T-free subalgebra is represented"


def _follow(ops, terms: dict) -> list:
    """Follow each basis label of `terms` through `ops`, (kind, n) pairs in
    acting order, in integers.

    A step raises ProfileError for a kind outside `_OPS` (a T letter) and
    ArithmeticBoundError for a grade leaving the cap, in term order and only
    while some path survives.  Returns (k, eps, coeff, grades) for each
    surviving path: its target label, its input coefficient and the grades
    whose weights it picks up, in acting order.
    """
    paths = [(k, eps, c, []) for (k, eps), c in terms.items()]
    for kind, n in ops:
        if not paths:
            break
        if kind not in _OPS:
            raise ProfileError(_NO_T)
        weighted, needs = _OPS[kind]
        alive = []
        for k, eps, c, grades in paths:
            if weighted and not k or needs is not None and eps != needs:
                continue
            if weighted:
                grades.append(k)
            alive.append((_check_grade(k + n), eps if needs is None else 1 - needs, c, grades))
        paths = alive
    return paths


def _act(side, v: ModuleVector) -> ModuleVector:
    """Act on v with a side: (scalar, ops) terms, ops in acting order.  Every
    path passes its grade checks before any weight is built: at the grade
    cap lambda_k has 2^20 terms."""
    profile = v.profile
    out: dict = {}
    paths = [(scalar, path) for scalar, ops in side for path in _follow(ops, v._terms)]
    for scalar, (k, eps, c, grades) in paths:
        for g in grades:
            c = c * ladder_weight(profile, g)
        _add_term(out, FockLabel(k, eps), c * scalar)
    return ModuleVector._raw(profile, out)


def apply_ladder(op: str, v: ModuleVector) -> ModuleVector:
    """Apply one of the four ladder operators: a = L[-1], a_dag (the grade
    shift by 1), b, b_dag."""
    if op not in _LADDER:
        raise ValueError(f"unknown ladder operator {op!r}")
    return _act([(LaurentPoly.one(v.profile.nvars), (_LADDER[op],))], v)


def apply_generator(sym: GeneratorSymbol, v: ModuleVector) -> ModuleVector:
    """Module action of one algebra generator (T-free subalgebra only)."""
    if sym[0] not in ("L", "W"):
        raise ProfileError(_NO_T)
    return _act([(LaurentPoly.one(v.profile.nvars), (sym,))], v)


def apply_word(word: Word, v: ModuleVector) -> ModuleVector:
    """Act with a free word, rightmost symbol first."""
    return _act([(LaurentPoly.one(v.profile.nvars), reversed(word))], v)


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

    def side():
        for nw, c in x._terms.items():
            if nw.t_exp:
                raise ProfileError(_NO_T)
            yield c, nw.letters[::-1]

    return _act(side(), v)


# -- the module comparator --------------------------------------------------


def _generic_read(profile: OscillatorProfile, group: dict, bits: int) -> int:
    """A group's difference at a generic grade: 0 exactly when it vanishes
    at every grade k.  `group` maps a term's weight offsets s to its image
    (n, e, l), so the difference at k is sum n X^e prod_s lambda_(k+s).

    With r = q^-1 (q-deformed) or p (two-param), (q - r) lambda_g = c^g - 1
    for c = q^2 or q/p, so (q - r)^M times the difference, where each term
    of m < M weights also takes (q - r)^(M - m), is a polynomial P in
    z = c^k, and it vanishes at k exactly when the difference does.  Read
    at z -> X^R, c^s -> X^(2s) or X^-s (and q - r -> X^-1 (X^2 - 1) or
    1 - X), each factor is a shift and a subtraction.  R exceeds the lanes
    a z-power's coefficient spans, so the blocks of the z-powers do not
    overlap, and B bounds 2^M sum |c|_1 (`_compare`), so no lane
    overflows: the read is 0 exactly when P is.  lambda_0 = 0 is the factor
    c^(k+s) - 1 at k = -s.  The classical profile evaluates
    prod_s (K + s), K = 2^R, in integers, with |P|'s coefficients below
    K / 2."""
    if not group:
        return 0
    if profile is CLASSICAL:
        size = 0
        for grades, (n, _, _) in group.items():
            for s in grades:
                n *= 1 + abs(s)
            size += abs(n)
        r = size.bit_length() + 1
        total = 0
        for grades, (n, _, _) in group.items():
            for s in grades:
                n = (n << r) + s * n
            total += n
        return total
    a, t, u = (2, 2, -1) if profile is Q_DEFORMED else (-1, 1, 0)
    most = max(map(len, group))  # M
    low, high = [], []
    for grades, (n, e, _) in group.items():
        pad = most - len(grades)
        low.append(e + u * pad + sum(min(0, a * s) for s in grades))
        high.append(e + (u + t) * pad + sum(max(0, a * s) for s in grades)
                    + abs(n).bit_length() // bits)
    r, base, total = max(high) - min(low) + 1, min(low), 0
    for grades, (n, e, _) in group.items():
        pad = most - len(grades)
        for s in grades:
            n = (n << bits * (r + a * s)) - n
        for _ in range(pad):
            n = (n << bits * t) - n
        if profile is TWO_PARAM and pad & 1:  # q - p -> 1 - X
            n = -n
        total += n << bits * (e + u * pad - base)
    return total


def _compare(profile: OscillatorProfile, diffs, lo: int, hi: int, occupancies, witness) -> tuple:
    """Whether each difference, a list of (scalar, ops) with ops in acting
    order, acts as zero on every |k, eps> with lo <= k <= hi and eps in
    `occupancies`.  Returns (True, None), or (False, witness(k, eps, i)) at
    the first k, then eps, then difference i where it does not.

    A term is read from the prefix sums s_j of its ops' n: from |k, eps> its
    path meets grade k + s_j at op j, dies at the first weighted op with
    k + s_j = 0 or at the first op that finds the wrong occupancy (which
    does not depend on k), and otherwise ends at (k + s_m, eps').  Terms that
    share an end label share it at every k.  Values are the exact integer
    images n X^e, X = 2^B, of `_pieces` (lambda_g has total degree -1 with
    two variables).  Terms are grouped by end label and total degree, and
    terms of a group that take the same weights are summed once, in
    planning.  The classical profile evaluates at q = 1 instead, where
    lambda_g = g.

    The verdict is decided once for the whole window: each group is read at
    a generic grade (`_generic_read`), which is 0 exactly when the group's
    sum vanishes at every grade.  There each of at most M factors, M no more
    than a term's ops, has l1 norm 2, so B bounds 2^M sum |c|_1.  If every
    group reads 0, only the grade checks of the vector path (`_act`) run, in
    their order: k, then each term's grades up to its death, term by term.
    Otherwise the window is scanned with `_act` itself, which makes those
    checks and is the one source of witnesses and of the order of errors.  A
    group can read nonzero and still vanish on every grade of the window
    (its paths die there), so a nonzero read never returns False by itself.
    """
    if profile is CLASSICAL:
        bits = 1  # every e is 0: X never enters
        image = lambda c: [(0, sum(c._terms.values()), 0, 0)]
    else:
        terms = [t for diff in diffs for t in diff]
        l1 = sum(sum(map(abs, c._terms.values())) for c, _ in terms)
        bits = (l1 << max(len(ops) for _, ops in terms)).bit_length() + 1
        image = lambda c: _pieces(c, bits)
    degree = -1 if profile is TWO_PARAM else 0  # of each weight
    # Plan each (eps, term) in one pass over its ops: its prefix sums, the
    # grades whose weights it takes, its dead set {-s_j: first weighted op j}
    # and the op that finds the wrong occupancy (m if none).  Surviving terms
    # are summed per end label (s_m, eps'), total degree and grades.
    reach = max(abs(lo), abs(hi))
    plans, scan = [], False
    for eps0 in occupancies:
        for i, diff in enumerate(diffs):
            near, groups = [], {}
            for scalar, ops in diff:
                s, eps, kill = 0, eps0, len(ops)
                prefix, grades, dead = [0], [], {}
                for j, (kind, n) in enumerate(ops):
                    weighted, needs = _OPS[kind]
                    if needs is not None:
                        if eps != needs:
                            kill = j
                            break
                        eps = 1 - needs
                    if weighted:
                        grades.append(s)
                        dead.setdefault(-s, j)
                    s += n
                    prefix.append(s)
                else:
                    for d, n, e, l in image(scalar):
                        group = groups.setdefault((s, eps, d + degree * len(grades)), {})
                        _add_image(group, tuple(grades), n, e, l, bits)
                if reach + max(map(abs, prefix)) > GRADE_CAP:
                    near.append((prefix, dead, kill))
            plans.append((eps0, i, near))
            # Only a group that reads nonzero can differ at a grade.
            scan = scan or any(_generic_read(profile, g, bits) for g in groups.values())
    # Without a nonzero read the loop runs the cap checks alone, and only if
    # one can fail: the window or a path passes the cap.
    if not scan and reach <= GRADE_CAP and not any(near for _, _, near in plans):
        return True, None
    if scan and profile is CLASSICAL:  # the scan acts at q = 1 too
        at_one = lambda c: LaurentPoly.constant(sum(c._terms.values()))
        diffs = [[(at_one(c), ops) for c, ops in diff] for diff in diffs]
    for k in range(lo, hi + 1):
        _check_grade(k)
        for eps, i, near in plans:
            if scan and not _act(diffs[i], basis_vector(profile, k, eps)).is_zero():
                return False, witness(k, eps, i)
            # Without the scan, a term leaves the cap at its first grade
            # k + s_(j+1) beyond it, unless its path died at op j or before.
            for prefix, dead, kill in () if scan else near:
                for s in prefix[1:dead.get(k, kill) + 1]:
                    _check_grade(k + s)
    return True, None


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
    pair per identity covered by the relation id.  An op is a (kind, n)
    pair of `_OPS`: a generator symbol, a grade shift ("shift", n) or a
    ladder operator, a = L[-1], a_dag = ("shift", 1), b or b_dag.  The
    leftmost op acts last.

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
    a, a_dag, b, b_dag = _LADDER.values()

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


def check_relation(rel, profile: OscillatorProfile, k_range) -> tuple:
    """Verify an operator identity on every |k, eps> with k in k_range.

    rel is an id string or a tuple (id, indices...): "boson", "fermion",
    "qboson", "gboson", ("qd", n), ("gqd", n), ("LE", m, n), ("qLE", m, n),
    ("gq", m, n); an unknown id, a wrong number of indices or an empty
    window raises ValueError, an id of another profile ProfileError.
    Returns (ok, witness) with a printed counterexample."""
    lo, hi = _grade_window(k_range)
    sides = [
        [[(c, ops[::-1]) for c, ops in side] for side in pair]
        for pair in _relation_sides(rel, profile)
    ]

    def witness(k, eps, i):
        v = basis_vector(profile, k, eps)
        left, right = (_act(side, v) for side in sides[i])
        return f"rel {rel!r} on |{k},{eps}>: lhs = {left}, rhs = {right}"

    diffs = [lhs + [(-c, ops) for c, ops in rhs] for lhs, rhs in sides]
    return _compare(profile, diffs, lo, hi, (0, 1), witness)


def oracle_consistency(word: Word, profile: OscillatorProfile, k_range) -> tuple:
    """Compare the raw word action with the action of its normal form on
    every basis vector in range.  The classical profile compares both sides
    of the standard normal form at q = 1.

    The difference, the raw word minus each normal-form term, goes through
    `_compare`, so the verdicts and witnesses are those of the full
    polynomial comparison of `apply_word` and `apply_element`, with their
    grade checks in their order.  Only |k, 0> is compared.  At |k, 1> a
    term with a W dies and a W-free term ends where it ends from |k, 0>,
    with eps = 1, so the difference there is the |k, 0> one on the W-free
    terms' labels, which terms with one W (ending at eps = 1) never share:
    it vanishes whenever the |k, 0> one does.  Nor can |k, 1> leave the cap
    first: its path dies at the first W, the |k, 0> one at the second, so it
    walks a prefix of it.
    """
    word = tuple(word)
    for sym in word:
        if sym.kind not in ("L", "W"):
            raise ProfileError("oracle words must be T-free")
    lo, hi = _grade_window(k_range)
    nf = normalize(word, _REWRITE_FOR.get(profile, DeformationProfile.STANDARD))
    diff = [(LaurentPoly.one(profile.nvars), word[::-1])]
    diff += [(-c, nw.letters[::-1]) for nw, c in nf._terms.items()]

    def witness(k, eps, i):
        v = basis_vector(profile, k, 0)
        shown = f"word {word_text(word)} on |{k},0>: direct = {apply_word(word, v)}"
        if profile is CLASSICAL:
            return f"{shown}, normal form at q=1 differs"
        return f"{shown}, via normal form = {apply_element(nf, v)}"

    return _compare(profile, [diff], lo, hi, (0,), witness)


def word_text(word: Word) -> str:
    kinds = {"T": "T", "Tinv": "T^-1"}
    return " ".join(kinds.get(sym.kind) or f"{sym.kind}[{sym.index}]" for sym in word) or "1"
