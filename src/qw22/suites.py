"""Named verification suites behind the `check` command.

Every suite is deterministic: randomized cases draw from a fresh
`random.Random(seed)`, so two runs with the same bounds produce identical
reports, byte for byte.  Wall time is measured but kept out of the report
body so that reports stay reproducible.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import oscillator as osc
from .algebra import (
    GENERALIZED,
    STANDARD,
    Element,
    L,
    NormalWord,
    T,
    T_INV,
    W,
    _bracket,
    classical_limit,
    element_from,
    evaluate,
    multiply,
    normalize,
    substitute_p_inverse,
)
from .hopf import (
    GENERATOR_LAWS,
    PAIR_LAWS,
    PRESERVATION_LAWS,
    antipode,
    check_axiom,
    coproduct,
    power_closed_form,
)
from .laurent import LaurentPoly, q_identity_check, q_int
from .oscillator import check_relation, oracle_consistency, word_text


class SuiteBounds(namedtuple("SuiteBounds", "max_index max_len k_range seed cases",
                             defaults=(4, 3, (-8, 8), 0, 200))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("max_index", "max_len", "cases"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        osc._grade_window(self.k_range)
        return self


class CheckReport(namedtuple(
    "CheckReport",
    "suite profile bounds cases_run cases_failed first_counterexample wall_time_s",
)):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.cases_failed == 0


def render_text(report: CheckReport) -> str:
    b = report.bounds
    lo, hi = b.k_range
    lines = [
        f"suite: {report.suite}",
        f"profile: {report.profile}",
        f"bounds: max-index={b.max_index} max-len={b.max_len} "
        f"k-range={lo}..{hi} cases={b.cases}",
        f"seed: {b.seed}",
        f"cases run: {report.cases_run}",
        f"cases failed: {report.cases_failed}",
    ]
    if report.first_counterexample is not None:
        lines.append(f"first counterexample: {report.first_counterexample}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def report_json_obj(report: CheckReport) -> dict:
    b = report.bounds
    return {
        "suite": report.suite,
        "profile": report.profile,
        "bounds": {
            "max_index": b.max_index,
            "max_len": b.max_len,
            "k_range": list(b.k_range),
            "cases": b.cases,
        },
        "seed": b.seed,
        "cases_run": report.cases_run,
        "cases_failed": report.cases_failed,
        "first_counterexample": report.first_counterexample,
        "result": "PASS" if report.passed else "FAIL",
    }


def _index_range(max_index: int):
    return range(-max_index, max_index + 1)


def _random_word(rng: random.Random, max_len: int, max_index: int, allow_t: bool):
    kinds = ("T", "Tinv", "L", "W") if allow_t else ("L", "W")
    out = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(kinds)
        if kind == "T":
            out.append(T)
        elif kind == "Tinv":
            out.append(T_INV)
        else:
            n = rng.randint(-max_index, max_index)
            out.append(L(n) if kind == "L" else W(n))
    return tuple(out)


def _random_block(rng: random.Random, max_len: int, max_index: int):
    count = rng.randint(0, max_len)
    if count == 0:
        return ()
    pool = list(_index_range(max_index))
    idxs = sorted(rng.sample(pool, min(count, len(pool))))
    mults = [1] * len(idxs)
    spare = max_len - len(idxs)
    if spare > 0:
        mults[rng.randrange(len(idxs))] += rng.randint(0, spare)
    return tuple(zip(idxs, mults))


def _random_normal_word(rng, max_len, max_index, with_t: bool) -> NormalWord:
    return NormalWord(
        t_exp=rng.randint(-3, 3) if with_t else 0,
        l_block=_random_block(rng, max_len, max_index),
        w_block=_random_block(rng, max_len, max_index),
    )


# -- individual suites -------------------------------------------------------
#
# Each suite yields one (ok, describe) pair per case; describe() renders the
# case as a counterexample and is called before the suite moves on.


def _suite_q_identities(bounds: SuiteBounds, rng):
    mi = bounds.max_index
    for m in _index_range(mi):
        for n in _index_range(mi):
            yield q_identity_check(m, n), lambda: f"q-integer identity failed at m={m} n={n}"
    q2 = LaurentPoly.q_power(1, 2)
    p2 = LaurentPoly.p_power(1)
    for n in _index_range(mi):
        lhs = (q2 - p2) * q_int(n, 2)
        rhs = LaurentPoly.q_power(n, 2) - LaurentPoly.p_power(n)
        yield lhs == rhs, lambda: f"(q - p) * [{n}] = {lhs}, expected {rhs}"
        folded = q_int(n, 2).substitute_p_inverse()
        yield folded == q_int(n), lambda: (
            f"[{n}] at p = q^-1 gave {folded}, expected {q_int(n)}"
        )


def _suite_rewrite_assoc(bounds: SuiteBounds, rng):
    for profile, allow_t in ((STANDARD, True), (GENERALIZED, False)):
        for _ in range(bounds.cases):
            words = [
                _random_word(rng, bounds.max_len, bounds.max_index, allow_t)
                for _ in range(3)
            ]
            x, y, z = (normalize(w, profile) for w in words)
            yield multiply(multiply(x, y), z) == multiply(x, multiply(y, z)), lambda: (
                f"[{profile.value}] (xy)z != x(yz) for x={word_text(words[0]) or '1'} "
                f"y={word_text(words[1]) or '1'} z={word_text(words[2]) or '1'}"
            )


def _suite_basis_stability(bounds: SuiteBounds, rng):
    for profile, with_t in ((STANDARD, True), (GENERALIZED, False)):
        for _ in range(bounds.cases):
            nw = _random_normal_word(rng, bounds.max_len, bounds.max_index, with_t)
            got = normalize(nw.generator_sequence(), profile)
            yield got == element_from(nw, profile), lambda: (
                f"[{profile.value}] normal word {nw.text() or '1'} rewrote to {got}"
            )


def _hopf_generators(max_index: int):
    gens = [element_from(NormalWord(t_exp=1)), element_from(NormalWord(t_exp=-1))]
    for n in _index_range(max_index):
        gens.append(element_from(L(n)))
        gens.append(element_from(W(n)))
    return gens


def _suite_hopf_axioms(bounds: SuiteBounds, rng):
    for el in _hopf_generators(bounds.max_index):
        for axiom in GENERATOR_LAWS:
            ok, witness = check_axiom(axiom, el)
            yield ok, lambda: f"{axiom} failed on {el}: {witness}"
    for _ in range(bounds.cases):
        wx = _random_word(rng, bounds.max_len, bounds.max_index, True)
        wy = _random_word(rng, bounds.max_len, bounds.max_index, True)
        x = normalize(wx, STANDARD)
        y = normalize(wy, STANDARD)
        for axiom in PAIR_LAWS:
            ok, witness = check_axiom(axiom, (x, y))
            yield ok, lambda: (
                f"{axiom} failed on x={word_text(wx) or '1'} "
                f"y={word_text(wy) or '1'}: {witness}"
            )
    # Delta is cocommutative (README), so a flip witness is a failure.
    found, witness = check_axiom("cocommutativity-witness", element_from(L(1)))
    yield not found, lambda: f"delta(L[1]) differs from its flip by {witness}"
    found, _ = check_axiom("commutativity-witness", (0, 1))
    yield found, lambda: "expected L[0] and L[1] not to commute"


def _suite_closed_forms(bounds: SuiteBounds, rng):
    for kind in ("L", "W"):
        build = L if kind == "L" else W
        for n in _index_range(bounds.max_index):
            for r in range(7):
                x = normalize((build(n),) * r, STANDARD)
                yield coproduct(x) == power_closed_form("delta", kind, n, r), lambda: (
                    f"delta closed form disagrees on {kind}[{n}]^{r}"
                )
                yield antipode(x) == power_closed_form("antipode", kind, n, r), lambda: (
                    f"antipode closed form disagrees on {kind}[{n}]^{r}"
                )


def _suite_relation_preservation(bounds: SuiteBounds, rng):
    for law in PRESERVATION_LAWS:
        map_name, rel = law.split("-")
        for m in _index_range(bounds.max_index):
            for n in _index_range(bounds.max_index):
                ok, witness = check_axiom(law, (m, n))
                yield ok, lambda: (
                    f"{map_name} breaks relation {rel} at m={m} n={n}: {witness}"
                )


def _suite_rep_oracle(bounds: SuiteBounds, rng):
    for profile in (osc.CLASSICAL, osc.Q_DEFORMED, osc.TWO_PARAM):
        for _ in range(bounds.cases):
            word = _random_word(rng, bounds.max_len, bounds.max_index, False)
            ok, witness = oracle_consistency(word, profile, bounds.k_range)
            yield ok, lambda: (
                f"[{profile.value}] module action disagrees with the normal "
                f"form of {word_text(word) or '1'}: {witness}"
            )


def _suite_osc_relations(bounds: SuiteBounds, rng):
    jobs = [("boson", osc.CLASSICAL), ("qboson", osc.Q_DEFORMED), ("gboson", osc.TWO_PARAM)]
    jobs += [("fermion", p) for p in (osc.CLASSICAL, osc.Q_DEFORMED, osc.TWO_PARAM)]
    jobs += [(("qd", n), osc.Q_DEFORMED) for n in range(-10, 11)]
    jobs += [(("gqd", n), osc.TWO_PARAM) for n in range(-10, 11)]
    for m in _index_range(bounds.max_index):
        for n in _index_range(bounds.max_index):
            jobs.append((("LE", m, n), osc.CLASSICAL))
            jobs.append((("qLE", m, n), osc.Q_DEFORMED))
            jobs.append((("gq", m, n), osc.TWO_PARAM))
    for rel, profile in jobs:
        ok, witness = check_relation(rel, profile, bounds.k_range)
        yield ok, lambda: f"[{profile.value}] relation {rel} fails: {witness}"


def _suite_classical_limit(bounds: SuiteBounds, rng):
    mi = bounds.max_index
    zero = Element.zero(STANDARD)
    for m in _index_range(mi):
        for n in _index_range(mi):
            for tag, left, right in (("LL", L(m), L(n)), ("LW", W(m), L(n)), ("WW", W(m), W(n))):
                # The defining relation in bracket form, from the rewriter's table.
                got, want = (
                    sum((normalize(word) * c for c, word in side), zero)
                    for side in _bracket(left, right, STANDARD)
                )
                yield got == want, lambda: (
                    f"{tag} bracket at m={m} n={n} gave {got}, expected {want}"
                )
                a, b = element_from(right), element_from(left)
                limit_got = classical_limit(multiply(a, b) - multiply(b, a))
                limit_want = evaluate(want, 1)
                yield limit_got == limit_want, lambda: (
                    f"{tag} commutator at q=1, m={m} n={n}: got {limit_got}, "
                    f"expected {limit_want}"
                )
                gen = multiply(element_from(right, GENERALIZED), element_from(left, GENERALIZED))
                std = multiply(a, b)
                folded = substitute_p_inverse(gen)
                yield folded == std, lambda: (
                    f"{tag} two-parameter product at p=q^-1, m={m} n={n}: "
                    f"got {folded}, expected {std}"
                )


_BOTH_PROFILES = "standard-q, generalized-two-param"
_OSCILLATOR_PROFILES = "classical, q-deformed, two-param"

# id -> (suite, the profiles it covers), in the order `all` runs them.
_SUITES = {
    "q-identities": (_suite_q_identities, _BOTH_PROFILES),
    "rewrite-assoc": (_suite_rewrite_assoc, _BOTH_PROFILES),
    "basis-stability": (_suite_basis_stability, _BOTH_PROFILES),
    "hopf-axioms": (_suite_hopf_axioms, "standard-q"),
    "closed-forms": (_suite_closed_forms, "standard-q"),
    "relation-preservation": (_suite_relation_preservation, "standard-q"),
    "rep-oracle": (_suite_rep_oracle, _OSCILLATOR_PROFILES),
    "osc-relations": (_suite_osc_relations, _OSCILLATOR_PROFILES),
    "classical-limit": (_suite_classical_limit, _BOTH_PROFILES),
}
SUITE_IDS = tuple(_SUITES)


def _run_one(suite_id: str, bounds: SuiteBounds) -> CheckReport:
    suite, profile = _SUITES[suite_id]
    run = failed = 0
    first = None
    start = time.perf_counter()
    for ok, describe in suite(bounds, random.Random(bounds.seed)):
        run += 1
        if not ok:
            failed += 1
            if first is None:
                first = describe()
    return CheckReport(
        suite=suite_id,
        profile=profile,
        bounds=bounds,
        cases_run=run,
        cases_failed=failed,
        first_counterexample=first,
        wall_time_s=time.perf_counter() - start,
    )


def run_suite(suite_id: str, bounds: SuiteBounds) -> list:
    """Run one suite, or all of them plus an aggregate when id is "all"."""
    if suite_id in _SUITES:
        return [_run_one(suite_id, bounds)]
    if suite_id != "all":
        raise ValueError(f"unknown suite {suite_id!r}")
    reports = [_run_one(sid, bounds) for sid in SUITE_IDS]
    first = None
    for r in reports:
        if r.first_counterexample is not None:
            first = f"{r.suite}: {r.first_counterexample}"
            break
    reports.append(
        CheckReport(
            suite="all",
            profile="all",
            bounds=bounds,
            cases_run=sum(r.cases_run for r in reports),
            cases_failed=sum(r.cases_failed for r in reports),
            first_counterexample=first,
            wall_time_s=sum(r.wall_time_s for r in reports),
        )
    )
    return reports
