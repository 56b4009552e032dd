"""Named verification suites behind the `check` command.

Every suite is deterministic: randomized cases draw from a fresh
`random.Random(seed)`, so two runs with the same bounds produce identical
reports, byte for byte.  Wall time is measured but kept out of the report
body so that reports stay reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

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
from .hopf import antipode, check_axiom, coproduct, power_closed_form
from .laurent import LaurentPoly, q_identity_check, q_int
from .oscillator import check_relation, oracle_consistency, word_text

SUITE_IDS = (
    "q-identities",
    "rewrite-assoc",
    "basis-stability",
    "hopf-axioms",
    "closed-forms",
    "relation-preservation",
    "rep-oracle",
    "osc-relations",
    "classical-limit",
)

_HOPF_GENERATOR_AXIOMS = (
    "coassoc",
    "counit-left",
    "counit-right",
    "antipode-left",
    "antipode-right",
    "s-squared",
)


@dataclass(frozen=True)
class SuiteBounds:
    max_index: int = 4
    max_len: int = 3
    k_range: tuple = (-8, 8)
    seed: int = 0
    cases: int = 200


@dataclass
class CheckReport:
    suite: str
    profile: str
    bounds: SuiteBounds
    cases_run: int
    cases_failed: int
    first_counterexample: str | None
    wall_time_s: float

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


class _Recorder:
    """Counts cases and keeps the first failure's description."""

    def __init__(self):
        self.run = 0
        self.failed = 0
        self.first = None

    def record(self, ok: bool, describe):
        self.run += 1
        if not ok:
            self.failed += 1
            if self.first is None:
                self.first = describe()


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


def _suite_q_identities(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    mi = bounds.max_index
    for m in _index_range(mi):
        for n in _index_range(mi):
            ok = q_identity_check(m, n)
            rec.record(ok, lambda m=m, n=n: f"q-integer identity failed at m={m} n={n}")
    q2 = LaurentPoly.q_power(1, 2)
    p2 = LaurentPoly.p_power(1)
    for n in _index_range(mi):
        lhs = (q2 - p2) * q_int(n, 2)
        rhs = LaurentPoly.q_power(n, 2) - LaurentPoly.p_power(n)
        rec.record(
            lhs == rhs,
            lambda n=n, lhs=lhs, rhs=rhs: f"(q - p) * [{n}] = {lhs}, expected {rhs}",
        )
        folded = q_int(n, 2).substitute_p_inverse()
        rec.record(
            folded == q_int(n),
            lambda n=n, folded=folded: f"[{n}] at p = q^-1 gave {folded}, expected {q_int(n)}",
        )
    return "standard-q, generalized-two-param", rec


def _suite_rewrite_assoc(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for profile, allow_t in ((STANDARD, True), (GENERALIZED, False)):
        for _ in range(bounds.cases):
            words = [
                _random_word(rng, bounds.max_len, bounds.max_index, allow_t)
                for _ in range(3)
            ]
            x, y, z = (normalize(w, profile) for w in words)
            left = multiply(multiply(x, y), z)
            right = multiply(x, multiply(y, z))
            rec.record(
                left == right,
                lambda words=words, profile=profile: (
                    f"[{profile.value}] (xy)z != x(yz) for x={word_text(words[0]) or '1'} "
                    f"y={word_text(words[1]) or '1'} z={word_text(words[2]) or '1'}"
                ),
            )
    return "standard-q, generalized-two-param", rec


def _suite_basis_stability(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for profile, with_t in ((STANDARD, True), (GENERALIZED, False)):
        for _ in range(bounds.cases):
            nw = _random_normal_word(rng, bounds.max_len, bounds.max_index, with_t)
            got = normalize(nw.generator_sequence(), profile)
            want = element_from(nw, profile)
            rec.record(
                got == want,
                lambda nw=nw, got=got, profile=profile: (
                    f"[{profile.value}] normal word {nw.text() or '1'} rewrote to {got}"
                ),
            )
    return "standard-q, generalized-two-param", rec


def _hopf_generators(max_index: int):
    gens = [element_from(NormalWord(t_exp=1)), element_from(NormalWord(t_exp=-1))]
    for n in _index_range(max_index):
        gens.append(element_from(L(n)))
        gens.append(element_from(W(n)))
    return gens


def _suite_hopf_axioms(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for el in _hopf_generators(bounds.max_index):
        for axiom in _HOPF_GENERATOR_AXIOMS:
            ok, witness = check_axiom(axiom, el)
            rec.record(
                ok,
                lambda axiom=axiom, el=el, witness=witness: (
                    f"{axiom} failed on {el}: {witness}"
                ),
            )
    for _ in range(bounds.cases):
        wx = _random_word(rng, bounds.max_len, bounds.max_index, True)
        wy = _random_word(rng, bounds.max_len, bounds.max_index, True)
        x = normalize(wx, STANDARD)
        y = normalize(wy, STANDARD)
        for axiom in ("delta-hom", "s-antihom"):
            ok, witness = check_axiom(axiom, (x, y))
            rec.record(
                ok,
                lambda axiom=axiom, wx=wx, wy=wy, witness=witness: (
                    f"{axiom} failed on x={word_text(wx) or '1'} "
                    f"y={word_text(wy) or '1'}: {witness}"
                ),
            )
    # Delta is cocommutative (README), so a flip witness is a failure.
    found, witness = check_axiom("cocommutativity-witness", element_from(L(1)))
    rec.record(not found, lambda: f"delta(L[1]) differs from its flip by {witness}")
    ok, _w = check_axiom("commutativity-witness", (0, 1))
    rec.record(ok, lambda: "expected L[0] and L[1] not to commute")
    return "standard-q", rec


def _suite_closed_forms(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for kind in ("L", "W"):
        build = L if kind == "L" else W
        for n in _index_range(bounds.max_index):
            for r in range(7):
                word = (build(n),) * r
                direct_d = coproduct(normalize(word, STANDARD))
                closed_d = power_closed_form("delta", kind, n, r)
                rec.record(
                    direct_d == closed_d,
                    lambda kind=kind, n=n, r=r: (
                        f"delta closed form disagrees on {kind}[{n}]^{r}"
                    ),
                )
                direct_s = antipode(normalize(word, STANDARD))
                closed_s = power_closed_form("antipode", kind, n, r)
                rec.record(
                    direct_s == closed_s,
                    lambda kind=kind, n=n, r=r: (
                        f"antipode closed form disagrees on {kind}[{n}]^{r}"
                    ),
                )
    return "standard-q", rec


def _suite_relation_preservation(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for map_name in ("delta", "eps", "s"):
        for rel in ("tl", "tw", "ll", "lw", "ww"):
            for m in _index_range(bounds.max_index):
                for n in _index_range(bounds.max_index):
                    ok, witness = check_axiom(f"{map_name}-{rel}", (m, n))
                    rec.record(
                        ok,
                        lambda map_name=map_name, rel=rel, m=m, n=n, witness=witness: (
                            f"{map_name} breaks relation {rel} at m={m} n={n}: {witness}"
                        ),
                    )
    return "standard-q", rec


def _suite_rep_oracle(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    for profile in (osc.CLASSICAL, osc.Q_DEFORMED, osc.TWO_PARAM):
        for _ in range(bounds.cases):
            word = _random_word(rng, bounds.max_len, bounds.max_index, False)
            ok, witness = oracle_consistency(word, profile, bounds.k_range)
            rec.record(
                ok,
                lambda profile=profile, word=word, witness=witness: (
                    f"[{profile.value}] module action disagrees with the normal "
                    f"form of {word_text(word) or '1'}: {witness}"
                ),
            )
    return "classical, q-deformed, two-param", rec


def _suite_osc_relations(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
    kr = bounds.k_range
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
        ok, witness = check_relation(rel, profile, kr)
        rec.record(
            ok,
            lambda rel=rel, profile=profile, witness=witness: (
                f"[{profile.value}] relation {rel} fails: {witness}"
            ),
        )
    return "classical, q-deformed, two-param", rec


def _suite_classical_limit(bounds: SuiteBounds, rng) -> tuple:
    rec = _Recorder()
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
                rec.record(
                    got == want,
                    lambda tag=tag, m=m, n=n, got=got, want=want: (
                        f"{tag} bracket at m={m} n={n} gave {got}, expected {want}"
                    ),
                )
                a, b = element_from(right), element_from(left)
                limit_got = classical_limit(multiply(a, b) - multiply(b, a))
                limit_want = evaluate(want, 1)
                rec.record(
                    limit_got == limit_want,
                    lambda tag=tag, m=m, n=n, limit_got=limit_got, limit_want=limit_want: (
                        f"{tag} commutator at q=1, m={m} n={n}: got {limit_got}, "
                        f"expected {limit_want}"
                    ),
                )
                gen = multiply(element_from(right, GENERALIZED), element_from(left, GENERALIZED))
                std = multiply(a, b)
                folded = substitute_p_inverse(gen)
                rec.record(
                    folded == std,
                    lambda tag=tag, m=m, n=n, folded=folded, std=std: (
                        f"{tag} two-parameter product at p=q^-1, m={m} n={n}: "
                        f"got {folded}, expected {std}"
                    ),
                )
    return "standard-q, generalized-two-param", rec


_SUITE_FUNCS = {
    "q-identities": _suite_q_identities,
    "rewrite-assoc": _suite_rewrite_assoc,
    "basis-stability": _suite_basis_stability,
    "hopf-axioms": _suite_hopf_axioms,
    "closed-forms": _suite_closed_forms,
    "relation-preservation": _suite_relation_preservation,
    "rep-oracle": _suite_rep_oracle,
    "osc-relations": _suite_osc_relations,
    "classical-limit": _suite_classical_limit,
}


def _run_one(suite_id: str, bounds: SuiteBounds) -> CheckReport:
    rng = random.Random(bounds.seed)
    start = time.perf_counter()
    profile, rec = _SUITE_FUNCS[suite_id](bounds, rng)
    elapsed = time.perf_counter() - start
    return CheckReport(
        suite=suite_id,
        profile=profile,
        bounds=bounds,
        cases_run=rec.run,
        cases_failed=rec.failed,
        first_counterexample=rec.first,
        wall_time_s=elapsed,
    )


def run_suite(suite_id: str, bounds: SuiteBounds) -> list:
    """Run one suite, or all of them plus an aggregate when id is "all"."""
    if suite_id in _SUITE_FUNCS:
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
