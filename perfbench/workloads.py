"""The three workloads: seeded inputs, the timed operation, the output check.

Each workload is built for one round, the work of one fresh worker process.
A round's inputs come from two generators.  The shape of every input (word
lengths, letter kinds, oscillator profile, expression layout) is drawn from
a fixed seed, so every round of every run has the same make-up of work.
The values (generator indices, T directions, scalars, evaluation points)
are drawn from the run's --seed and the round number.  Without the fixed
shapes, a few heavy inputs decide a run's throughput: see README.

``run(spec)`` is the timed operation and calls only the public qw22 API.
``check(spec, output)`` runs after the timed pass and returns
(problems, known_fault) where problems lists every disagreement with a
reference computation and known_fault names a failure of the one fault the
benchmark counts as failed (see Cli).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import qw22
import qw22.cli
import reference as ref

GRADES = range(-8, 9)


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _element_terms(el) -> dict:
    """An Element read through its public API into the reference form."""
    return {
        (nw.t_exp, nw.l_block, nw.w_block): dict(coeff.items()) for nw, coeff in el.terms()
    }


def _vector_values(vec, q, p=None) -> dict:
    out = {}
    for (k, eps), coeff in vec.terms():
        v = ref.poly_value(dict(coeff.items()), q, p)
        if v:
            out[(k, eps)] = v
    return out


def _symbol(kind: str, n: int):
    if kind == "T":
        return qw22.T if n > 0 else qw22.T_INV
    return qw22.L(n) if kind == "L" else qw22.W(n)


# -- assoc ----------------------------------------------------------------------


class Assoc:
    """Associators (xy)z vs x(yz) on standard-profile words of up to three
    letters from L[n], W[n] (n in [-5, 5]), T and T^-1."""

    ops_per_round = 500
    # Letter kinds in the proportions of the 24-symbol pool: 11 L, 11 W, 2 T.
    _kinds = ["L"] * 11 + ["W"] * 11 + ["T"] * 2

    def __init__(self, seed: int, round_index: int):
        shape_rng = _rng("assoc-shapes")
        rng = _rng("assoc", seed, round_index)
        self.specs = []
        for _ in range(self.ops_per_round):
            shape = [
                [shape_rng.choice(self._kinds) for _ in range(shape_rng.randint(0, 3))]
                for _ in range(3)
            ]
            words = tuple(
                tuple((kind, rng.choice((1, -1)) if kind == "T" else rng.randint(-5, 5)) for kind in w)
                for w in shape
            )
            grades = rng.sample(list(GRADES), 4)
            symbols = tuple(tuple(_symbol(kind, n) for kind, n in w) for w in words)
            self.specs.append((words, grades, symbols))

    @staticmethod
    def run(spec):
        x, y, z = (qw22.element_from(w) for w in spec[2])
        return qw22.multiply(qw22.multiply(x, y), z), qw22.multiply(x, qw22.multiply(y, z))

    @staticmethod
    def check(spec, output):
        words, grades, _ = spec
        return check_associator(words, grades, *(_element_terms(el) for el in output)), None


def check_associator(words, grades, left: dict, right: dict) -> list:
    """Properties every associator of this presentation has (README
    "Verification results"): it vanishes at q = 1; it is zero when no
    factor holds an L; and on T-free triples both sides act on the
    q-deformed oscillator as the three factors composed, checked at q = 2
    on |k, eps> for the sampled grades k."""
    problems = []
    letters = [letter for w in words for letter in w]
    text = " | ".join(" ".join(f"{k}[{n}]" for k, n in w) or "1" for w in words)
    diff = ref.element_diff(left, right)
    if any(ref.poly_at_one(poly) for poly in diff.values()):
        problems.append(f"associator of {text} is nonzero at q = 1")
    if not any(kind == "L" for kind, _ in letters) and diff:
        problems.append(f"L-free triple {text} does not associate")
    if not any(kind == "T" for kind, _ in letters):
        weight = lambda k: ref.ladder_weight("q-deformed", k, 2, None)
        sides = (("(xy)z", ref.evaluate(left, 2)), ("x(yz)", ref.evaluate(right, 2)))
        for k in grades:
            for eps in (0, 1):
                hit = ref.word_action(letters, k, eps, weight)
                want = {} if hit is None else dict([hit])
                for side, values in sides:
                    if ref.element_action(values, k, eps, weight) != want:
                        problems.append(f"{side} of {text} acts wrongly on |{k},{eps}> at q = 2")
    return problems


# -- oracle ---------------------------------------------------------------------


class Oracle:
    """oracle_consistency over grades -8..8 on T-free words of up to five
    letters (n in [-5, 5]); the three oscillator profiles take turns."""

    ops_per_round = 600
    profiles = ("classical", "q-deformed", "two-param")
    # Evaluation point of the independent check; q = 1 for the classical
    # profile, whose oracle compares at q = 1.
    points = {"classical": (1, None), "q-deformed": (2, None), "two-param": (2, 3)}

    def __init__(self, seed: int, round_index: int):
        shape_rng = _rng("oracle-shapes")
        rng = _rng("oracle", seed, round_index)
        self.specs = []
        for i in range(self.ops_per_round):
            kinds = [shape_rng.choice("LW") for _ in range(shape_rng.randint(0, 5))]
            word = tuple((kind, rng.randint(-5, 5)) for kind in kinds)
            profile = self.profiles[i % 3]
            symbols = tuple(_symbol(kind, n) for kind, n in word)
            grades = rng.sample(list(GRADES), 4)
            self.specs.append((word, profile, symbols, qw22.OscillatorProfile(profile), grades))

    @staticmethod
    def run(spec):
        return qw22.oracle_consistency(spec[2], spec[3], (GRADES.start, GRADES.stop - 1))

    @classmethod
    def check(cls, spec, output):
        word, profile, symbols, osc, grades = spec
        problems = []
        if output[0] is not True:
            problems.append(f"oracle verdict {output!r} on {word} ({profile})")
        # The program's action of the normal form on |k, eps> for the
        # sampled grades k, evaluated at the point.
        rewrite = qw22.GENERALIZED if profile == "two-param" else qw22.STANDARD
        module = qw22.Q_DEFORMED if profile == "classical" else osc
        nf = qw22.normalize(symbols, rewrite)
        actions = {
            (k, eps): qw22.apply_element(nf, qw22.basis_vector(module, k, eps))
            for k in grades
            for eps in (0, 1)
        }
        problems += check_oracle_actions(word, profile, actions, *cls.points[profile])
        return problems, None


def check_oracle_actions(word, profile: str, actions: dict, q, p) -> list:
    """The product of lambda_k weights along the raw word, evaluated
    exactly at (q, p), against the program's normal-form action."""
    problems = []
    weight = lambda k: ref.ladder_weight(profile, k, q, p)
    for (k, eps), vec in actions.items():
        hit = ref.word_action(word, k, eps, weight)
        want = {} if hit is None else dict([hit])
        if _vector_values(vec, q, p) != want:
            problems.append(f"normal form of {word} ({profile}) acts wrongly on |{k},{eps}>")
    return problems


# -- cli ------------------------------------------------------------------------


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qw22.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class Cli:
    """A session of in-process ``qw22.cli.main`` calls with stdout captured.

    Per round: ``groups`` generic groups of 15 calls on a seeded standard
    expression and a seeded generalized one, ``groups`` closed-form groups
    of 4 calls, and the cube calls ``(b)^3`` and ``(b)*(b)*(b)`` on the
    fixed ``cube_bases``.  The cube bases do not depend on --seed:
    ``(b)^3`` is computed as b*(b*b) while ``*`` folds left (ROADMAP item 5),
    so on every base that does not associate the two calls differ, and the
    share of failed calls is the same in every run.
    """

    groups = 20
    # Fixed cube bases in L alone, so that the oscillator sees every term
    # of both calls (a word with two W letters acts as zero on it).  The
    # first four associate, the last four do not.
    cube_bases = (
        "L[2] + L[-1]",
        "L[1] + L[0] + L[-1]",
        "q L[2] - L[-2]",
        "L[1] L[-1]",
        "L[1] L[-1] + L[-2]",
        "L[2] L[-1] + L[1]",
        "L[1] L[-2] + q L[0]",
        "L[2] + L[-2] + L[1]",
    )

    def __init__(self, seed: int, round_index: int):
        shape_rng = _rng("cli-shapes")
        rng = _rng("cli", seed, round_index)
        self.specs = []
        for _ in range(self.groups):
            e = _expression(shape_rng, rng, profile="standard")
            g = _expression(shape_rng, rng, profile="generalized")
            self.specs += generic_specs(e, g, _point(rng), _point(rng))
        for _ in range(self.groups):
            kind, r = shape_rng.choice("LW"), shape_rng.choice((2, 3))
            power = (kind, rng.randint(-3, 3), rng.randint(-3, 3), r)
            ka, kb = shape_rng.choice("LW"), shape_rng.choice("LW")
            commutator = (ka, rng.randint(-5, 5), kb, rng.randint(-5, 5))
            km = shape_rng.choice("LW")
            bracket = (km, rng.randint(-5, 5), rng.randint(-5, 5), _point(rng))
            self.specs += closed_form_specs(power, commutator, bracket)
        for base in self.cube_bases:
            self.specs += cube_specs(base)

    @staticmethod
    def run(spec):
        return call_cli(spec[2])

    @staticmethod
    def check(spec, output):
        return check_cli(spec, output)


def check_cli(spec, output):
    """Check one call of the session.  Calls are checked in session order,
    and a group's later calls use the outputs of its earlier ones."""
    family, role, argv, group = spec
    code, out, err = output
    call = "qw22 " + " ".join(argv)
    if code != 0:
        return [f"{call} exited {code}: {err.strip()}"], None
    group.setdefault("outputs", {})[role] = out
    if family == "closed":
        want = group["want"]
        if out.rstrip("\n") != want:
            return [f"{call} printed {out.strip()!r}, closed form {want!r}"], None
        return [], None
    if family == "closed-json":
        if ref.tensor_from_json(json.loads(out)) != group["tensor"]:
            return [f"{call} differs from the binomial closed form"], None
        return [], None
    if family == "cube":
        return _check_cube(role, group)
    return check_generic(role, call, out, group), None


def _check_cube(role, group):
    """Both (b)^3 and (b)*(b)*(b) act on the q-deformed oscillator as b
    applied three times (checked at q = 2 on every |k, eps> in the grade
    window), whatever the association order.  Where the two calls differ,
    (b)^3 must equal the right fold b*(b*b): that is the known fault."""
    if role != "fold":
        return [], None
    outputs = group["outputs"]
    base = group["base"]
    call = f"qw22 normalize '({base})^3'"
    code, out, _ = call_cli(("normalize", "--json", base))
    if code != 0:
        return [f"qw22 normalize --json '{base}' exited {code}"], None
    b = ref.evaluate(ref.element_from_json(json.loads(out)), 2)
    weight = lambda k: ref.ladder_weight("q-deformed", k, 2, None)
    problems = []
    cubes = {name: ref.evaluate(ref.element_from_text(outputs[name]), 2) for name in ("power", "fold")}
    for k in GRADES:
        for eps in (0, 1):
            want = {(k, eps): Fraction(1)}
            for _ in range(3):
                want = ref.vector_action(b, want, weight)
            for name, values in cubes.items():
                if ref.element_action(values, k, eps, weight) != want:
                    problems.append(f"{call} ({name}) acts wrongly on |{k},{eps}> at q = 2")
    if problems or outputs["power"] == outputs["fold"]:
        return problems, None
    code, right_fold, _ = call_cli(("normalize", f"({base})*(({base})*({base}))"))
    if code == 0 and right_fold == outputs["power"]:
        return [], (
            f"{call} differs from '({base})*({base})*({base})': "
            "the base does not associate and ^ folds right"
        )
    return [f"{call} differs from the left fold and from the right fold"], None


def check_generic(role, call, out, group) -> list:
    """Checks on one generic call.  The standard expression's normal form
    (its --json call, which comes first in the group) is the reference
    for the other maps; the checks compare outputs through properties of
    the method: text and JSON forms agree, re-normalizing a printed result
    returns it unchanged, the counit diagrams, eps(S x) = eps(x), and eval
    and limit equal the normal form evaluated here."""
    outs = group["outputs"]
    problems = []

    def fail(what):
        problems.append(f"{call}: {what}")

    if role in ("normalize", "gnormalize"):
        return []  # checked with its --json partner
    if role in ("normalize-json", "gnormalize-json"):
        el = ref.element_from_json(json.loads(out))
        text_role = role.replace("-json", "")
        profile = ["--profile", "generalized"] if role.startswith("g") else []
        if any(not ref.is_normal_word(w) for w in el):
            fail("a word is not normally ordered")
        if profile and any(w[0] for w in el):
            fail("a T-power in the generalized profile")
        problems += _text_matches(call, outs[text_role], el, profile)
        group["nf" if not profile else "gnf"] = el
        return problems
    nf = group["nf"]
    if role == "coproduct":
        return []
    if role == "coproduct-json":
        tensor = ref.tensor_from_json(json.loads(out))
        if any(not ref.is_normal_word(w) for key in tensor for w in key):
            fail("a slot word is not normally ordered")
        if ref.tensor_from_text(outs["coproduct"]) != tensor:
            fail("text and --json forms differ")
        problems += [f"{call}: {p}" for p in ref.counit_diagrams(tensor, nf)]
        return problems
    if role == "antipode":
        return []
    if role == "antipode-json":
        s = ref.element_from_json(json.loads(out))
        if ref.counit_of(s) != ref.counit_of(nf):
            fail("eps(S x) != eps(x)")
        problems += _text_matches(call, outs["antipode"], s, [])
        return problems
    if role in ("counit", "counit-json"):
        got = ref.poly_from_json(json.loads(out)) if role.endswith("json") else ref.poly_from_text(out)
        if got != ref.counit_of(nf):
            fail(f"{out.strip()!r} is not the sum of the T-power coefficients")
        return problems
    if role in ("eval", "eval-json", "limit", "limit-json"):
        x = group["x"] if role.startswith("eval") else 1
        got = ref.numeric_from_json(json.loads(out)) if role.endswith("json") else ref.numeric_from_text(out)
        if got != ref.evaluate(nf, x):
            fail(f"differs from the normal form evaluated at q = {x}")
        return problems
    if role == "geval-json":
        got = ref.numeric_from_json(json.loads(out))
        if got != ref.evaluate(group["gnf"], group["x"], group["y"]):
            fail("differs from the normal form evaluated at (q, p)")
        return problems
    raise ValueError(f"unknown role {role!r}")


def _text_matches(call, text, element: dict, profile) -> list:
    """The printed text reads back as the element, and re-normalizing it
    prints the same text."""
    problems = []
    if ref.element_from_text(text) != element:
        problems.append(f"{call}: text and --json forms differ")
    code, again, _ = call_cli(["normalize", *profile, "--", text.strip()])
    if code != 0 or again != text:
        problems.append(f"{call}: re-normalizing the printed result changes it")
    return problems


def _point(rng) -> Fraction:
    while True:
        x = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))
        if abs(x) != 1:
            return x


def _expression(shape_rng, rng, profile: str) -> str:
    """A seeded sum of one to three terms.  A term is an optional scalar
    and one or two ladder factors, some raised to a power 2 or 3, with a
    T-power |d| <= 3 placed before, between or after them (standard
    profile only)."""
    terms = []
    for _ in range(shape_rng.randint(1, 3)):
        factors = []
        for _ in range(shape_rng.randint(1, 2)):
            kind = shape_rng.choice("LW")
            power = shape_rng.choice((1, 1, 2, 3))
            text = f"{kind}[{rng.randint(-3, 3)}]"
            factors.append(text if power == 1 else f"{text}^{power}")
        if profile == "standard" and shape_rng.random() < 0.6:
            d = rng.choice((1, -1)) * rng.randint(1, 3)
            factors.insert(shape_rng.randint(0, len(factors)), "T" if d == 1 else f"T^{d}")
        scalar = shape_rng.choice(("", "int", "q", "p"))
        if scalar == "int":
            factors.insert(0, str(rng.randint(2, 4)))
        elif scalar == "q" or (scalar == "p" and profile == "standard"):
            factors.insert(0, f"q^{rng.choice((-2, -1, 2))}")
        elif scalar == "p":
            factors.insert(0, f"p^{rng.choice((-1, 1, 2))}")
        terms.append(" ".join(factors))
    out = terms[0]
    for term in terms[1:]:
        out += rng.choice((" + ", " - ")) + term
    return out


def generic_specs(e: str, g: str, x: Fraction, y: Fraction) -> list:
    """Fifteen calls on a standard expression e and a generalized one g;
    x and y are the evaluation point."""
    gen = ["--profile", "generalized"]
    calls = [
        ("normalize", ["normalize", e]),
        ("normalize-json", ["normalize", "--json", e]),
        ("coproduct", ["coproduct", e]),
        ("coproduct-json", ["coproduct", "--json", e]),
        ("antipode", ["antipode", e]),
        ("antipode-json", ["antipode", "--json", e]),
        ("counit", ["counit", e]),
        ("counit-json", ["counit", "--json", e]),
        ("eval", ["eval", f"--q={x}", e]),
        ("eval-json", ["eval", "--json", f"--q={x}", e]),
        ("limit", ["limit", e]),
        ("limit-json", ["limit", "--json", e]),
        ("gnormalize", ["normalize", *gen, g]),
        ("gnormalize-json", ["normalize", "--json", *gen, g]),
        ("geval-json", ["eval", "--json", *gen, f"--q={x}", f"--p={y}", g]),
    ]
    group = {"x": x, "y": y}
    return [("generic", role, tuple(argv), group) for role, argv in calls]


def closed_form_specs(power, commutator, bracket) -> list:
    """Four calls whose printed results have closed forms (README): the
    binomial coproduct and antipode of T^d X[n]^r, the classical limit of
    the commutator [X[a], Y[b]], and under eval the q-integer [m - n] of
    the defining relation of L[n] and X[m]."""
    kind, d, n, r = power
    base = (f"T^{d} " if d else "") + f"{kind}[{n}]^{r}"
    ka, a, kb, b = commutator
    km, n2, m2, x = bracket
    qbr = f"qbr(L[{n2}], {km}[{m2}]; q^{n2 - m2}, q^{m2 - n2})"
    return [
        ("closed-json", "coproduct", ("coproduct", "--json", base), {"tensor": ref.coproduct_power(d, kind, n, r)}),
        ("closed", "antipode", ("antipode", base), {"want": ref.antipode_power_text(d, kind, n, r)}),
        (
            "closed",
            "limit",
            ("limit", f"{ka}[{a}] {kb}[{b}] - {kb}[{b}] {ka}[{a}]"),
            {"want": ref.commutator_limit_text(ka, a, kb, b)},
        ),
        ("closed", "eval", ("eval", f"--q={x}", qbr), {"want": ref.bracket_eval_text(km, n2, m2, x)}),
    ]


def cube_specs(base: str) -> list:
    group = {"base": base}
    return [
        ("cube", "power", ("normalize", f"({base})^3"), group),
        ("cube", "fold", ("normalize", f"({base})*({base})*({base})"), group),
    ]
