"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every output check at small size on genuine qw22 outputs, which it
must accept, and on copies corrupted three ways, which it must reject: one
coefficient's sign flipped, one term dropped, one q-exponent shifted by
one.  A corruption that cannot occur in an output (no q in it) or that the
check cannot see by its nature (a q-exponent at q = 1) is listed as n/a.
Exits 1 if a check accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qw22  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

KINDS = ("sign", "drop", "shift")
results = []  # (check, case, corruption, verdict)


def record(check, case, kind, verdict):
    results.append((check, case, kind, verdict))


# -- corruptions ------------------------------------------------------------------


def corrupt_poly_items(items: dict, kind: str):
    key, c = next(iter(sorted(items.items(), reverse=True)))
    out = dict(items)
    if kind == "sign":
        out[key] = -c
    else:  # shift
        del out[key]
        shifted = (key[0] + 1, key[1])
        out[shifted] = out.get(shifted, 0) + c
    return out


def corrupt_element(el, kind: str):
    terms = dict(el.terms())
    first = next(iter(terms))
    if kind == "drop":
        del terms[first]
    else:
        coeff = terms[first]
        terms[first] = qw22.LaurentPoly(corrupt_poly_items(dict(coeff.items()), kind), coeff.nvars)
    return qw22.Element(el.profile, terms)


def corrupt_vector(vec, kind: str):
    terms = dict(vec.terms())
    first = next(iter(terms))
    if kind == "drop":
        del terms[first]
    else:
        coeff = terms[first]
        terms[first] = qw22.LaurentPoly(corrupt_poly_items(dict(coeff.items()), kind), coeff.nvars)
    return qw22.ModuleVector(vec.profile, terms)


def corrupt_text(text: str, kind: str):
    body = text.rstrip("\n")
    if kind == "sign":
        body = body[1:] if body.startswith("-") else "-" + body
    elif kind == "drop":
        chunks = ref.split_signed(body)[:-1]
        if not chunks:
            body = "0"
        else:
            body = ("-" if chunks[0][0] < 0 else "") + chunks[0][1]
            for sign, chunk in chunks[1:]:
                body += (" - " if sign < 0 else " + ") + chunk
    else:
        m = re.search(r"q\^(-?\d+)", body)
        if m:
            body = body[: m.start()] + f"q^{int(m.group(1)) + 1}" + body[m.end() :]
        else:
            m = re.search(r"(?<![\w^])q(?![\w^])", body)
            if not m:
                return None
            body = body[: m.start()] + "q^2" + body[m.end() :]
    return body + "\n"


def _first(obj, key):
    """The first dict in obj, depth first, that holds key."""
    if isinstance(obj, dict):
        if key in obj:
            return obj
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            found = _first(item, key)
            if found is not None:
                return found
    return None


def corrupt_json(text: str, kind: str):
    obj = json.loads(text)
    if not obj["terms"]:
        return None
    if kind == "drop":
        obj["terms"].pop()
    elif kind == "sign":
        term = _first(obj, "c")
        if term is not None:
            term["c"] = str(-int(term["c"]))
        else:  # a numeric element: the coefficient is a rational string
            term = obj["terms"][0]
            term["coeff"] = str(-Fraction(term["coeff"]))
    else:
        term = _first(obj, "eq")
        if term is None:
            return None
        term["eq"] += 1
    return json.dumps(obj, indent=2) + "\n"


# -- assoc ------------------------------------------------------------------------


ASSOC_CHECKS = {
    "assoc: vanishes at q = 1": "nonzero at q = 1",
    "assoc: L-free triple associates": "does not associate",
    "assoc: oscillator action at q = 2": "acts wrongly",
}
ASSOC_CASES = (
    # T-free with L; L-free with T; L and T together.
    ((("L", 1),), (("L", -1),), (("L", -2),)),
    ((("W", 2), ("T", 1)), (("W", -1),), (("T", -1), ("W", 1))),
    ((("L", 1), ("L", 0)), (("T", 1),), ()),
)


def selftest_assoc():
    grades = list(wl.GRADES)
    for words in ASSOC_CASES:
        case = " | ".join(" ".join(f"{k}[{n}]" for k, n in w) or "1" for w in words)
        symbols = tuple(tuple(wl._symbol(k, n) for k, n in w) for w in words)
        left, right = wl.Assoc.run((words, grades, symbols))
        letters = [x for w in words for x in w]
        applies = ["assoc: vanishes at q = 1"]
        if not any(k == "L" for k, _ in letters):
            applies.append("assoc: L-free triple associates")
        if not any(k == "T" for k, _ in letters):
            applies.append("assoc: oscillator action at q = 2")
        genuine = wl.check_associator(words, grades, wl._element_terms(left), wl._element_terms(right))
        for check in applies:
            marker = ASSOC_CHECKS[check]
            record(check, case, "genuine", "accepted" if not any(marker in p for p in genuine) else "REJECTED")
            for kind in KINDS:
                if kind == "shift" and check == "assoc: vanishes at q = 1":
                    record(check, case, kind, "n/a")
                    continue
                bad = corrupt_element(left, kind)
                problems = wl.check_associator(words, grades, wl._element_terms(bad), wl._element_terms(right))
                record(check, case, kind, "rejected" if any(marker in p for p in problems) else "ACCEPTED")


# -- oracle -----------------------------------------------------------------------


def selftest_oracle():
    word = (("L", 2), ("W", -1), ("L", -3))
    symbols = tuple(wl._symbol(k, n) for k, n in word)
    for profile in wl.Oracle.profiles:
        osc = qw22.OscillatorProfile(profile)
        spec = (word, profile, symbols, osc, list(wl.GRADES))
        verdict = wl.Oracle.run(spec)
        problems, _ = wl.Oracle.check(spec, verdict)
        record("oracle: verdict and action", profile, "genuine", "REJECTED" if problems else "accepted")
        problems, _ = wl.Oracle.check(spec, (False, "witness"))
        record("oracle: verdict is True", profile, "False verdict", "rejected" if problems else "ACCEPTED")
        rewrite = qw22.GENERALIZED if profile == "two-param" else qw22.STANDARD
        module = qw22.Q_DEFORMED if profile == "classical" else osc
        nf = qw22.normalize(symbols, rewrite)
        actions = {
            (k, eps): qw22.apply_element(nf, qw22.basis_vector(module, k, eps))
            for k in wl.GRADES
            for eps in (0, 1)
        }
        target = next(label for label, vec in actions.items() if not vec.is_zero())
        q, p = wl.Oracle.points[profile]
        for kind in KINDS:
            if kind == "shift" and profile == "classical":
                record("oracle: lambda product at the point", profile, kind, "n/a")
                continue
            bad = dict(actions)
            bad[target] = corrupt_vector(actions[target], kind)
            problems = wl.check_oracle_actions(word, profile, bad, q, p)
            record("oracle: lambda product at the point", profile, kind, "rejected" if problems else "ACCEPTED")


# -- cli --------------------------------------------------------------------------


def _session(specs, outputs):
    problems, faults = [], []
    for spec, output in zip(specs, outputs):
        wrong, fault = wl.check_cli(spec, output)
        problems += wrong
        if fault:
            faults.append(fault)
    return problems, faults


def _selftest_session(name, make_specs, expect_faults=0):
    specs = make_specs()
    outputs = [wl.call_cli(spec[2]) for spec in specs]
    problems, faults = _session(specs, outputs)
    ok = not problems and len(faults) == expect_faults
    record(f"cli: {name}", "all calls", "genuine", "accepted" if ok else f"REJECTED {problems[:2]}")
    for i, spec in enumerate(specs):
        family, role, argv, _ = spec
        code, out, err = outputs[i]
        is_json = "--json" in argv
        for kind in KINDS:
            bad_out = corrupt_json(out, kind) if is_json else corrupt_text(out, kind)
            case = " ".join(argv)
            if bad_out is None or bad_out == out:
                record(f"cli: {name}: {role}", case, kind, "n/a")
                continue
            bad = list(outputs)
            bad[i] = (code, bad_out, err)
            problems, faults = _session(make_specs(), bad)
            record(f"cli: {name}: {role}", case, kind, "rejected" if problems else "ACCEPTED")


def selftest_cli():
    e = "2*q T^2 + L[2] L[1] - T^-1 W[1]^2 L[-1]"
    g = "p L[2] L[1] + W[-1]^2 L[1]"
    _selftest_session("generic", lambda: wl.generic_specs(e, g, Fraction(3, 2), Fraction(5, 2)))
    _selftest_session(
        "closed forms",
        lambda: wl.closed_form_specs(("W", 2, 1, 3), ("L", 3, "W", -2), ("L", 1, -3, Fraction(-2, 3))),
    )
    # One base that associates and one that does not.
    _selftest_session("cube", lambda: wl.cube_specs("L[2] + L[-1]"))
    _selftest_session("cube", lambda: wl.cube_specs("L[1] L[-1] + L[-2]"), expect_faults=1)


def main() -> int:
    selftest_assoc()
    selftest_oracle()
    selftest_cli()
    width = max(len(r[0]) for r in results)
    for check, case, kind, verdict in results:
        print(f"{check:<{width}}  {kind:<13}  {verdict:<9}  {case}")
    bad = [r for r in results if r[3] not in ("accepted", "rejected", "n/a")]
    detected = {r[0] for r in results if r[3] == "rejected"}
    blind = {r[0] for r in results if r[2] in KINDS} - detected
    print(
        f"{len(results)} cases, {sum(r[3] == 'rejected' for r in results)} corruptions rejected, "
        f"{len(bad)} wrong verdicts, {len(blind)} checks that reject no corruption"
    )
    return 1 if bad or blind else 0


if __name__ == "__main__":
    sys.exit(main())
