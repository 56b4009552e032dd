"""Command-line front end: outputs, exit codes, reports, determinism."""

import contextlib
import doctest
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qw22
from qw22.cli import _json_text, main
from qw22.suites import SuiteBounds


def run(argv, env=None):
    """Invoke main() in-process, capturing (exit_code, stdout, stderr)."""
    saved = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def test_normalize_documented_output():
    assert run(["normalize", "L[2]*L[1]"]) == (
        0,
        "q^-2 * L[1] L[2] - q^-1 * L[3]\n",
        "",
    )


def test_counit_documented_output():
    assert run(["counit", "T^2"]) == (0, "1\n", "")


def test_readme_examples():
    """Every >>> example in README's python blocks prints what it shows."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", readme, 0)
    report = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=report.write)
    assert result.attempted and not result.failed, report.getvalue()


def test_normalize_generalized_profile():
    code, out, _ = run(["normalize", "--profile", "generalized", "L[2]*L[1]"])
    assert code == 0
    assert out == "q^-1*p * L[1] L[2] - q^-1 * L[3]\n"


def test_coproduct_and_antipode():
    assert run(["coproduct", "L[1]"])[1] == "(L[1]) (x) (T) + (T) (x) (L[1])\n"
    assert run(["antipode", "W[2]"])[1] == "-q^-12 * T^-4 W[2]\n"
    assert run(["antipode", "T^8000"]) == (0, "T^-8000\n", "")
    assert run(["antipode", "L[1000000]"]) == (
        0,
        "-q^-2000002000000 * T^-2000000 L[1000000]\n",
        "",
    )


def test_normalize_long_word():
    # Inserting L[0] behind 1500 letters L[1] nests 1500 sub-insertions.
    code, out, _ = run(["normalize", "L[1]^1500 L[0]"])
    fused = " - ".join(f"q^-{e}" for e in range(1, 3000, 2))
    assert (code, out) == (0, f"q^-3000 * L[0] L[1]^1500 + (-{fused}) * L[1]^1500\n")


def test_eval_and_limit():
    assert run(["eval", "--q", "3/2", "q^2 + q^-2"]) == (0, "97/36\n", "")
    code, out, _ = run(["limit", "qbr(L[0], L[2]; q^-2, q^2)"])
    assert code == 0
    assert out == "2 * L[2]\n"


def test_normalize_json_shape():
    code, out, _ = run(["normalize", "--json", "L[2]*L[1]"])
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {
                "coeff": {"terms": [{"eq": -2, "c": "1"}]},
                "t": 0,
                "l": [[1, 1], [2, 1]],
                "w": [],
            },
            {
                "coeff": {"terms": [{"eq": -1, "c": "-1"}]},
                "t": 0,
                "l": [[3, 1]],
                "w": [],
            },
        ]
    }
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_parse_failures_exit_2():
    code, out, err = run(["normalize", "bad ["])
    assert (code, out) == (2, "")
    assert err == "error: unknown symbol 'bad' (line 1, column 1)\n"


def test_bound_failures_exit_3():
    code, out, err = run(["normalize", "L[9999999]"])
    assert (code, out) == (3, "")
    assert err == "error: generator index 9999999 beyond cap 1048576\n"
    code, out, err = run(["normalize", "T^99999999999999999999"])
    assert (code, out) == (3, "")
    assert err == "error: T-power beyond the checked window\n"
    for base in ("2", "(1+q)", "L[1]"):
        code, out, err = run(["normalize", f"{base}^99999999999999999999"])
        assert (code, out) == (3, "")
        assert err == (
            "error: power 99999999999999999999 of a non-unit beyond the checked 64-bit window\n"
        )


def test_digits_int_cannot_read_are_parse_errors():
    """Superscript digits pass str.isdigit but not int(); they are
    unexpected characters, while a fullwidth digit reads as its value."""
    for expr, message in (
        ("L[\u00b2]", "unexpected character '\u00b2' (line 1, column 3)"),
        ("2 L[1]^\u00b3", "unexpected character '\u00b3' (line 1, column 8)"),
    ):
        assert run(["normalize", expr]) == (2, "", f"error: {message}\n")
    assert run(["normalize", "L[\uff11]"]) == (0, "L[1]\n", "")


def test_long_chains_and_deep_nesting():
    """Sums and products are evaluated as iterative chains, so their length
    is not bound by the recursion limit; nesting deeper than MAX_DEPTH
    parentheses is a parse error at the first parenthesis past it."""
    assert run(["normalize", " + ".join(["L[1]"] * 1500)]) == (0, "1500 * L[1]\n", "")
    assert run(["normalize", " ".join(["L[1]"] * 1500)]) == (0, "L[1]^1500\n", "")
    assert run(["normalize", " - ".join(["L[1]"] * 1501)]) == (0, "-1499 * L[1]\n", "")
    deep = "(" * 3000 + "L[1]" + ")" * 3000
    assert run(["normalize", deep]) == (
        2, "", "error: parentheses nested deeper than 100 levels (line 1, column 101)\n"
    )
    assert run(["normalize", "(" * 100 + "L[1]" + ")" * 100]) == (0, "L[1]\n", "")
    code, _, err = run(["normalize", "qbr(" * 101])
    assert (code, err) == (
        2, "error: parentheses nested deeper than 100 levels (line 1, column 404)\n"
    )


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@settings(deadline=None, max_examples=100)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    )
)
def test_json_writer_matches_json_dumps(obj):
    """The direct indent-2 writer prints what json.dumps(obj, indent=2)
    does, byte for byte, on nested values with non-ASCII text, NaN and
    infinities, and empty containers."""
    assert _json_text(obj) == json.dumps(obj, indent=2)
    assert _json_text(("x", [], {})) == json.dumps(("x", [], {}), indent=2)


def _poly(*terms):
    return {"terms": [{"eq": e, "c": str(c)} for e, c in terms]}


def _word(t, l=(), w=()):
    return {"t": t, "l": [[n, 1] for n in l], "w": [[n, 1] for n in w]}


def test_map_commands_json_output():
    """Each map command's --json output, byte for byte."""
    coproduct = {"terms": [
        {"coeff": _poly((1, 1)), "slots": [_word(-1, w=[2]), _word(1)]},
        {"coeff": _poly((0, 1)), "slots": [_word(0, l=[1]), _word(1)]},
        {"coeff": _poly((1, 1)), "slots": [_word(1), _word(-1, w=[2])]},
        {"coeff": _poly((0, 1)), "slots": [_word(1), _word(0, l=[1])]},
    ]}
    antipode = {"terms": [
        {"coeff": _poly((-7, 1)), **_word(-2, w=[1])},
        {"coeff": _poly((-6, 1)), **_word(-2, l=[1], w=[0])},
        {"coeff": _poly((0, 2)), **_word(-1)},
    ]}
    limit = {"terms": [
        {"coeff": "2", **_word(0, w=[3])},
        {"coeff": "1", **_word(0, l=[2], w=[1])},
    ]}
    for argv, want in (
        (["coproduct", "--json", "L[1] + q T^-1 W[2]"], coproduct),
        (["antipode", "--json", "L[1] W[0] + 2 T"], antipode),
        (["counit", "--json", "T^-3 + 2"], _poly((0, 3))),
        (["limit", "--json", "W[1] L[2] + q W[3]"], limit),
    ):
        assert run(argv) == (0, json.dumps(want, indent=2) + "\n", ""), argv
    assert run(["counit", "T^-3 + 2"]) == (0, "3\n", "")
    assert run(["limit", "W[1] L[2] + q W[3]"]) == (0, "2 * W[3] + L[2] W[1]\n", "")


def test_profile_flag_only_where_declared():
    """The commands on the standard profile alone take --profile standard;
    another profile is an error that names the option, not its value taken
    as the expression."""
    for command in ("coproduct", "antipode", "counit", "limit"):
        code, out, err = run([command, "--profile", "generalized", "L[1]"])
        assert (code, out) == (2, ""), command
        assert err.endswith(
            f"qw22 {command}: error: argument --profile: "
            "invalid choice: 'generalized' (choose from 'standard')\n"
        )
        assert run([command, "--profile", "standard", "L[1]"]) == run([command, "L[1]"])


_STD, _GEN = qw22.DeformationProfile.STANDARD, qw22.DeformationProfile.GENERALIZED


@pytest.mark.parametrize("argv, value, text", [
    (["normalize", "2 L[2] L[-1] + q^-2 T W[1]"],
     lambda: qw22.parse_element("2 L[2] L[-1] + q^-2 T W[1]"),
     "2*q^-6 * L[-1] L[2] + (-2*q^-1 - 2*q^-3 - 2*q^-5) * L[1] + q^-2 * T W[1]"),
    (["normalize", "--profile", "generalized", "p L[2] L[-1] + W[0]"],
     lambda: qw22.parse_element("p L[2] L[-1] + W[0]", _GEN),
     "W[0] + q^-3*p^4 * L[-1] L[2] + (-q^-1*p - q^-2*p^2 - q^-3*p^3) * L[1]"),
    (["coproduct", "L[1] + q T^-1 W[2]"],
     lambda: qw22.coproduct(qw22.parse_element("L[1] + q T^-1 W[2]")),
     "q * (T^-1 W[2]) (x) (T) + (L[1]) (x) (T) + q * (T) (x) (T^-1 W[2]) + (T) (x) (L[1])"),
    (["antipode", "L[1] W[0] + 2 T"],
     lambda: qw22.antipode(qw22.parse_element("L[1] W[0] + 2 T")),
     "q^-7 * T^-2 W[1] + q^-6 * T^-2 L[1] W[0] + 2 * T^-1"),
    (["counit", "T^-3 + 2"], lambda: qw22.counit(qw22.parse_element("T^-3 + 2")), "3"),
    (["limit", "W[1] L[2] + q W[3]"],
     lambda: qw22.classical_limit(qw22.parse_element("W[1] L[2] + q W[3]")),
     "2 * W[3] + L[2] W[1]"),
    (["eval", "--q", "3/2", "W[1] L[2] + q W[3]"],
     lambda: qw22.evaluate(qw22.parse_element("W[1] L[2] + q W[3]"), Fraction(3, 2)),
     "3 * W[3] + 9/4 * L[2] W[1]"),
    (["eval", "--profile", "generalized", "--q", "2", "--p", "1/3", "p L[2] L[-1]"],
     lambda: qw22.evaluate(qw22.parse_element("p L[2] L[-1]", _GEN), 2, Fraction(1, 3)),
     "1/648 * L[-1] L[2] - 43/216 * L[1]"),
])
def test_each_call_builds_one_output_form(argv, value, text, monkeypatch):
    """A call builds only the form it prints, str() of its result for text
    and to_json_obj() under --json, and prints the pinned text or the
    result's JSON."""
    value = value()
    want = {"text": text + "\n", "json": json.dumps(value.to_json_obj(), indent=2) + "\n"}
    built, depth = [], [0]

    def spy(form, real):
        def wrapper(self):  # records the outermost build only
            built.append(form) if not depth[0] else None
            depth[0] += 1
            try:
                return real(self)
            finally:
                depth[0] -= 1
        return wrapper

    for cls in (qw22.Element, qw22.NumericElement, qw22.TensorElement, qw22.LaurentPoly):
        monkeypatch.setattr(cls, "__str__", spy("text", cls.__str__))
        monkeypatch.setattr(cls, "to_json_obj", spy("json", cls.to_json_obj))
    for form in ("text", "json"):
        built.clear()
        got = run(argv[:1] + ["--json"] * (form == "json") + argv[1:])
        assert (got, built) == ((0, want[form], ""), [form])


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"])[0] == 2
    assert run([])[0] == 2
    assert run(["check", "nope"])[0] == 2


def test_passing_suite_report():
    code, out, err = run(["check", "q-identities"])
    assert code == 0
    assert out == (
        "suite: q-identities\n"
        "profile: standard-q, generalized-two-param\n"
        "bounds: max-index=4 max-len=3 k-range=-8..8 cases=200\n"
        "seed: 0\n"
        "cases run: 99\n"
        "cases failed: 0\n"
        "result: PASS\n"
    )
    assert re.fullmatch(r"\[q-identities\] wall time: \d+\.\d{3}s\n", err)


def test_failing_suite_report_still_emitted():
    code, out, _ = run(
        ["check", "hopf-axioms", "--max-index", "4", "--max-len", "3", "--seed", "7"]
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "suite: hopf-axioms"
    assert lines[3] == "seed: 7"
    assert lines[4] == "cases run: 522"
    assert lines[5] == "cases failed: 43"
    assert lines[6].startswith("first counterexample: delta-hom failed on")
    assert lines[-1] == "result: FAIL"


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("rewrite-assoc", "--max-len", "-1"),
        ("basis-stability", "--max-len", "-1"),
        ("rep-oracle", "--max-index", "-2"),
        ("q-identities", "--max-index", "-1"),
        ("rewrite-assoc", "--cases", "-5"),
    ],
)
def test_negative_bounds_are_usage_errors(suite, flag, value):
    # Each once crashed with a traceback (exit 1) or ran no case and passed.
    code, out, err = run(["check", suite, flag, value])
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be nonnegative, got {value}" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_index", -2, "max_index must be nonnegative, got -2"),
        ("max_len", -1, "max_len must be nonnegative, got -1"),
        ("cases", -5, "cases must be nonnegative, got -5"),
        ("k_range", (5, -5), "empty k_range 5..-5"),
    ],
)
def test_suite_bounds_reject_invalid_fields(field, value, message):
    # Through the Python API these once crashed in randrange, or ran no
    # case (or a reversed k-range) and passed.
    with pytest.raises(ValueError, match=re.escape(message)):
        SuiteBounds(**{field: value})
    # zero and a one-point range stay valid
    SuiteBounds(max_index=0, max_len=0, cases=0, k_range=(3, 3))


def test_cocommutativity_is_not_a_failure():
    code, out, _ = run(["check", "hopf-axioms", "--max-index", "0", "--cases", "0"])
    assert code == 0
    assert out.splitlines()[5:] == ["cases failed: 0", "result: PASS"]


def test_suite_json_report():
    code, out, _ = run(["check", "q-identities", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report == {
        "suite": "q-identities",
        "profile": "standard-q, generalized-two-param",
        "bounds": {
            "max_index": 4,
            "max_len": 3,
            "k_range": [-8, 8],
            "cases": 200,
        },
        "seed": 0,
        "cases_run": 99,
        "cases_failed": 0,
        "first_counterexample": None,
        "result": "PASS",
    }


def test_seed_env_override():
    _, out, _ = run(["check", "q-identities", "--seed", "3"], env={"QW22_SEED": "11"})
    assert "seed: 11" in out.splitlines()


def test_check_runs_are_deterministic():
    first = run(["check", "basis-stability", "--seed", "5"])
    second = run(["check", "basis-stability", "--seed", "5"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_check_all_aggregates_every_suite():
    code, out, err = run(["check", "all"])
    assert code == 1
    blocks = out.rstrip("\n").split("\n\n")
    names = [block.splitlines()[0] for block in blocks]
    assert names == [
        "suite: q-identities",
        "suite: rewrite-assoc",
        "suite: basis-stability",
        "suite: hopf-axioms",
        "suite: closed-forms",
        "suite: relation-preservation",
        "suite: rep-oracle",
        "suite: osc-relations",
        "suite: classical-limit",
        "suite: all",
    ]
    aggregate = blocks[-1].splitlines()
    assert "cases run: 4508" in aggregate
    assert "cases failed: 213" in aggregate
    assert aggregate[-1] == "result: FAIL"
    assert len(re.findall(r"wall time: \d+\.\d{3}s", err)) == 10
    assert err.splitlines()[-1].startswith("[all] wall time:")


def _run_python(*args):
    """A fresh interpreter that imports the qw22 package under test, whether
    it is installed or found through pytest's `pythonpath`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(qw22.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _run_python("-m", "qw22", "normalize", "L[2]*L[1]")
    assert proc.returncode == 0
    assert proc.stdout == "q^-2 * L[1] L[2] - q^-1 * L[3]\n"


def test_import_loads_no_numpy():
    # qw22 has no runtime dependency: a fresh process that imports the
    # package and its CLI holds no numpy module
    code = "import sys, qw22, qw22.cli; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_dataclasses():
    # qw22 builds no dataclass, and the package does not load the check
    # suites until the CLI asks for them; -S keeps site hooks out.
    code = (
        "import sys, qw22; print('dataclasses' in sys.modules, 'qw22.suites' in sys.modules); "
        "import qw22.cli; print('dataclasses' in sys.modules)"
    )
    proc = _run_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\nFalse\n"


GOLDEN_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_check_reports.json").read_text()
)


@pytest.mark.parametrize("row", GOLDEN_REPORTS, ids=lambda row: " ".join(row["argv"]))
def test_golden_check_reports(row):
    # Recorded once and never regenerated: every suite's counts and first
    # counterexample, text and JSON, byte for byte.
    code, out, _ = run(row["argv"])
    assert (code, out) == (row["exit_code"], row["stdout"])
