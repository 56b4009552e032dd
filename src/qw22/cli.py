"""Command line front end.

Subcommands: normalize, coproduct, antipode, counit, eval, limit, check.
Exit codes: 0 success, 1 a check suite reported failures, 2 parse or usage
errors, 3 an arithmetic bound was exceeded.  Reports are byte-identical
across runs with equal arguments; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from .algebra import GENERALIZED, STANDARD, classical_limit, evaluate
from .errors import (
    ArithmeticBoundError,
    EvaluationDomainError,
    ParseError,
    ProfileError,
    UnsupportedInverseError,
)
from .exprparse import parse_element
from .hopf import antipode, coproduct, counit
from .suites import SUITE_IDS, SuiteBounds, render_text, report_json_obj, run_suite

_PROFILES = {"standard": STANDARD, "generalized": GENERALIZED}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _k_range(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return bounds


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str keys, without its pure-Python encoder;
    str and int leaves are written as json writes them, others by json.dumps."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{inner}{_json_str(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + ",".join([inner + _json_text(v, inner) for v in obj]) + indent + "]"
    if type(obj) is str:
        return _json_str(obj)
    return int.__repr__(obj) if type(obj) is int else json.dumps(obj)


def _emit(args, value) -> int:
    """Print value in the one form asked for, JSON or text; build only that."""
    print(_json_text(value.to_json_obj()) if args.json else value)
    return 0


# The map commands: name -> map of the parsed Element.  Each entry looks its
# map up by name when called, so a wrapper bound to that name sees the call.
_MAPS = {
    "normalize": lambda el: el,
    "coproduct": lambda el: coproduct(el),
    "antipode": lambda el: antipode(el),
    "counit": lambda el: counit(el),
    "limit": lambda el: classical_limit(el),
}


def _cmd_map(args) -> int:
    return _emit(args, _MAPS[args.command](parse_element(args.expr, _PROFILES[args.profile])))


def _cmd_eval(args) -> int:
    profile = _PROFILES[args.profile]
    if profile is STANDARD and args.p is not None:
        print("error: --p only applies to the generalized profile", file=sys.stderr)
        return 2
    if profile is GENERALIZED and args.p is None:
        print("error: the generalized profile needs --p", file=sys.stderr)
        return 2
    return _emit(args, evaluate(parse_element(args.expr, profile), args.q, args.p))


def _cmd_check(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("QW22_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"error: QW22_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
    bounds = SuiteBounds(
        max_index=args.max_index,
        max_len=args.max_len,
        k_range=args.k_range,
        seed=seed,
        cases=args.cases,
    )
    reports = run_suite(args.suite, bounds)
    if args.json:
        objs = [report_json_obj(r) for r in reports]
        print(_json_text(objs[0] if len(objs) == 1 else objs))
    else:
        print("\n\n".join(render_text(r) for r in reports))
    for r in reports:
        print(f"[{r.suite}] wall time: {r.wall_time_s:.3f}s", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qw22",
        description="Exact computations in a q-deformed W(2,2) algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, generalized=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expr", help="element expression, e.g. 'L[2]*L[1]'")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--profile",
            choices=sorted(_PROFILES) if generalized else ["standard"],
            default="standard",
            help="coefficient and relation profile",
        )
        p.set_defaults(func=func)
        return p

    add("normalize", _cmd_map, "rewrite an expression into the PBW basis",
        generalized=True)
    add("coproduct", _cmd_map, "apply the coproduct")
    add("antipode", _cmd_map, "apply the antipode")
    add("counit", _cmd_map, "apply the counit")

    p_eval = add("eval", _cmd_eval, "evaluate coefficients at rational points",
                 generalized=True)
    p_eval.add_argument("--q", type=_fraction, required=True,
                        help="rational value for q, e.g. 3/2")
    p_eval.add_argument("--p", type=_fraction, default=None,
                        help="rational value for p (generalized profile only)")

    add("limit", _cmd_map, "evaluate coefficients at q = 1")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITE_IDS + ("all",),
                         help="suite id, or 'all'")
    p_check.add_argument("--json", action="store_true", help="emit JSON")
    p_check.add_argument("--max-index", type=_count, default=4,
                         help="generator index bound (default 4)")
    p_check.add_argument("--max-len", type=_count, default=3,
                         help="word length bound (default 3)")
    p_check.add_argument("--k-range", type=_k_range, default=(-8, 8),
                         metavar="LO..HI",
                         help="module grades to test (default -8..8)")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for randomized cases (default 0; "
                              "QW22_SEED overrides)")
    p_check.add_argument("--cases", type=_count, default=200,
                         help="randomized cases per family (default 200)")
    p_check.set_defaults(func=_cmd_check)

    return parser


# Built once per process (0.9 ms, longer than most commands run): a cold `cli`
# round hits 395 / 1 miss.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ProfileError, UnsupportedInverseError, EvaluationDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
