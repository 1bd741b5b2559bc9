"""Command line front door: JSON in, JSON out, deterministic bytes.

Exit status: 0 success / checks passed, 1 check failure, 2 input error
(bad flags, schema violations, dimension mismatches), 3 numerical failure
(no convergence, saddle gap, empty intersection, ordering violations,
results outside the float range).  Every error, bad flags included, is one
JSON line on stderr.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import verify
from .errors import (
    CalculusError,
    EmptyIntersection,
    EnvelopeViolation,
    NoConvergence,
    NonFiniteResult,
    NotOrdered,
    SaddleGap,
    SchemaError,
)
from .fcalc import (
    fc_semicontinuous_detailed,
    saddle_build,
    saddle_eval,
    saddle_from_json,
    saddle_to_json,
)
from .homog import builtin, eval_family_detailed, function_from_json, map_from_json
from .lattice import RmElement, StepFunction, element_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_NUMERICAL = (
    NoConvergence, SaddleGap, EmptyIntersection, NotOrdered, EnvelopeViolation, NonFiniteResult
)
_GENERATED_BUILTINS = ("example-7.1", "example-7.2")


class _InputError(Exception):
    def __init__(self, message, operation=None):
        super().__init__(message)
        self.message = message
        self.operation = operation


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise _InputError instead of
    printing usage text and exiting."""

    def error(self, message):
        raise _InputError(message, operation=self.prog)


# argparse takes a value that starts with "-" for a flag unless it is a plain
# negative number, so "--x -2,5" and "--f -1e-30" would not parse; such a
# value after one of these flags is joined to it, as "--x=-2,5".
_VALUE_FLAGS = ("--x", "--f")


def _join_dash_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse_vector(text, what="vector"):
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise _InputError(f"{what}: expected comma-separated reals, got {text!r}") from None
    if not vals:
        raise _InputError(f"{what}: empty vector")
    return np.array(vals)


def _parse_element(text, kind):
    if kind == "rm":
        return RmElement(_parse_vector(text, "--f"))
    parts = str(text).split("|")
    if len(parts) != 2:
        raise _InputError("--f for step lattice needs 'breakpoints|values', e.g. 0,0.5,1|2,5")
    bp = _parse_vector(parts[0], "--f breakpoints")
    vals = _parse_vector(parts[1], "--f values")
    try:
        return StepFunction(bp, vals)
    except ValueError as exc:
        raise _InputError(f"--f: {exc}") from None


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, "$", f"invalid JSON: {exc}") from None


def _load_function(args):
    if args.builtin and args.family:
        raise _InputError("give either --builtin or --family, not both")
    if args.budget is not None:
        if args.builtin not in _GENERATED_BUILTINS:
            raise _InputError(f"--budget applies only to --builtin {' or '.join(_GENERATED_BUILTINS)}")
        if args.budget < 1:
            raise _InputError("--budget must be >= 1")
    if args.builtin:
        return builtin(args.builtin, **({} if args.budget is None else {"budget": args.budget}))
    if args.family:
        return function_from_json(_read_json(args.family), source=args.family)
    raise _InputError("need --builtin NAME or --family FILE")


def _emit(obj, out_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HOMOCALC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError(f"HOMOCALC_SEED must be an integer, got {env!r}") from None
    return 0


def _cmd_eval(args):
    h = _load_function(args)
    x = _parse_vector(args.x, "--x")
    value, terms = eval_family_detailed(h, x)
    _emit({"value": value, "diagnostics": {"family_terms_used": terms}}, args.out)
    return EXIT_OK


def _cmd_fc(args):
    h = _load_function(args)
    if not args.f:
        raise _InputError("need at least one --f element")
    fs = [_parse_element(f, args.lattice) for f in args.f]
    element, diagnostics = fc_semicontinuous_detailed(h, fs)
    _emit({"element": element_to_json(element), "diagnostics": diagnostics}, args.out)
    return EXIT_OK


def _cmd_saddle_build(args):
    if not args.family:
        raise _InputError("saddle-build needs --family FILE with {'phis': [...], 'psis': [...]}")
    doc = _read_json(args.family)
    if not isinstance(doc, dict) or "phis" not in doc or "psis" not in doc:
        raise SchemaError(args.family, "$", "expected {'phis': [maps], 'psis': [maps]}")
    if not isinstance(doc["phis"], list) or not isinstance(doc["psis"], list):
        raise SchemaError(args.family, "phis/psis", "expected lists of maps")
    phis = [map_from_json(o, args.family, f"phis[{i}]") for i, o in enumerate(doc["phis"])]
    psis = [map_from_json(o, args.family, f"psis[{j}]") for j, o in enumerate(doc["psis"])]
    S = saddle_build(phis, psis, **_tol(args))
    _emit(saddle_to_json(S), args.out)
    return EXIT_OK


def _cmd_saddle_eval(args):
    if not args.family:
        raise _InputError("saddle-eval needs --family FILE holding a saddle document")
    S = saddle_from_json(_read_json(args.family), source=args.family)
    x = _parse_vector(args.x, "--x")
    if x.size != S.dim:
        raise _InputError(f"--x has dim {x.size}, saddle has dim {S.dim}")
    infsup, supinf = saddle_eval(S, x)
    _emit({"infsup": infsup, "supinf": supinf}, args.out)
    return EXIT_OK


def _tol(args):
    # without --tol each operation keeps its own default
    return {} if args.tol is None else {"tol": args.tol}


# each check, with the flags it reads besides --seed and --out
_CHECKS = {
    "engine-vs-oracle": (verify.check_engine_vs_oracle, ("builtin", "tol")),
    "interchange": (verify.check_interchange, ("tol",)),
    "rep-independence": (verify.check_rep_independence, ("tol",)),
    "continuous-agreement": (verify.check_continuous_agreement, ("tol",)),
    "sublattice-invariance": (verify.check_sublattice_invariance, ()),
    "saddle": (verify.check_saddle, ("tol",)),
    "negative-controls": (verify.negative_controls, ()),
}
# the keyword argument that each of those flags sets
_CHECK_KEYWORDS = {"builtin": "h", "tol": "tol"}


def _cmd_check(args):
    check, reads = _CHECKS[args.name]
    kwargs = {}
    for flag, keyword in _CHECK_KEYWORDS.items():
        value = getattr(args, flag)
        if value is not None:
            if flag not in reads:
                raise _InputError(f"check {args.name} does not read --{flag}; drop it")
            kwargs[keyword] = value
    report = check(seed=_seed(args), **kwargs)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_suite(args):
    reports = verify.default_suite(seed=_seed(args))
    passed = all(r.passed for r in reports)
    _emit({"passed": passed, "reports": [r.to_json() for r in reports]}, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_OPTIONS = {
    "tol": ("--tol", {"type": float, "help": "tolerance override"}),
    "seed": ("--seed", {"type": int, "help": "seed (default: $HOMOCALC_SEED or 0)"}),
    "out": ("--out", {"help": "also write the JSON output to this file"}),
}


def _add_options(p, *names):
    for name in (*names, "out"):
        flag, kwargs = _OPTIONS[name]
        p.add_argument(flag, **kwargs)


def _build_parser():
    parser = _Parser(
        prog="homocalc",
        description="Functional calculus of positively homogeneous functions on vector lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a PH function at a point")
    p.add_argument("--builtin", default=None)
    p.add_argument("--family", default=None, help="JSON file with a family document")
    p.add_argument("--x", required=True, help="point, comma-separated")
    p.add_argument("--budget", type=int, default=None, help="generated-family budget")
    _add_options(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fc", help="lift a PH function over lattice elements")
    p.add_argument("--builtin", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--f", action="append", default=[], help="lattice element (repeat per argument)")
    p.add_argument("--lattice", choices=("rm", "step"), default="rm")
    p.add_argument("--budget", type=int, default=None)
    _add_options(p)
    p.set_defaults(func=_cmd_fc)

    p = sub.add_parser("saddle-build", help="build saddle coefficients from map families")
    p.add_argument("--family", default=None, help="JSON file: {'phis': [maps], 'psis': [maps]}")
    _add_options(p, "tol")
    p.set_defaults(func=_cmd_saddle_build)

    p = sub.add_parser("saddle-eval", help="evaluate a saddle document at a point")
    p.add_argument("--family", default=None, help="JSON file holding a saddle document")
    p.add_argument("--x", required=True)
    _add_options(p)
    p.set_defaults(func=_cmd_saddle_eval)

    p = sub.add_parser("check", help="run one verification check")
    p.add_argument("name", choices=sorted(_CHECKS))
    p.add_argument("--builtin", default=None, help="builtin for engine-vs-oracle")
    _add_options(p, "tol", "seed")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("suite", help="run the full verification suite")
    _add_options(p, "seed")
    p.set_defaults(func=_cmd_suite)

    return parser


def _fail(code, operation, message):
    sys.stderr.write(
        json.dumps({"error": {"operation": operation, "message": message}}, sort_keys=True) + "\n"
    )
    return code


def main(argv=None):
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except _InputError as exc:
        return _fail(EXIT_INPUT, exc.operation, exc.message)
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(EXIT_INPUT, args.command, exc.message)
    except SchemaError as exc:
        return _fail(EXIT_INPUT, "load", exc.message)
    except _NUMERICAL as exc:
        return _fail(EXIT_NUMERICAL, exc.operation, exc.message)
    except CalculusError as exc:
        return _fail(EXIT_INPUT, exc.operation, exc.message)
    except ValueError as exc:
        return _fail(EXIT_INPUT, args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
