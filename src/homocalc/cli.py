"""Command line front door: JSON in, JSON out, deterministic bytes.

Exit status: 0 success / checks passed, 1 check failure, 2 input error
(bad flags, schema violations, dimension mismatches), 3 numerical failure,
any errors.NumericalError (no convergence, saddle gap, empty intersection,
ordering violations, results outside the float range, witnesses that miss
their bound).  Every error, bad flags included, is one JSON line on stderr.
"""

import argparse
import inspect
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from . import verify
from .documents import element_to_json, function_from_json, pair_from_json, saddle_from_json, saddle_to_json
from .errors import CalculusError, NumericalError, SchemaError
from .fcalc import fc_semicontinuous_detailed, saddle_build, saddle_eval
from .homog import builtin, eval_family_detailed
from .lattice import RmElement, StepFunction

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


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
    except (ValueError, RecursionError) as exc:
        # malformed, non-UTF-8 or too deeply nested text
        raise SchemaError(path, "$", f"invalid JSON: {exc}") from None


def _load_function(args):
    if args.builtin and args.family:
        raise _InputError("give either --builtin or --family, not both")
    if args.builtin:
        return builtin(args.builtin)
    if args.family:
        return function_from_json(_read_json(args.family), source=args.family)
    raise _InputError("need --builtin NAME or --family FILE")


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # the file first, so that a failed write leaves stdout empty
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError(f"cannot write {out_path}: {exc}") from None
    sys.stdout.write(text)


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
    return {"value": value, "diagnostics": {"family_terms_used": terms}}, EXIT_OK


def _cmd_fc(args):
    h = _load_function(args)
    if not args.f:
        raise _InputError("need at least one --f element")
    fs = [_parse_element(f, args.lattice) for f in args.f]
    element, diagnostics = fc_semicontinuous_detailed(h, fs)
    return {"element": element_to_json(element), "diagnostics": diagnostics}, EXIT_OK


def _cmd_saddle_build(args):
    if not args.family:
        raise _InputError("saddle-build needs --family FILE with {'phis': [...], 'psis': [...]}")
    phis, psis = pair_from_json(_read_json(args.family), args.family)
    S = saddle_build(phis, psis, **_tol(args))
    return saddle_to_json(S), EXIT_OK


def _cmd_saddle_eval(args):
    if not args.family:
        raise _InputError("saddle-eval needs --family FILE holding a saddle document")
    S = saddle_from_json(_read_json(args.family), source=args.family)
    x = _parse_vector(args.x, "--x")
    if x.size != S.dim:
        raise _InputError(f"--x has dim {x.size}, saddle has dim {S.dim}")
    infsup, supinf = saddle_eval(S, x)
    return {"infsup": infsup, "supinf": supinf}, EXIT_OK


def _tol(args):
    # without --tol each operation keeps its own default
    return {} if args.tol is None else {"tol": args.tol}


# the keyword argument that each flag besides --seed and --out sets; a check
# reads the flag when its signature has that keyword
_CHECK_KEYWORDS = {"builtin": "h", "tol": "tol"}


def _cmd_check(args):
    check = verify._check(args.name)
    keywords = inspect.signature(check).parameters
    kwargs = {}
    for flag, keyword in _CHECK_KEYWORDS.items():
        value = getattr(args, flag)
        if value is not None:
            if keyword not in keywords:
                raise _InputError(f"check {args.name} does not read --{flag}; drop it")
            kwargs[keyword] = value
    report = check(seed=_seed(args), **kwargs)
    return report.to_json(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_suite(args):
    reports = verify.default_suite(seed=_seed(args))
    passed = all(r.passed for r in reports)
    return {"passed": passed, "reports": [r.to_json() for r in reports]}, EXIT_OK if passed else EXIT_CHECK_FAILED


def _tolerance(text):
    """The --tol value: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not np.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


_OPTIONS = {
    "tol": ("--tol", {"type": _tolerance, "help": "tolerance override, finite and >= 0"}),
    "seed": ("--seed", {"type": int, "help": "seed (default: $HOMOCALC_SEED or 0)"}),
    "out": ("--out", {"help": "also write the JSON output to this file"}),
}


@contextmanager
def _command(sub, name, func, help, *options):
    """The parser of subcommand name, which runs func, for its own
    arguments; once they are added, the shared options named and --out
    follow them."""
    p = sub.add_parser(name, help=help)
    yield p
    for option in (*options, "out"):
        flag, kwargs = _OPTIONS[option]
        p.add_argument(flag, **kwargs)
    p.set_defaults(func=func)


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call can share it."""
    parser = _Parser(
        prog="homocalc",
        description="Functional calculus of positively homogeneous functions on vector lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    with _command(sub, "eval", _cmd_eval, "evaluate a PH function at a point") as p:
        p.add_argument("--builtin")
        p.add_argument("--family", help="JSON file with a family document")
        p.add_argument("--x", required=True, help="point, comma-separated")

    with _command(sub, "fc", _cmd_fc, "lift a PH function over lattice elements") as p:
        p.add_argument("--builtin")
        p.add_argument("--family")
        p.add_argument("--f", action="append", default=[], help="lattice element (repeat per argument)")
        p.add_argument("--lattice", choices=("rm", "step"), default="rm")

    with _command(sub, "saddle-build", _cmd_saddle_build, "build saddle coefficients from map families", "tol") as p:
        p.add_argument("--family", help="JSON file: {'phis': [maps], 'psis': [maps]}")

    with _command(sub, "saddle-eval", _cmd_saddle_eval, "evaluate a saddle document at a point") as p:
        p.add_argument("--family", help="JSON file holding a saddle document")
        p.add_argument("--x", required=True)

    with _command(sub, "check", _cmd_check, "run one verification check", "tol", "seed") as p:
        p.add_argument("name", choices=sorted(verify._CHECKS))
        p.add_argument("--builtin", help="builtin for engine-vs-oracle")

    with _command(sub, "suite", _cmd_suite, "run the full verification suite", "seed"):
        pass

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
        # every command returns its JSON document and its exit status
        document, code = args.func(args)
        _emit(document, args.out)
        return code
    except _InputError as exc:
        return _fail(EXIT_INPUT, args.command, exc.message)
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, exc.operation, exc.message)
    except CalculusError as exc:
        return _fail(EXIT_INPUT, exc.operation, exc.message)
    except ValueError as exc:
        return _fail(EXIT_INPUT, args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
