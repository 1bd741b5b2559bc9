"""Print the src/homocalc statement lines that a Python command never ran.

Runs the command in this process under sys.settrace, as python would run
it, then lists every statement of the package that produced no line
event, grouped by module and by the function (or class, or <module>)
that holds it.  Standard library only:

    python tools/line_trace.py -m MODULE [ARG ...]
    python tools/line_trace.py SCRIPT [ARG ...]

for example, with the package on the path,

    PYTHONPATH=src python tools/line_trace.py -m pytest -q

A statement counts as run when a line of its own head ran: the whole of
a simple statement, or a compound statement's lines (decorators
included) up to its body.  A compound statement also counts as run when
its first body statement did.  global and nonlocal declarations run no
code and are never listed, and neither are docstrings.  Only this
process is traced: code run by a subprocess, such as a test that starts
python -m homocalc, counts as never run.  The exit status is the
command's.
"""

import ast
import os
import runpy
import sys
import threading
from collections import defaultdict
from functools import partial
from pathlib import Path

from code_lines import _docstring_lines

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homocalc"
_SILENT = (ast.Global, ast.Nonlocal)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree):
    """(line, scope, head lines, first body statement) of every statement
    of tree that runs code, in source order."""
    out, docstrings = [], _docstring_lines(tree)

    def visit(node, scope):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.ExceptHandler):
                    visit(child, scope)
                    continue
                if not isinstance(child, _SILENT) and child.lineno not in docstrings:
                    first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                    body = getattr(child, "body", None)
                    end = body[0].lineno - 1 if body else child.end_lineno
                    out.append((child.lineno, scope, range(first, max(end, child.lineno) + 1), body and body[0]))
                if isinstance(child, _SCOPES):
                    visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                else:
                    visit(child, scope)

    visit(tree, "<module>")
    return out


def _never_ran(path, hits):
    """{scope: [line, ...]} of the statements of the file at path with no
    line event in hits."""
    statements = _statements(ast.parse(path.read_text(encoding="utf-8")))
    ran = {}
    # inner statements first, so a compound statement can read its body's
    for line, _, head, first in reversed(statements):
        ran[line] = any(n in hits for n in head) or (first is not None and ran.get(first.lineno, False))
    missed = defaultdict(list)
    for line, scope, _, _ in statements:
        if not ran[line]:
            missed[scope].append(line)
    return missed


def _tracer(files, hits):
    """A global trace function that records the line events of the code of
    files, by resolved file name, and traces no other code."""
    resolved = {}

    def local(frame, event, arg):
        if event == "line":
            hits[resolved[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = os.path.realpath(name)
        return local if resolved[name] in files else None

    return call


def _run(argv):
    """Run argv (["-m", module, ...] or [script, ...]) as python does; its
    exit status."""
    if argv[0] == "-m":
        sys.argv, sys.path[0] = argv[1:], os.getcwd()
        run = partial(runpy.run_module, argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv, sys.path[0] = argv[:], str(Path(argv[0]).resolve().parent)
        run = partial(runpy.run_path, argv[0], run_name="__main__")
    try:
        run()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def main(argv):
    if not argv or argv == ["-m"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = {os.path.realpath(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits = defaultdict(set)
    trace = _tracer(set(paths), hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = _run(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    print(f"statement lines of {PACKAGE.name} never run:")
    for name, path in paths.items():
        missed = _never_ran(path, hits[name])
        if missed:
            print(path.name)
        for scope, lines in missed.items():
            total += len(lines)
            print(f"  {scope}: {' '.join(map(str, lines))}")
    print(f"total {total}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
