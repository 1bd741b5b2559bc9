"""Print the code lines of each src/homocalc module and their total.

A code line holds at least one token of code: blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) do not count.  tokenize gives the lines of the tokens, ast
the docstrings.  Standard library only:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's src/homocalc.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The numbers of the lines that docstrings in the tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source, given as bytes."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "homocalc"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_bytes())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
