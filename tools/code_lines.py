"""Count the code lines of the package: the lines of ``src/`` that hold
something other than a docstring, a comment or white space.

    python tools/code_lines.py [directory ...]

prints the count of each ``.py`` file under the directories (``src/`` next
to this script's parent by default) and their total.  A line counts if a
token other than a comment starts, ends or runs through it, unless the
token is a docstring: the string that opens a module, class or function
body.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    total = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d} {path.relative_to(root.parent)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
