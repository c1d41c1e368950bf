"""Count code lines per module: lines that are not docstrings, comments or blank.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, searched for ``*.py`` files
recursively; the default is ``src/bchrom``.  A line counts when a token
other than a comment, a line break or an indent covers it, and it lies in
no docstring: the string literal that opens a module, a class or a
function body, found with ``ast``.  Every line of a multi-line string that
is no docstring counts.  Prints one ``count path`` line per module, then
the total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that carry no code: layout, line breaks and comments.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


#: The nodes whose body may open with a docstring.
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    covered: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    return len(covered - docstring_lines(ast.parse(source)))


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or [str(ROOT / "src" / "bchrom")]):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6} {path}")
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
