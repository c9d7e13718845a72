"""Count the code lines of each module in src/mtharness.

A code line is a line that is not blank, not only a comment and not
part of a docstring (a string that is the first statement of a module,
class or function). Standard library only; run from anywhere:

    python3 tools/code_lines.py [PACKAGE_DIR]

It prints one ``lines<TAB>module`` row per module and then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mtharness"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of ``path`` that hold a token other than a comment, outside docstrings."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = {row for tok in tokens if tok.type not in _NOT_CODE for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count}\t{path.name}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
