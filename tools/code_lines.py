"""Count the code lines of each module in src/mtharness.

A code line is a line that is not blank, not only a comment and not
part of a docstring (a string that is the first statement of a module,
class or function). Standard library only; run from anywhere:

    python3 tools/code_lines.py [--defs] [PACKAGE_DIR]

It prints one ``lines<TAB>module`` row per module and then the total.
With ``--defs`` it prints one ``lines<TAB>module:name`` row for each
top-level function and class and each method (``Class.method``), in
source order; a definition's lines run from its first decorator to its
last line, so a class's count includes its methods'.
"""

from __future__ import annotations

import ast
import io
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


def _code_line_numbers(path: Path) -> tuple[set[int], ast.Module]:
    """The numbers of the code lines of ``path``, and its syntax tree."""
    source = path.read_bytes()
    tree = ast.parse(source)
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    lines = {row for tok in tokens if tok.type not in _NOT_CODE for row in range(tok.start[0], tok.end[0] + 1)}
    return lines - _docstring_lines(tree), tree


def code_lines(path: Path) -> int:
    """Lines of ``path`` that hold a token other than a comment, outside docstrings."""
    return len(_code_line_numbers(path)[0])


def definitions(path: Path) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level function and class of ``path``
    and of each method, named ``Class.method``, in source order."""
    lines, tree = _code_line_numbers(path)
    found: list[tuple[str, int]] = []

    def add(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef, name: str) -> None:
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        found.append((name, sum(first <= line <= node.end_lineno for line in lines)))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node, node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(member, f"{node.name}.{member.name}")
    return found


def main(argv: list[str]) -> int:
    defs = "--defs" in argv
    argv = [arg for arg in argv if arg != "--defs"]
    package = Path(argv[0]) if argv else PACKAGE
    if defs:
        for path in sorted(package.glob("*.py")):
            for name, count in definitions(path):
                print(f"{count}\t{path.name}:{name}")
        return 0
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count}\t{path.name}")
    print(f"{total}\ttotal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
