"""Split each ``src/frustumkit`` module's lines into code, docstring, comment and blank.

A docstring is the first string constant of a module, class or function; all
of its lines count as docstring, blank ones too. A comment line starts with
``#``. A blank line holds only whitespace. Lines inside any other string
literal, blank or ``#``-led, count as code, as does every other line. The four
counts of a module sum to its ``wc -l``.

Usage: ``python3 tools/src_lines.py [DIR]`` (default: the package next to
this file's parent, ``src/frustumkit``). Prints one row per module and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frustumkit"


class LineSplit(NamedTuple):
    code: int
    docstring: int
    comment: int
    blank: int

    @property
    def total(self) -> int:
        return sum(self)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split_lines(text: str) -> LineSplit:
    """The code / docstring / comment / blank split of one module's source."""
    docstring = _docstring_lines(ast.parse(text))
    # lines that continue a token begun on an earlier line: only string literals span lines
    in_string: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        in_string.update(range(tok.start[0] + 1, tok.end[0] + 1))
    code = doc = comment = blank = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstring:
            doc += 1
        elif number in in_string:
            code += 1
        elif not stripped:
            blank += 1
        elif stripped.startswith("#"):
            comment += 1
        else:
            code += 1
    return LineSplit(code, doc, comment, blank)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, split_lines(path.read_text(encoding="utf-8"))) for path in sorted(package.glob("*.py"))]
    total = LineSplit(*(sum(column) for column in zip(*(split for _, split in rows))))
    print(f"{'module':<16}{'code':>7}{'docstring':>11}{'comment':>9}{'blank':>7}{'total':>7}")
    for name, split in [*rows, ("total", total)]:
        print(f"{name:<16}{split.code:>7}{split.docstring:>11}{split.comment:>9}{split.blank:>7}{split.total:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
