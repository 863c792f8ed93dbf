"""Count the code lines of the overlapls sources: non-blank, outside comments and docstrings.

    python3 scripts/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/overlapls in the checkout that holds this script.
Prints one line per module, "<lines>  <file>", then "<lines>  total".  A
line is not counted when it is blank, when it holds only a comment, or when
it lies inside a docstring (the leading string of a module, class or
function, as ast finds it).  A line of code with a trailing comment counts,
and so does a line inside any other string, even one that starts with #.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _lines(node) -> range:
    return range(node.lineno, node.end_lineno + 1)


def code_lines(source: str) -> int:
    """The number of non-blank lines outside comments and docstrings."""
    tree = ast.parse(source)
    docstrings, in_strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(_lines(first))
        elif isinstance(node, (ast.Constant, ast.JoinedStr)):
            in_strings.update(_lines(node)[1:])
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings
        and line.strip()
        and (number in in_strings or not line.lstrip().startswith("#"))
    )


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "overlapls"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
