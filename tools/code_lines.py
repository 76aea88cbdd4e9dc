"""Count each ``src/meshwalk`` module's lines and code lines.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class or
function body) are not code.  Prints one line per module, then the totals::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "meshwalk"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``text``'s total lines and code lines."""
    docstrings = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(line for line in range(token.start[0], token.end[0] + 1)
                        if line not in docstrings)
    return len(text.splitlines()), len(code)


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(SOURCE.glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
