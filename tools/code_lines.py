"""Count lines and code lines per module of src/rootsource, and in total.

Code lines leave out blank lines, comment lines and the lines of module,
class and function docstrings.  Run from the repository root:

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    source = path.read_text()
    code = set()
    with path.open("rb") as fp:
        for tok in tokenize.tokenize(fp.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/rootsource"
    total = [0, 0]
    print(f"{'module':<24}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main(sys.argv)
