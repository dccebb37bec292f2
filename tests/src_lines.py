"""Print the size of the library under ``src/``: all lines, and code lines.

Code lines are the lines that hold a token of code: blank lines, comment
lines and docstrings (the leading string of a module, class or function
body) do not count.  Run it from anywhere, optionally with another source
directory to measure, e.g. a checkout of an older commit::

    python tests/src_lines.py [SRC_DIR]

pytest does not collect it: its name does not match ``test_*.py``.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(src.rglob("*.py")):
        lines, body = counts(path)
        total, code = total + lines, code + body
    print(f"src/: {total:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main(sys.argv)
