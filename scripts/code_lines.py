"""Count the code lines of each module of a Python package.

    python3 scripts/code_lines.py [PACKAGE_DIR]

prints, for every ``*.py`` file of PACKAGE_DIR (default ``src/semiconv``),
its number of code lines, then their total. A code line is a line that holds
a token of code: blank lines, comment lines and the lines of docstrings (the
string that opens a module, class or function body) do not count, and a
statement spread over several lines counts each of them.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, column) of every docstring in a parsed module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """The number of code lines of the Python source text ``source``."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    package = Path(argv[0]) if argv else ROOT / "src" / "semiconv"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16} {n:5d}")
    print(f"{'total':<16} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
