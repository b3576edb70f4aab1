"""Code lines of each `tamedeg` module and their total.

    python3 tools/code_lines.py
    python3 tools/code_lines.py --src ../other/src

A code line is a physical line that holds a token other than a comment
or a layout token (newline, indent, dedent) and is not part of a
module, class or function docstring.  A token that spans lines, such as
a triple-quoted string, puts every line it spans on the count.  So blank
lines, comment lines and docstrings are not counted, and a statement
split over three lines counts three.

Stdout has one line per module of `<src>/tamedeg`, in name order, with
its code lines and its path relative to `<src>`, then one total line.
`--src` chooses the source tree (default: this repository's `src/`).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding the tamedeg package")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.src / "tamedeg").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(args.src).as_posix()}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
