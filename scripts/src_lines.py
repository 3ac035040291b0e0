#!/usr/bin/env python3
"""Code lines of each module of condlab, and in total.

    python3 scripts/src_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to the ``src/condlab`` next to this script; pass
another checkout's to compare two trees.  A code line holds at least one
token that is neither a comment nor part of a docstring (of the module, a
class or a function), so blank lines, comment lines and docstrings do not
count, and a statement over three lines counts three.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source):
    """The line numbers of every docstring of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package", nargs="?", type=pathlib.Path,
                        default=ROOT / "src" / "condlab")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<18}{count:>6}")
    print(f"{'total':<18}{total:>6}")


if __name__ == "__main__":
    main()
