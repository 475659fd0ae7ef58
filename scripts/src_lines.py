#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each Python file
under ``src/``, and their totals.

A blank line holds only whitespace, inside a string or not.  Of the
others, a docstring line lies inside the string that opens a module,
class or function body (found with ``ast``), and a comment line holds
only a comment (found with ``tokenize``).  Every other line is code, a
line of a multi-line string that is not a docstring included.  So the
four counts of a file sum to its line count.

Usage: python scripts/src_lines.py [DIR]   (DIR defaults to the repository's src/)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source ``text``."""
    lines = text.splitlines()
    kind = ["blank"] * len(lines)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in SKIP:
            continue
        if tok.type == tokenize.COMMENT:
            if kind[tok.start[0] - 1] == "blank":  # nothing but the comment so far
                kind[tok.start[0] - 1] = "comment"
            continue
        kind[tok.start[0] - 1:tok.end[0]] = ["code"] * (tok.end[0] - tok.start[0] + 1)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                kind[first.lineno - 1:first.end_lineno] = ["docstring"] * (
                    first.end_lineno - first.lineno + 1
                )
    kind = ["blank" if not line.strip() else k for line, k in zip(lines, kind)]
    return {k: kind.count(k) for k in KINDS}


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=root / "src")
    args = parser.parse_args()
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<32}" + "".join(f"{k:>10}" for k in (*KINDS, "lines")))
    for path in sorted(args.dir.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            totals[k] += counts[k]
        row = [counts[k] for k in KINDS]
        print(f"{path.relative_to(args.dir).as_posix():<32}" + "".join(f"{v:>10}" for v in (*row, sum(row))))
    row = [totals[k] for k in KINDS]
    print(f"{'total':<32}" + "".join(f"{v:>10}" for v in (*row, sum(row))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
