"""Split the lines of the package's source into code, docstring, comment
and blank lines, per file and in total.

A line inside a docstring, blank or not, is a docstring line; a line that
holds any other token is code, even with a comment after it; a line whose
only token is a comment is a comment line; every other line is blank.

    python tests/src_lines.py [DIR]

DIR defaults to the package directory `src/circmds` beside this file's
directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
SKIPPED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def split(source: str) -> dict:
    """{kind: line count} of one file's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "circmds"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = split(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
