#!/usr/bin/env python3
"""Count the code lines of the Python files under a directory (default: src/).

A code line holds at least one token that is not a comment, a docstring or
whitespace.  A docstring is a string literal standing alone as a statement.
A token that spans several lines (a bracketed expression is one logical line
over several physical ones; a multi-line string is one token) counts every
line it covers.  Uses only the standard library's tokenizer.

    python3 tools/count_code_lines.py [DIR]

prints the total, then one line per file.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                    tokenize.NL, tokenize.COMMENT}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    counts = {path: code_lines(path) for path in sorted(root.rglob("*.py"))}
    print(sum(counts.values()))
    for path, count in counts.items():
        print(f"{count:6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
