"""Count the code lines of Python files: the lines that hold a token of
code, so blank lines, comment lines and docstring lines do not count. A
docstring is a string that makes up a statement by itself.

    python tools/code_lines.py src/phylotope

prints the count of each .py file under the given files and directories,
then their total.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path) -> int:
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:] + [None]):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and prev.type in _STATEMENT_START \
                and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    files = []
    for arg in argv or ["."]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
