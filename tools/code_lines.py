"""Count the code lines of the Python files under some directories.

A code line holds at least one token of a statement that is not a string
on its own: blank lines, comments and docstrings (any statement that is
only a string literal) do not count.  The count comes from ``tokenize``,
so it does not depend on formatting tools.  Usage::

    python tools/code_lines.py src        # prints one number
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of code lines in one Python file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(sum(code_lines(p) for root in argv for p in sorted(Path(root).rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
