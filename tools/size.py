"""Print the size of the package: per module, its lines and its code lines.

Lines are what `wc -l` counts.  Code lines are the lines that hold a token of
code, by Python's own `tokenize`: comments, blank lines and docstrings (a
string that is a statement of its own) hold none.

    python tools/size.py              # src/spinring/
    python tools/size.py tests tools  # any directories of .py files

Only the standard library is imported here.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that carry no code; a docstring's STRING is told apart by its place
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a token of code."""
    with path.open("rb") as fh:
        # comments and blank lines' NL tokens go first, so a docstring's neighbours are code
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, tokens[1:]):
        if token.type in LAYOUT:
            continue
        alone = before is None or before.type in STATEMENT_START
        if token.type == tokenize.STRING and alone and after.type == tokenize.NEWLINE:
            continue  # a string statement: a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    total_lines = total_code = 0
    for top in argv or ["src/spinring"]:
        for path in sorted((ROOT / top).rglob("*.py")):
            lines = len(path.read_bytes().splitlines())
            code = code_lines(path)
            total_lines, total_code = total_lines + lines, total_code + code
            print(f"{lines:6,d} {code:6,d}  {path.relative_to(ROOT)}")
    print(f"{total_lines:6,d} {total_code:6,d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
