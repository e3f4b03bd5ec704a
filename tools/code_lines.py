"""Code lines of a checkout's ``src/``, outside docstrings, comments and blank lines.

    python tools/code_lines.py [CHECKOUT] [OTHER_CHECKOUT]

A line counts when it holds a token that is not a comment, a line break or
an indent; the lines of a module, class or function docstring do not count.
With one checkout (the current directory by default) it prints each module's
count and the total; with two it prints both columns and their difference
(second minus first).  Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
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


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count(checkout: Path) -> dict:
    """Code lines per module of checkout/src, keyed by the path below src."""
    src = checkout / "src"
    return {str(p.relative_to(src)): code_lines(p.read_text()) for p in sorted(src.rglob("*.py"))}


def main(argv=None) -> int:
    roots = [Path(a) for a in (sys.argv[1:] if argv is None else argv)] or [Path(".")]
    if len(roots) > 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    tables = [count(root) for root in roots]
    modules = sorted(set().union(*tables))
    width = max(len(m) for m in modules + ["total"])
    rows = [(m, [t.get(m, 0) for t in tables]) for m in modules]
    rows.append(("total", [sum(t.values()) for t in tables]))
    for name, counts in rows:
        cells = "".join(f"{c:>8}" for c in counts)
        if len(counts) == 2:
            cells += f"{counts[1] - counts[0]:>+8}"
        print(f"{name:<{width}}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
