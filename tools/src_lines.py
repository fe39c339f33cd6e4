"""Line counts of the ``gca`` package, per module and in total.

    python3 tools/src_lines.py [TREE]

TREE is a source tree holding ``src/gca`` (default: this one).  Each line of
a module counts once, as the first of these that applies:

- ``docstring``: inside a module, class or function docstring (``ast``);
- ``code``: inside a token that is not a comment or a line break
  (``tokenize``), so every line of a multi-line expression or string;
- ``comment``: holds a comment and no code;
- ``blank``: empty or only whitespace.

``raw`` is every line.  Prints one row per module, the totals, then the same
table as one JSON object.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

KINDS = ("raw", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    raw = source.splitlines()
    code -= docs
    comments -= docs | code
    blank = {i for i, line in enumerate(raw, 1) if not line.strip()} - docs - code
    return {"raw": len(raw), "code": len(code), "docstring": len(docs),
            "comment": len(comments), "blank": len(blank)}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    table = {p.name: count(p.read_text(encoding="utf-8"))
             for p in sorted((root / "src" / "gca").glob("*.py"))}
    table["total"] = {k: sum(row[k] for row in table.values()) for k in KINDS}
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in KINDS))
    for name, row in table.items():
        print(f"{name:<14}" + "".join(f"{row[k]:>10}" for k in KINDS))
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
