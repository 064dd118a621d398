"""Line counts of the esdec sources, per module and in total.

    python3 tools/src_lines.py [ROOT]

ROOT is a checkout (default: the one holding this script); the modules
are every ``*.py`` under ``ROOT/src/esdec``.  For each it prints two
counts:

* lines, as ``wc -l`` counts them (newline characters);
* code lines: lines holding a token outside docstrings and comments.
  Blank lines, comment lines and the lines of module, class and
  function docstrings do not count; a line of a multi-line string that
  is not a docstring does.

Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                out.add((body[0].value.lineno, body[0].value.col_offset))
    return out


def count(text: str) -> tuple:
    """(lines, code lines) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else ROOT
    src = root / "src"
    total_lines = total_code = 0
    for path in sorted((src / "esdec").rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(src)}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
