"""Line counts of the esdec sources, per module and in total.

    python3 tools/src_lines.py [ROOT]
    python3 tools/src_lines.py BASE ROOT

ROOT is a checkout (default: the one holding this script); the modules
are every ``*.py`` under ``ROOT/src/esdec``.  For each it prints two
counts:

* lines, as ``wc -l`` counts them (newline characters);
* code lines: lines holding a token outside docstrings and comments.
  Blank lines, comment lines and the lines of module, class and
  function docstrings do not count; a line of a multi-line string that
  is not a docstring does.

Given two checkouts, BASE (say, a clone of the parent commit) and ROOT,
it prints per module both pairs of counts and ROOT's minus BASE's, then
the totals; a module missing from one checkout counts 0 there.

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


def module_counts(root: Path) -> dict:
    """(lines, code lines) of each module of a checkout, by its path
    under ``src``."""
    src = root / "src"
    return {str(path.relative_to(src)): count(path.read_text())
            for path in sorted((src / "esdec").rglob("*.py"))}


def _total(counts: dict) -> tuple:
    return sum(lines for lines, _ in counts.values()), sum(code for _, code in counts.values())


def main(argv: list) -> int:
    if len(argv) > 2:
        print("usage: src_lines.py [ROOT] | BASE ROOT", file=sys.stderr)
        return 2
    if len(argv) == 2:
        base, root = (module_counts(Path(arg)) for arg in argv)
        rows = [(name, base.get(name, (0, 0)), root.get(name, (0, 0)))
                for name in sorted(base.keys() | root.keys())]
        rows.append(("total", _total(base), _total(root)))
        for name, (bl, bc), (rl, rc) in rows:
            print(f"{bl:6d} {bc:6d}  {rl:6d} {rc:6d}  {rl - bl:+6d} {rc - bc:+6d}  {name}")
        return 0
    counts = module_counts(Path(argv[0]) if argv else ROOT)
    for name, (lines, code) in counts.items():
        print(f"{lines:6d} {code:6d}  {name}")
    lines, code = _total(counts)
    print(f"{lines:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
