"""Count the code lines of the noether package, module by module.

    python tests/loc.py [--src DIR]

A code line is a line that holds a token which is neither a comment nor a
docstring (the first statement of a module, class or function body when
it is a string literal).  Blank lines, comment lines and docstring lines
do not count; a string literal that is not a docstring counts every line
it spans.  Prints one line per module of ``DIR/noether`` (default: this
checkout's ``src``), then the total.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set:
    """The (row, column) start of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` holding a code token."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    in_docstring = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            # A docstring statement ends at its NEWLINE; implicitly
            # concatenated pieces before it belong to the docstring too.
            in_docstring = in_docstring and tok.type != tokenize.NEWLINE
            continue
        if tok.start in docstrings:
            in_docstring = True
        if not (in_docstring and tok.type == tokenize.STRING):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the noether package")
    args = p.parse_args(argv)
    total = 0
    for path in sorted((args.src / "noether").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
