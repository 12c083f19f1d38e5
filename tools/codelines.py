"""Count the code lines of Python files: lines that hold a token other
than a comment, with blank lines and docstrings left out.

Usage: python tools/codelines.py PATH [PATH ...]

A PATH that is a directory stands for its *.py files, in sorted order.
Prints each file's code lines and total lines, then the sums when more
than one file is counted.  A missing PATH exits 2, naming it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """Code lines and total lines of one file."""
    with open(path, "rb") as fh:
        source = fh.read()
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(code), source.count(b"\n")


def main(args: list[str]) -> int:
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths: list[str] = []
    for arg in args:
        if Path(arg).is_dir():
            paths.extend(str(f) for f in sorted(Path(arg).glob("*.py")))
        elif Path(arg).exists():
            paths.append(arg)
        else:
            print(f"codelines: no such file or directory: {arg}", file=sys.stderr)
            return 2
    total_code = total_lines = 0
    for path in paths:
        code, lines = count(path)
        total_code += code
        total_lines += lines
        print(f"{code:6d} {lines:6d} {path}")
    if len(paths) > 1:
        print(f"{total_code:6d} {total_lines:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
