"""Statements of src/trapquad that the Tier-1 suite never executes.

    python3 tools/reach.py                        # the whole suite
    python3 tools/reach.py tests/test_angular.py  # any pytest arguments

pytest runs in this process under sys.settrace, which records every line
executed in src/trapquad/*.py; the package is imported after tracing
starts, so module-level code counts.
Each statement's lines come from the module's ast.  A statement is reached
when a line of its own span ran: all of a simple statement's lines, or a
compound statement's header, from its first decorator to the line before
its body.  Docstrings compile to no code and are not listed.  Code that runs
only in a child process, such as the CLI tests' `python -m trapquad`, is not
seen, so it is listed as unreached.  Prints one line per unreached
statement and a summary; the exit status is pytest's.  Standard library and
pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trapquad"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement in `source`, docstrings
    left out; a compound statement's span is its header."""
    spans = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):   # a lambda's or an if-expression's
                continue
            if (field == "body" and block and isinstance(node, _DOCUMENTED)
                    and isinstance(block[0], ast.Expr)
                    and isinstance(block[0].value, ast.Constant)
                    and isinstance(block[0].value.value, str)):
                block = block[1:]
            spans.update(_span(child) for child in block)
    return sorted(spans)


def _span(node: ast.stmt) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return first, max(node.lineno, body[0].lineno - 1)
    return first, node.end_lineno


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines executed in each package file."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executed = ran.get(str(path), set())
        for first, last in statement_spans(source):
            total += 1
            if not executed.intersection(range(first, last + 1)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{unreached} of {total} statements in src/trapquad unreached")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
