"""List the statements of src/liebeq that no test executes.

Runs pytest in this process under a sys.settrace line tracer that watches
the frames of src/liebeq only, then prints, module by module, each
statement none of whose own lines ran, and a total.  Docstrings and the
headers of def and class statements are not counted; a try statement
counts as run when its body runs.  Tests that run the program in a
subprocess (the fresh_python fixture) are not traced, so what only they
run is listed too.  No coverage package is needed.

    python scripts/untested_lines.py [pytest arguments]

The pytest arguments default to the whole suite, quiet.  Tracing makes the
suite about twice as slow.  Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liebeq"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree: ast.Module):
    """(statement, its own lines) for every counted statement: the header
    lines of a compound statement, all lines of a simple one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or _is_docstring(node):
            continue
        children = [child for field in ("body", "orelse", "finalbody", "handlers")
                    for child in getattr(node, field, ())]
        end = min((child.lineno for child in children), default=node.end_lineno + 1) - 1
        if isinstance(node, ast.Try):
            end = node.end_lineno  # its own line runs no code; its body does
        yield node, range(node.lineno, max(end, node.lineno) + 1)


def untested(path: Path, hit: set) -> list:
    """Line numbers of the statements in path that ran none of their lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node, lines in _statements(tree)
                  if not any(line in hit for line in lines))


def main(argv: list) -> int:
    hits = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hits else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    total = 0
    for name, hit in sorted(hits.items()):
        path = Path(name)
        lines = untested(path, hit)
        if not lines:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        print(f"{path.relative_to(ROOT)}: {len(lines)} untested")
        for line in lines:
            print(f"  {line}: {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} statements in {PACKAGE.relative_to(ROOT)} that no test executes")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
