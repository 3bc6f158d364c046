#!/usr/bin/env python3
"""Statements of a source tree that no test executes: a line trace of a pytest run.

Usage, from the root of a checkout:

    python tools/untested.py [--src SRC] [PYTEST ARGS]

Runs pytest in this process with PYTEST ARGS (by default the suite of this checkout's
``pyproject.toml``) under a ``sys.settrace`` tracer that records the lines executed in
the modules under SRC, which defaults to this checkout's ``src/nmrqc``. Start it with
the package importable (``PYTHONPATH=src``) and not yet imported: the tracer is set
before pytest imports anything, so import-time lines count as executed.

It prints each statement that no test executed, as ``module:line: source`` (the
module relative to SRC, the statement's first line), then the number of such
statements per module and in total, and exits with pytest's exit code.

A statement is one of ``ast``'s: a compound statement (``if``, ``def``, ``try``) is its
header lines, not its body, and the lines of an ``except`` or ``else`` clause belong to
its ``try`` or ``if``. A statement counts if the compiler gives any of its lines code,
and as executed if the tracer saw any of them run; a docstring or a bare ``else:``
counts as neither. Only Python-level lines are seen, in this thread and in threads
started by ``threading`` after the tracer is set. Tracing about doubles the suite's
time, so a test with a hypothesis deadline may fail under it. The standard library
only: coverage.py is not needed.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "nmrqc"


def code_lines(source: str, filename: str) -> set[int]:
    """The lines that the compiled code of `source` has instructions on, nested code too."""
    lines, codes = set(), [compile(source, filename, "exec", dont_inherit=True)]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _span(node: ast.stmt) -> range:
    """The lines of a statement, its decorators included."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    return range(first, node.end_lineno + 1)


def statements(source: str) -> dict[int, set[int]]:
    """Each statement of `source`, by its first line: the lines it owns, those of the
    statements nested in it left out."""
    owned = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = set(_span(node))
            for child in ast.walk(node):
                if child is not node and isinstance(child, ast.stmt):
                    lines.difference_update(_span(child))
            owned[_span(node)[0]] = lines
    return owned


def traced(src: Path, run):
    """(run(), {file name: lines executed}) of the files under src, with the tracer set."""
    executed, inside = defaultdict(set), {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().is_relative_to(src)
        if not inside[name]:
            return None
        lines = executed[name]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {Path(name).resolve(): lines for name, lines in executed.items()}


def untested(src: Path, executed: dict[Path, set[int]]) -> list[tuple[str, int, str]]:
    """(module relative to src, first line, its source) of each statement with code that
    never ran, by module and line."""
    rows = []
    for path in sorted(src.rglob("*.py")):
        source = path.read_text()
        text, has_code = source.splitlines(), code_lines(source, str(path))
        ran = executed.get(path.resolve(), set())
        for first, lines in sorted(statements(source).items()):
            if lines & has_code and not lines & ran:
                rows.append((path.relative_to(src).as_posix(), first, text[first - 1].strip()))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--src", default=str(DEFAULT_SRC),
                        help="directory of the traced modules (default: src/nmrqc)")
    args, pytest_args = parser.parse_known_args(argv)
    src = Path(args.src).resolve()
    if not src.is_dir():
        parser.error(f"not a directory: {args.src}")
    import pytest

    code, executed = traced(src, lambda: pytest.main(pytest_args))
    rows = untested(src, executed)
    for module, line, text in rows:
        print(f"{module}:{line}: {text}")
    counts = Counter(module for module, _, _ in rows)
    width = max([len("total"), *map(len, counts)])
    print(f"{'module':<{width}}  {'untested':>8}")
    for module, count in sorted(counts.items()):
        print(f"{module:<{width}}  {count:>8}")
    print(f"{'total':<{width}}  {len(rows):>8}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
