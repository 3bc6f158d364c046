#!/usr/bin/env python3
"""Size of a source tree: non-blank lines and compile time per module.

Usage, from the root of a checkout:

    python tools/size.py [SRC]

SRC is a directory of Python modules, searched recursively; it defaults to this
checkout's ``src/nmrqc``. For each module, by path relative to SRC, it prints the
number of non-blank lines (lines with more than whitespace; comments and docstrings
count) and the best of 15 in-memory ``compile()`` calls of its source, in ms, then
the totals. The compile time is the part of a cold import that the source's size
sets when no bytecode is cached.

Nothing is imported from SRC and no bytecode is written: each module is read as
text and compiled to a code object that is thrown away.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

COMPILE_REPEATS = 15
DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src" / "nmrqc"


def non_blank_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def best_compile_s(source: str, filename: str) -> float:
    """The fastest of COMPILE_REPEATS compiles of `source` to a code object, in s."""
    best = float("inf")
    for _ in range(COMPILE_REPEATS):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best


def measure(src) -> list[tuple[str, int, float]]:
    """(module path relative to src, non-blank lines, best compile time in s), by path."""
    src = Path(src)
    rows = []
    for path in sorted(src.rglob("*.py")):
        source = path.read_text()
        rows.append((path.relative_to(src).as_posix(), non_blank_lines(source),
                     best_compile_s(source, str(path))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(DEFAULT_SRC),
                        help="directory of Python modules (default: src/nmrqc)")
    args = parser.parse_args(argv)
    if not Path(args.src).is_dir():
        parser.error(f"not a directory: {args.src}")
    rows = measure(args.src)
    width = max([len("total"), *(len(name) for name, _, _ in rows)])
    print(f"{'module':<{width}}  {'lines':>6}  {'compile_ms':>10}")
    for name, lines, seconds in rows:
        print(f"{name:<{width}}  {lines:>6}  {seconds * 1e3:>10.3f}")
    total_lines = sum(lines for _, lines, _ in rows)
    total_ms = sum(seconds for _, _, seconds in rows) * 1e3
    print(f"{'total':<{width}}  {total_lines:>6}  {total_ms:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
