"""List the lines inside ``src/gb2fit`` functions that the tests never run.

Run from the repository root:

    PYTHONPATH=src python tests/uncovered_lines.py [PYTEST_ARGS...]

The tests (all of ``tests/`` unless arguments are given) run in this
process under ``sys.settrace``, so code that runs only in a subprocess (a
CLI test that starts ``python -m gb2fit.cli``) or in a ``--workers`` child
is not counted.  A line counts when an instruction of a function, lambda or
comprehension is attributed to it; module and class bodies, which run at
import, do not count.  Prints ``path:line  source`` per line never run,
then the count per file, and exits with pytest's status.
"""

import collections
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gb2fit"


def function_lines(path):
    """The lines of ``path`` that hold an instruction of a function body."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            lines.discard(code.co_firstlineno)  # the def (or first decorator) line
    return lines


def run_traced(args):
    """pytest's exit status and the lines run per ``src/gb2fit`` file."""
    files, hit = {}, collections.defaultdict(set)

    def ours(filename):
        if filename not in files:
            path = Path(filename).resolve()
            files[filename] = path if path.parent == SRC else None
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            hit[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if ours(frame.f_code.co_filename) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hit


def main(argv):
    status, hit = run_traced(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(function_lines(path) - hit[path])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
        counts[path.relative_to(ROOT)] = len(missed)
    print()
    for path, n in counts.items():
        print(f"{n:5d}  {path}")
    print(f"{sum(counts.values()):5d}  total")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
