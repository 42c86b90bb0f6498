"""Line sweep: run the test suite under a ``sys.settrace`` tracer and print
each line of a function body in ``src/ibagsearch`` that no test ran.

Usage, from the repository root (arguments go to pytest; the default is
the whole suite)::

    python tools/line_sweep.py [pytest arguments]

The executable lines are those of the package's compiled code objects
(``co_lines``), in function bodies only: module and class bodies run on
import, and a ``def`` line runs when the function is defined. Only this
process is traced, so code that a test runs in a subprocess (such as
``python -m ibagsearch``) counts as unrun. The tracer slows the suite
several times over, so tests with time bounds may fail under it: read
the unrun lines from such a run, not its pass/fail. Standard library
only, apart from pytest, which runs the suite.
"""
from __future__ import annotations

import sys
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType, FrameType
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ibagsearch"


def body_lines(code: CodeType) -> set[int]:
    """A function body's executable lines other than its first (the ``def``
    line); none for a module or class body."""
    if not code.co_flags & CO_NEWLOCALS:
        return set()
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def nested(code: CodeType) -> Iterator[CodeType]:
    """``code`` and every code object defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from nested(const)


def executable_lines() -> dict[str, set[int]]:
    """The function-body lines of every module of the package, by path."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        found[str(path)] = set().union(*map(body_lines, nested(code)))
    return found


def traced_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in this process and return its exit status and the
    (path, line) pairs of the package that ran. A code object stops being
    traced once each of its body lines has run."""
    import pytest

    prefix = f"{PACKAGE}/"
    ran: set[tuple[str, int]] = set()
    unseen: dict[CodeType, set[int]] = {}

    def on_call(frame: FrameType, event: str, arg: object):
        code = frame.f_code
        left = unseen.get(code)
        if left is None:
            traced = code.co_filename.startswith(prefix)
            left = unseen[code] = body_lines(code) if traced else set()
        if not left:
            return None
        filename = code.co_filename

        def on_line(frame: FrameType, event: str, arg: object):
            if event == "line":
                ran.add((filename, frame.f_lineno))
                left.discard(frame.f_lineno)
            return on_line if left else None

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    default = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    status, ran = traced_run(argv or default)
    total = unrun = 0
    for path, lines in executable_lines().items():
        total += len(lines)
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for line in sorted(lines):
            if (path, line) not in ran:
                unrun += 1
                print(f"{Path(path).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} function-body lines never ran (pytest exit status {status})")
    print("note: code that a test runs in a subprocess is not traced; its lines count as unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
