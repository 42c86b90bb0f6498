"""Mutant sweep: make one small fault at a time in the package's source and
run a test selection against it, to find checks that no test fails for.

Usage, from the repository root::

    python tools/mutant_sweep.py FILE[:FIRST-LAST] [FILE ...] [--tests PATH ...]

Each FILE is a module of ``src/ibagsearch``; ``:FIRST-LAST`` keeps only
the mutants of those lines. A mutant is made by ``ast`` and written back
with ``ast.unparse``: a comparison flipped (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``),
a ``not`` dropped, an int constant made one larger, or a ``raise``
replaced by ``pass``. The repository's ``src``, ``tests``, ``tools`` and
``perfbench`` are copied once into a temporary directory, which is removed
on exit; the working tree is never edited. Each mutant is written into
the copy and run alone, one process at a time, with ``pytest -x -q``, and
the copy's file is then put back. The unmutated copy must pass the
selection first, and that run sets the timeout: a mutant that runs
``TIMEOUT_FACTOR`` times as long, and at least ``TIMEOUT_FLOOR`` seconds,
is stopped. Each mutant is printed as ``killed``, ``survived`` or
``timeout`` with its ``file:line``.

A survivor is a missing test, or a check that no input can fail: add the
test, or delete the check. A mutant made where a value cannot matter (an
annotation, a message) survives too; read each survivor before acting.
Standard library only, apart from pytest, which runs the selection.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# the selection that exercises the graph, the index and the load
DEFAULT_TESTS = (
    "tests/test_rpag.py",
    "tests/test_ibag.py",
    "tests/test_bundle.py",
    "tests/test_pipeline.py",
    "tests/test_search.py",
)
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
# a mutant may run this many times as long as the unmutated selection, and
# at least this many seconds, before it counts as a timeout (a loop bound
# made one larger, say, can make a test loop forever)
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 5, 10.0
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}


class Mutant(NamedTuple):
    """One fault: the line it is made at, what it does, and the module's
    source with it."""

    line: int
    change: str
    source: str


def _sites(tree: ast.AST) -> Iterator[tuple[int, str, Callable[[], None]]]:
    """Each place in ``tree`` a mutant can be made, in a fixed order: its
    line, what it does, and a call that makes it in ``tree``."""
    for parent in ast.walk(tree):
        if isinstance(parent, ast.Compare):
            for i, op in enumerate(parent.ops):
                if type(op) in FLIPS:
                    def flip(ops=parent.ops, i=i, op=op) -> None:
                        ops[i] = FLIPS[type(op)]()
                    change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[FLIPS[type(op)]]}"
                    yield parent.lineno, change, flip
        for field, value in ast.iter_fields(parent):
            slots = list(enumerate(value)) if isinstance(value, list) else [(None, value)]
            for i, child in slots:
                new = _replacement(child)
                if new is None:
                    continue

                def put(parent=parent, field=field, i=i, child=child, new=new[1]) -> None:
                    if i is None:
                        setattr(parent, field, new)
                    else:
                        getattr(parent, field)[i] = new
                yield child.lineno, new[0], put


def _replacement(node: object) -> tuple[str, ast.AST] | None:
    """What a node is replaced by, with what that does, or None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return "not dropped", node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return f"{node.value} -> {node.value + 1}", ast.copy_location(
            ast.Constant(node.value + 1), node
        )
    if isinstance(node, ast.Raise):
        return "raise -> pass", ast.copy_location(ast.Pass(), node)
    return None


def mutants(source: str) -> Iterator[Mutant]:
    """Every mutant of a module's source, one fault each, in a fixed order."""
    for k in range(sum(1 for _ in _sites(ast.parse(source)))):
        tree = ast.parse(source)
        for n, (line, change, make) in enumerate(_sites(tree)):
            if n == k:
                make()
                yield Mutant(line, change, ast.unparse(tree) + "\n")
                break


def target(arg: str) -> tuple[Path, range | None]:
    """``FILE`` or ``FILE:FIRST-LAST``: the file and the lines kept."""
    path, _, lines = arg.partition(":")
    if not lines:
        return Path(path), None
    first, _, last = lines.partition("-")
    return Path(path), range(int(first), int(last or first) + 1)


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """``passed``, ``failed`` or ``timeout`` for the selection in ``copy``;
    ``timeout=None`` waits as long as the run takes."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="FILE or FILE:FIRST-LAST under src/ibagsearch")
    parser.add_argument("--tests", nargs="+", default=list(DEFAULT_TESTS))
    args = parser.parse_args(argv)
    outcomes = {"killed": 0, "survived": 0, "timeout": 0}
    with tempfile.TemporaryDirectory(prefix="mutant-sweep-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        start = time.perf_counter()
        if run_tests(copy, args.tests, None) != "passed":
            print("the unmutated copy fails the selection; nothing to sweep", file=sys.stderr)
            return 1
        timeout = max(TIMEOUT_FACTOR * (time.perf_counter() - start), TIMEOUT_FLOOR)
        for arg in args.files:
            path, lines = target(arg)
            original = (ROOT / path).read_text(encoding="utf-8")
            for mutant in mutants(original):
                if lines is not None and mutant.line not in lines:
                    continue
                (copy / path).write_text(mutant.source, encoding="utf-8")
                try:
                    result = run_tests(copy, args.tests, timeout)
                finally:
                    (copy / path).write_text(original, encoding="utf-8")
                outcome = {"failed": "killed", "passed": "survived"}.get(result, result)
                outcomes[outcome] += 1
                print(f"{outcome:8} {path}:{mutant.line}  {mutant.change}", flush=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in outcomes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
