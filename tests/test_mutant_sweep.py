"""The mutant generator of ``tools/mutant_sweep.py``, on canned source; the
tool's test runs themselves are not part of the suite."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutant_sweep.py"
_SPEC = importlib.util.spec_from_file_location("mutant_sweep", _PATH)
mutant_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutant_sweep)

SOURCE = '''\
def check(x, seen):
    """Five sites: a comparison, a not, an int, a raise, a membership."""
    if not x < 2:
        raise ValueError("too large")
    return x in seen
'''


def behaviour(source: str) -> list[object]:
    """What ``check`` gives on a few inputs, an exception by its type."""
    space: dict = {}
    exec(compile(source, "<mutant>", "exec"), space)
    results = []
    for x, seen in ((1, {1}), (1, set()), (2, {2}), (3, set())):
        try:
            results.append(space["check"](x, seen))
        except ValueError as exc:
            results.append(type(exc))
    return results


def test_one_mutant_per_site_with_its_line_and_change():
    found = [(m.line, m.change) for m in mutant_sweep.mutants(SOURCE)]
    assert sorted(found) == [
        (3, "2 -> 3"), (3, "< -> <="), (3, "not dropped"),
        (4, "raise -> pass"), (5, "in -> not in"),
    ]


def test_each_mutant_changes_what_the_code_does_and_only_there():
    original = behaviour(SOURCE)
    assert original == [True, False, ValueError, ValueError]
    expected = {
        "2 -> 3": [True, False, True, ValueError],
        "< -> <=": [True, False, True, ValueError],
        "not dropped": [ValueError, ValueError, True, False],
        "raise -> pass": [True, False, True, False],
        "in -> not in": [False, True, ValueError, ValueError],
    }
    for mutant in mutant_sweep.mutants(SOURCE):
        assert behaviour(mutant.source) == expected[mutant.change], mutant.change


def test_bools_and_other_constants_are_left_alone():
    source = "def f(a):\n    return (a is True, 'x', 1.5, None)\n"
    assert [m.change for m in mutant_sweep.mutants(source)] == ["is -> is not"]


@pytest.mark.parametrize(
    "arg, expected",
    [
        ("src/ibagsearch/rpag.py", ("src/ibagsearch/rpag.py", None)),
        ("src/ibagsearch/rpag.py:10-12", ("src/ibagsearch/rpag.py", range(10, 13))),
        ("src/ibagsearch/rpag.py:7", ("src/ibagsearch/rpag.py", range(7, 8))),
    ],
)
def test_target_reads_a_file_and_its_lines(arg, expected):
    path, lines = mutant_sweep.target(arg)
    assert (str(path), lines) == expected
