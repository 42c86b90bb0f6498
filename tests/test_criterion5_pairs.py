"""The summary code of ``tools/criterion5_pairs.py``, on canned records; the
tool's runs themselves are not part of the suite."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "criterion5_pairs.py"
_SPEC = importlib.util.spec_from_file_location("criterion5_pairs", _PATH)
criterion5_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(criterion5_pairs)


def rows(elapsed: dict[int, tuple[float, float]]) -> list[dict]:
    """``report.json`` rows from (before, after) elapsed per size."""
    return [
        {"size": size, "mode": mode, "avg_count": 1.0, "avg_elapsed_us": us,
         "avg_visited": 1.0, "hr_mean": None}
        for size, pair in elapsed.items()
        for mode, us in zip(("before_masking", "after_masking"), pair)
    ]


def test_ratios_are_after_over_before_by_ascending_size():
    got = criterion5_pairs.ratios(rows({200: (10.0, 15.0), 100: (4.0, 2.0)}))
    assert list(got.items()) == [(100, 0.5), (200, 1.5)]


def test_summary_gives_quartiles_per_size_and_the_worst_size_tally():
    parent = [{100: r, 500: 2 * r} for r in (1.0, 1.2, 1.4, 1.6, 1.8)]
    change = [{100: 1.0, 500: 0.5}, {100: 1.0, 500: 1.5}, {100: 1.0, 500: 2.0}]
    lines = criterion5_pairs.summary({"parent": parent, "change": change})
    assert lines == [
        "side    size     q1 median     q3",
        "parent   100  1.100  1.400  1.700",
        "parent   500  2.200  2.800  3.400",
        "change   100  1.000  1.000  1.000",
        "change   500  0.500  1.500  2.000",
        "parent  worst size over 5 runs: 500 in 5",
        "change  worst size over 3 runs: 500 in 2, 100 in 1",
    ]

