"""The summary code of ``tools/bench_pairs.py``, on canned run records; the
tool's perfbench runs themselves are not part of the suite."""
from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))  # bench_pairs imports criterion5_pairs by name
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"before_p50_us": "lower", "queries_per_s": "higher"}


def run(seed: int, side: str, p50: float, qps: float, *, correct: bool = True,
        failed: int = 0, workload: str = "crawl-heavy") -> dict:
    """One run record as the tool writes it."""
    metrics = {"before_p50_us": {"value": p50, "unit": "us"},
               "queries_per_s": {"value": qps, "unit": "1/s"}}
    return {"workload": workload, "seed": seed, "side": side, "ran_first": side == "parent",
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_gives_quartiles_ratio_spread_and_wins_in_the_better_direction():
    runs = [
        run(1, "parent", 10.0, 100.0), run(1, "change", 9.0, 100.0),  # qps tie
        run(2, "parent", 12.0, 90.0), run(2, "change", 12.0, 95.0),  # p50 tie
        run(3, "parent", 11.0, 80.0), run(3, "change", 10.0, 70.0),
        run(4, "parent", 13.0, 85.0), run(4, "change", 14.0, 99.0),
    ]
    got = bench_pairs.summary(runs, BETTER)["crawl-heavy"]
    p50 = got["before_p50_us"]
    assert p50["better"] == "lower" and p50["pairs"] == 4
    assert p50["parent"] == {"q1": 10.25, "median": 11.5, "q3": 12.75}
    assert p50["change"] == {"q1": 9.25, "median": 11.0, "q3": 13.5}
    assert p50["median_change_over_parent"] == pytest.approx(11.0 / 11.5)
    assert p50["parent_quartile_spread"] == 2.5
    # change - parent by seed: -1, 0, -1, +1
    assert p50["pair_change"] == {"q1": -1.0, "median": -0.5, "q3": 0.75}
    assert p50["change_better_pairs"] == 2  # seeds 1 and 3; the tie at seed 2 counts for neither
    assert got["queries_per_s"]["change_better_pairs"] == 2  # seeds 2 and 4


def test_a_failed_or_incorrect_run_drops_its_pair_and_a_workload_needs_two_pairs():
    runs = [
        run(1, "parent", 10.0, 1.0), run(1, "change", 9.0, 1.0),
        run(2, "parent", 10.0, 1.0), run(2, "change", 9.0, 1.0, correct=False),
        run(3, "parent", 10.0, 1.0, failed=1), run(3, "change", 9.0, 1.0),
        run(4, "parent", 12.0, 1.0), run(4, "change", 8.0, 1.0),
        run(5, "parent", 1.0, 1.0, workload="query-broad"),
        run(5, "change", 1.0, 1.0, workload="query-broad"),
        {**run(6, "parent", 1.0, 1.0, workload="query-broad"), "result": None},
        run(6, "change", 1.0, 1.0, workload="query-broad"),
    ]
    got = bench_pairs.summary(runs, BETTER)
    assert list(got) == ["crawl-heavy"]
    assert got["crawl-heavy"]["before_p50_us"]["pairs"] == 2
    assert [bench_pairs.run_ok(r["result"]) for r in runs[:4]] == [True, True, True, False]
    assert not bench_pairs.run_ok(runs[10]["result"])


def test_table_has_one_line_per_workload_and_metric():
    runs = [run(1, "parent", 10.0, 100.0), run(1, "change", 9.0, 110.0),
            run(2, "parent", 12.0, 90.0), run(2, "change", 11.0, 95.0)]
    lines = bench_pairs.table(bench_pairs.summary(runs, BETTER))
    assert len(lines) == 3
    assert lines[1].split() == ["crawl-heavy", "before_p50_us", "11", "10", "0.909", "3", "2/2"]


def test_seed_range_includes_both_ends_and_needs_two_seeds():
    assert bench_pairs.seed_range("6-15") == range(6, 16)
    with pytest.raises(argparse.ArgumentTypeError, match="at least two seeds"):
        bench_pairs.seed_range("4-4")


def test_result_line_is_the_last_line_as_json_or_none():
    assert bench_pairs.result_line('log\n{"correct": true}\n') == {"correct": True}
    assert bench_pairs.result_line("") is None
    assert bench_pairs.result_line("{\"correct\": true}\nTraceback ...\n") is None
    assert bench_pairs.result_line("[1, 2]\n") is None
