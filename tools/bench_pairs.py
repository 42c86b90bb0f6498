"""Benchmark pairs: perfbench's end-to-end metrics for a parent revision and
for the working tree, seed by seed, from alternating runs.

Usage, from the repository root::

    python tools/bench_pairs.py --parent REV --seeds A-B --out BENCH_<n>.json

REV is checked out into a temporary ``git worktree``, removed on exit, and
each seed of each workload that ``BENCHMARK.json`` lists runs ``python3
perfbench/run.py --workload W --seed S --seconds N --trace 0``, N being
its ``run_seconds``, once in each tree: the tree's own,
unchanged perfbench, one process at a time, each pair swapping which side
goes first (the loop of ``tools/criterion5_pairs.py``). The output file
holds every run (workload, seed, side, ``ran_first`` and the run's result
line) and, per workload and metric of ``BENCHMARK.json``'s ``end_to_end``
list, each side's quartiles, ``median_change_over_parent``,
``parent_quartile_spread``, ``pair_change``, the quartiles of change minus
parent seed by seed, so that a seed's workload is not counted as noise,
and ``change_better_pairs``: the seeds where the change beat the parent in
the metric's better direction, a tie counting for neither side. The script exits 1 if any run failed, ended without a
JSON result line, was incorrect or had a failed operation. Standard
library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from criterion5_pairs import ROOT, alternating, side_trees

SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    """``A-B``, both ends included, with B > A: at least two seeds."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"--seeds {text!r} must name at least two seeds")
    return seeds


def run_ok(result: dict | None) -> bool:
    """Whether a run ended with a result line, correct, with no failed operation."""
    return result is not None and result["correct"] and result["failed"] == 0


def summary(runs: list[dict], better: dict[str, str]) -> dict[str, dict[str, dict]]:
    """Per workload and metric, the two sides' figures over the seeds where
    both sides ran cleanly; a workload with fewer than two such seeds is
    left out. ``better`` maps each metric to ``lower`` or ``higher``."""
    values: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        if run_ok(run["result"]):
            seeds = values.setdefault(run["workload"], {})
            seeds.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    out: dict[str, dict[str, dict]] = {}
    for workload, seeds in values.items():
        pairs = [sides for sides in seeds.values() if len(sides) == len(SIDES)]
        if len(pairs) < 2:
            continue
        out[workload] = {}
        for metric, direction in better.items():
            sides = {side: [pair[side][metric]["value"] for pair in pairs] for side in SIDES}
            if direction == "lower":
                wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
            else:
                wins = sum(c > p for p, c in zip(sides["parent"], sides["change"]))
            q1, _, q3 = quantiles(sides["parent"], n=4)
            differences = [c - p for p, c in zip(sides["parent"], sides["change"])]
            out[workload][metric] = {
                "better": direction,
                "pairs": len(pairs),
                **{side: dict(zip(("q1", "median", "q3"), quantiles(sides[side], n=4)))
                   for side in SIDES},
                "median_change_over_parent": median(sides["change"]) / median(sides["parent"]),
                "parent_quartile_spread": q3 - q1,
                "pair_change": dict(zip(("q1", "median", "q3"), quantiles(differences, n=4))),
                "change_better_pairs": wins,
            }
    return out


def table(summary_: dict[str, dict[str, dict]]) -> list[str]:
    """One line per workload and metric: the medians, their ratio, the
    parent's quartile spread and the pairs the change won."""
    lines = [f"{'workload':<12} {'metric':<14} {'parent':>12} {'change':>12} "
             f"{'ratio':>6} {'spread':>10} better"]
    for workload, metrics in summary_.items():
        for metric, m in metrics.items():
            lines.append(
                f"{workload:<12} {metric:<14} {m['parent']['median']:>12.6g} "
                f"{m['change']['median']:>12.6g} {m['median_change_over_parent']:>6.3f} "
                f"{m['parent_quartile_spread']:>10.4g} {m['change_better_pairs']}/{m['pairs']}"
            )
    return lines


def result_line(stdout: str) -> dict | None:
    """The JSON object on a run's last output line, or None if there is none."""
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one ``perfbench/run.py --trace 0`` run in
    ``tree``, or None if the run exited with an error or printed no result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    result = result_line(done.stdout) if done.returncode == 0 else None
    if result is None:
        print(f"{tree}: {' '.join(command[1:])} exited {done.returncode} without a "
              f"result line: {done.stderr.strip()[-400:]}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, both included")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent_sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()

    runs: list[dict] = []
    with side_trees(parent_sha) as trees:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed, side, tree, ran_first in alternating(args.seeds, trees):
                result = run_bench(tree, workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": ran_first, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{'ok' if run_ok(result) else 'FAILED'}", file=sys.stderr)
    figures = summary(runs, better)
    args.out.write_text(json.dumps({
        "parent": parent_sha,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "runs": runs,
        "summary": figures,
    }, indent=1) + "\n", encoding="utf-8")
    print("\n".join(table(figures)))
    return 0 if all(run_ok(run["result"]) for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
