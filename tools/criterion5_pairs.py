"""Criterion-5 pairs: the after/before latency ratio per corpus size, for a
parent revision and for the working tree, from alternating fresh processes.

Usage, from the repository root::

    python tools/criterion5_pairs.py --parent REV [--runs 20]

REV is extracted with ``git archive`` into a temporary directory, which is
removed on exit; neither the working tree nor ``.git`` is written
(:func:`side_trees`).
Runs alternate between the sides, one process at a time, and each pair
swaps which side goes first (:func:`alternating`); ``tools/bench_pairs.py``
shares both. Each run is one new Python process making the call that
acceptance criterion 5 judges, ``run_benchmark([100, 200, 300, 400, 500],
default_queries(), rng_seed=42)``, with the side's ``src`` on
``PYTHONPATH``. For each side the script prints, per size, the quartiles
of ``avg_elapsed_us`` after masking over before masking, and how often
each size had the run's worst ratio. Criterion 5 passes while every ratio is at
most 2. Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import quantiles
from typing import Iterable, Iterator, TypeVar

ROOT = Path(__file__).resolve().parent.parent
K = TypeVar("K")
SIZES = (100, 200, 300, 400, 500)
CHILD = f"""
import json
from ibagsearch.bundled import default_queries
from ibagsearch.evaluation import run_benchmark

report = run_benchmark({list(SIZES)}, default_queries(), rng_seed=42)
print(json.dumps(report.to_json_obj()["rows"]))
"""


def ratios(rows: list[dict]) -> dict[int, float]:
    """One run's after/before ``avg_elapsed_us`` ratio per size, from the
    rows of its ``report.json``."""
    elapsed: dict[int, dict[str, float]] = {}
    for row in rows:
        elapsed.setdefault(row["size"], {})[row["mode"]] = row["avg_elapsed_us"]
    return {
        size: modes["after_masking"] / modes["before_masking"]
        for size, modes in sorted(elapsed.items())
    }


def summary(runs_by_side: dict[str, list[dict[int, float]]]) -> list[str]:
    """Per side, the ratio quartiles of each size and the worst-size tally.
    Each side needs at least two runs."""
    lines = ["side    size     q1 median     q3"]
    for side, runs in runs_by_side.items():
        for size in runs[0]:
            q1, median, q3 = quantiles([run[size] for run in runs], n=4)
            lines.append(f"{side:<7} {size:>4} {q1:6.3f} {median:6.3f} {q3:6.3f}")
    for side, runs in runs_by_side.items():
        worst = Counter(max(run, key=run.__getitem__) for run in runs)
        tally = ", ".join(f"{size} in {n}" for size, n in worst.most_common())
        lines.append(f"{side:<7} worst size over {len(runs)} runs: {tally}")
    return lines


@contextmanager
def side_trees(parent_rev: str) -> Iterator[dict[str, Path]]:
    """The tree of each side: ``parent_rev``'s files, from ``git archive``,
    in a temporary directory that is removed on exit, and the working tree,
    which is only read. Nothing is written under ``.git``, so a killed run
    leaves at most the temporary directory behind."""
    archive = subprocess.run(
        ["git", "archive", parent_rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent = Path(tmp) / "parent"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        yield {"parent": parent, "change": ROOT}


def alternating(keys: Iterable[K], trees: dict[str, Path]) -> Iterator[tuple[K, str, Path, bool]]:
    """``(key, side, tree, ran_first)`` for each side of each key in turn:
    the pairs alternate which side goes first, so a slow spell of the
    machine falls on both sides alike."""
    for i, key in enumerate(keys):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for side in order:
            yield key, side, trees[side], side == order[0]


def run_once(tree: Path) -> dict[int, float]:
    """One fresh-process run of the criterion-5 call against ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tree, env=env, capture_output=True, text=True,
        check=True,
    )
    return ratios(json.loads(done.stdout))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--runs", type=int, default=20, help="runs per side, at least 2")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs_by_side: dict[str, list[dict[int, float]]] = {"parent": [], "change": []}
    with side_trees(args.parent) as trees:
        for i, side, tree, ran_first in alternating(range(args.runs), trees):
            runs_by_side[side].append(run_once(tree))
            if not ran_first:
                print(f"pair {i + 1} of {args.runs} done", file=sys.stderr)
    print("\n".join(summary(runs_by_side)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
