"""Regenerate the figures in perfbench/README.md.

    python3 perfbench/report.py --runs 10

For every workload this runs ``run.py`` once per seed (1..runs) untraced,
with BENCHMARK.json's ``run_seconds``, and reports each end-to-end metric's
median, quartiles and quartile spread as a share of the median, next to
its bound; the per-seed ``after_p50_us / before_p50_us`` ratios (the
quantity acceptance criterion 5 bounds at 2.0); traced runs on seeds
1..3, whose longest wall time shows the margin to the 180 s limit, with
seed 1's per-layer table; and the built-versus-loaded query gap: the same
stream timed against the index as built in memory and as loaded from its
file. Output is Markdown on stdout.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs disagree with the reference")
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def built_vs_loaded(workload: gen.Workload, seed: int, repeats: int = 5) -> tuple[float, float]:
    """after_p50_us as run.py defines it: in-memory build vs loaded file."""
    sys.path.insert(0, str(ROOT / "src"))
    import ibagsearch as ib

    work = ROOT / ".bench_work" / f"gap-{workload.name}-{seed}-{os.getpid()}"
    try:
        inputs = gen.write_inputs(workload, seed, work, ROOT / "src" / "ibagsearch" / "data")
        ref_onts = tuple(
            reference.read_ontology(i, Path(o["weights"]), Path(o["syntable"]), Path(inputs["limits"]))
            for i, o in enumerate(inputs["ontologies"], start=1)
        )
        ref = reference.build_reference(Path(inputs["corpus"]), ref_onts)
        queries = [
            ib.Query(q["search"], q["ontology_id"],
                     (q["lo"], math.inf if q["hi"] is None else q["hi"]), q["k"])
            for q in gen.make_queries(workload, seed, ref, inputs["ontologies"])
        ]
        limits = ib.load_limits(inputs["limits"])
        ontologies = [
            ib.load_ontology(o["weights"], o["syntable"], limits, ontology_id=i, name=o["name"])
            for i, o in enumerate(inputs["ontologies"], start=1)
        ]

        built = ib.IndexBundle.build(ib.load_corpus(inputs["corpus"]), ontologies)
        built.save(work / "index.json")
        loaded = ib.IndexBundle.load(work / "index.json")
        gc.collect()
        # alternate whole passes, so a slow spell of the machine hits both sides
        samples = {side: [[] for _ in queries] for side in ("built", "loaded")}
        for _ in range(repeats):
            for side, bundle in (("built", built), ("loaded", loaded)):
                for i, query in enumerate(queries):
                    start = time.perf_counter()
                    ib.search_after_masking(query, bundle.ibag, bundle.patterns)
                    samples[side][i].append(time.perf_counter() - start)
        return tuple(
            statistics.median(min(v) for v in samples[side]) * 1e6
            for side in ("built", "loaded")
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"{args.runs} seeds (1..{args.runs}), --seconds {seconds}\n")

    ratios: dict[str, list[float]] = {}
    layers: dict[str, dict] = {}
    for name in workloads:
        results = [run(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        walls = sorted(r["wall_s"] for r in results)
        print(f"### {name}\n\nfailed/attempted: {sorted(shares)}; "
              f"wall time per run: median {statistics.median(walls):.1f} s, max {walls[-1]:.1f} s\n")
        print("| metric | unit | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median, q1, q3, share = spread(values)
            print(f"| {m['name']} | {m['unit']} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {share:.3f} | {m['bound']} |")
        ratios[name] = [
            r["metrics"]["after_p50_us"]["value"] / r["metrics"]["before_p50_us"]["value"]
            for r in results
        ]
        print()
        traced = [run(name, seed, seconds, 1) for seed in (1, 2, 3)]
        layers[name] = traced[0]["metrics"]
        walls = [t["wall_s"] for t in traced]
        print(f"traced runs (seeds 1-3): wall time {', '.join(f'{w:.1f}' for w in walls)} s; "
              f"longest {max(walls):.1f} s\n")

    print("### after_p50_us / before_p50_us per seed\n")
    print("| workload | min | median | max | per seed |")
    print("|---|---|---|---|---|")
    for name, values in ratios.items():
        print(f"| {name} | {min(values):.3f} | {statistics.median(values):.3f} | "
              f"{max(values):.3f} | {' '.join(f'{v:.3f}' for v in values)} |")

    print("\n### per-layer, traced run, seed 1\n")
    print("| metric | unit | " + " | ".join(layers) + " |")
    print("|---|---|" + "---|" * len(layers))
    for m in spec["per_layer"]:
        cells = " | ".join(f"{layers[w][m['name']]['value']:.6g}" for w in layers)
        print(f"| {m['name']} | {m['unit']} | {cells} |")

    print("\n### after-masking p50 (us), in-memory build vs loaded from file, seed 1\n")
    print("| workload | built | loaded | loaded / built |")
    print("|---|---|---|---|")
    for name in workloads:
        built_us, loaded_us = built_vs_loaded(gen.WORKLOADS[name], 1)
        print(f"| {name} | {built_us:.1f} | {loaded_us:.1f} | {loaded_us / built_us:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
