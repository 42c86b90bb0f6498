"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload crawl-heavy --seed 1 --seconds 20 --trace 0

Run from a source checkout: the program is imported from ``src/``. Each run
generates its inputs from the seed, computes the independent reference,
runs the measured worker process (build, save, load, query stream), checks
every output against the reference and prints one JSON object as its last
line. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs a short cycle (one build, one load, two passes over the
stream) untraced and then traced, and reports the per-layer metrics. Scratch files live under ``.bench_work/`` and are
removed when the run ends.
"""
from __future__ import annotations

import argparse
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
from spans import SpanSet, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170  # a run must end within 180 s, worker processes included
ROUNDS = 3  # build, loads and a third of the query passes, three times per run
TRACE_PASSES = 2  # a traced run: one build, one load and this many passes, traced and untraced


def worker_plan(workload: gen.Workload, seconds: float, trace: bool) -> dict:
    """Rounds and repeats of a worker: fixed by the workload and --seconds, not by speed."""
    if trace:
        return {"rounds": 1, "builds_per_round": 1, "loads_per_round": 1,
                "passes_per_round": TRACE_PASSES}
    return {
        "rounds": ROUNDS,
        "builds_per_round": workload.builds_per_round,
        "loads_per_round": workload.loads_per_round,
        "passes_per_round": max(1, round(seconds / ROUNDS / workload.pass_s)),
    }


def run_worker(work: Path, inputs: dict, queries: Path, plan: dict, trace: bool,
               deadline: float) -> dict:
    tag = "traced" if trace else "plain"
    cfg = {
        "src": str(ROOT / "src"),
        "work_dir": str(work),
        "inputs": inputs,
        "queries": str(queries),
        **plan,
        "trace": trace,
        "out": str(work / f"worker-{tag}.json"),
    }
    cfg_path = work / f"worker-{tag}-config.json"
    cfg_path.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "IBAG_SEARCH_LOG")}
    # subprocess.run kills and waits for the child if the timeout expires
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path)],
        cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({tag}) exited with code {proc.returncode}")
    return json.loads(Path(cfg["out"]).read_text())


def check(ref: reference.RefIndex, queries: list[dict], expected: list[reference.RefAnswer],
          result: dict) -> list[str]:
    """Every disagreement between the program's outputs and the reference."""
    problems: list[str] = []
    if len(result["nodes"]) != len(ref.nodes):
        problems.append(f"node count {len(result['nodes'])} != reference {len(ref.nodes)}")
    for got, want in zip(result["nodes"], ref.nodes):
        url, pp_id, level, mean, supported, vectors = got
        if [url, pp_id, level] != [want.url, want.pp_id, want.level]:
            problems.append(f"p_id {want.p_id}: (url, parent, level) {got[:3]} != "
                            f"{[want.url, want.pp_id, want.level]}")
        elif supported != want.supported or vectors != want.vectors or mean != want.mean:
            problems.append(f"p_id {want.p_id} ({url}): support, term vectors or mean differ")
    for i, (query, want) in enumerate(zip(queries, expected)):
        got = result["answers"][i]
        wanted = [[want.before, want.selected, want.visited], [want.after, want.selected, want.visited]]
        if got != wanted:
            problems.append(f"query {i} {query}: got {got}, expected {wanted}")
    first = [expected[0].after, expected[0].selected, expected[0].visited]
    if any(answer != first for answer in result["first_answers"]):
        problems.append("the first query after a load differs from the reference")
    if result["pass_mismatches"]:
        problems.append(f"{result['pass_mismatches']} answers changed between passes")
    if not result["roundtrip_ok"]:
        problems.append("save -> load -> save did not reproduce the index file byte for byte")
    if len(set(result["build_digests"])) != 1:
        problems.append("repeated builds of the same inputs wrote different index files")
    return problems


def index_sections(index_path: Path) -> dict[str, float]:
    """Canonical byte size of each section of the saved file, and the set-bit
    share of the bit patterns it stores."""
    obj = json.loads(index_path.read_text(encoding="utf-8"))
    figures: dict[str, float] = {}
    for section in ("rpag", "ibag", "patterns"):
        text = json.dumps(obj[section], sort_keys=True, ensure_ascii=False,
                          separators=(",", ":")) if section in obj else ""
        figures[f"bundle.{section}_bytes"] = len(text.encode("utf-8"))
    store = obj["patterns"]
    pattern_bits = set_bits = 0
    for key, rows in store["patterns"].items():
        pattern_bits += store["t_by_ontology"][key] * len(rows)
        set_bits += sum(bin(int(row, 16)).count("1") for row in rows)
    figures["bitmask.bit_density"] = set_bits / pattern_bits
    return figures


def harvest_rates(nodes: list, answers: list, expected: list[reference.RefAnswer],
                  queries: list[dict]) -> tuple[list[float], list[float]]:
    """Harvest Rate of the program's before- and after-masking results, from
    the program's own term vectors; the range selection each is measured
    against comes from the reference (its size is checked)."""
    vectors = {node[0]: node[5] for node in nodes}

    def mean_score(urls: list[str], slot: int, positions: list[int]) -> float | None:
        if not urls:
            return None
        return math.fsum(vectors[u][slot][p] for u in urls for p in positions) / len(urls)

    before, after = [], []
    for (got_before, got_after), want, query in zip(answers, expected, queries):
        whole = mean_score([n.url for n in want.selection], want.slot, want.positions)
        if whole is None or not whole > 0:
            continue
        for urls, out in ((got_before[0], before), (got_after[0], after)):
            rate = mean_score(urls, want.slot, want.positions)
            if rate is not None:
                out.append(rate / whole)
    return before, after


def layer_metrics(expected: list[reference.RefAnswer], queries: list[dict], plain: dict,
                  traced: dict, spans: SpanSet, index_path: Path) -> dict[str, float]:
    """Per-layer figures: times from the spans, counts and ratios from the
    program's own outputs and calls."""
    metrics = layer_times(spans)
    answers = traced["answers"]
    counters = traced["counters"]
    builds = len(traced["build_times"])
    pages_scored = len(spans.of("relevance.score"))
    pages_crawled = len(spans.of("ontology.tokenize"))  # normalize_text as the crawl calls it
    nodes = traced["nodes"]
    visited = sum(a[0][2] for a in answers)
    hr_before, hr_after = harvest_rates(nodes, answers, expected, queries)
    plain_m = plain["metrics"]
    metrics.update({
        "corpus.docs": spans.counts["corpus.load"] / len(spans.of("corpus.load")),
        "ontology.tokens": spans.counts["ontology.tokenize"] / builds,
        "relevance.pages_scored": pages_scored / builds,
        "relevance.support_ratio": spans.counts["relevance.score"] / pages_scored,
        "rpag.nodes": len(nodes),
        "rpag.kept_ratio": len(nodes) * builds / pages_crawled,
        "ibag.levels": len({node[2] for node in nodes}),
        "ibag.visited": visited / len(answers),
        "ibag.selected": sum(a[0][1] for a in answers) / len(answers),
        "ibag.useful_ratio": sum(len(a[0][0]) for a in answers) / visited,
        "bitmask.tested": counters["tested"] / counters["queries"],
        "bitmask.match_ratio": counters["matched"] / counters["tested"] if counters["tested"] else 0.0,
        "evaluation.hr_before": statistics.fmean(hr_before) if hr_before else 0.0,
        "evaluation.hr_after": statistics.fmean(hr_after) if hr_after else 0.0,
        "evaluation.after_over_before": plain_m["after_p50_us"] / plain_m["before_p50_us"],
        "trace.overhead_s": traced["cycle_wall_s"] - plain["cycle_wall_s"],
    })
    metrics.update(index_sections(index_path))
    return metrics


def counter_notes(ref: reference.RefIndex, queries: list[dict],
                  expected: list[reference.RefAnswer], metrics: dict[str, float]) -> list[str]:
    """Where the program's counters differ from the reference's count of the
    same thing. Not a correctness failure: the answers are checked apart."""
    wanted = {
        "corpus.docs": ref.docs_total,
        "ontology.tokens": ref.tokens_crawled,
        "rpag.nodes": len(ref.nodes),
        "ibag.levels": ref.levels,
        "bitmask.tested": sum(a.tested for a in expected) / len(expected),
    }
    rates = [reference.harvest_rates(a, q["k"]) for a, q in zip(expected, queries)]
    for i, name in enumerate(("evaluation.hr_before", "evaluation.hr_after")):
        values = [r[i] for r in rates if r[i] is not None]
        wanted[name] = statistics.fmean(values) if values else 0.0
    return [f"{name}: program {metrics[name]:g}, reference {value:g}"
            for name, value in wanted.items() if not math.isclose(metrics[name], value)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "ibagsearch"
    if not (package / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program source at {package} (run from a source checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = gen.WORKLOADS[args.workload]

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = gen.write_inputs(workload, args.seed, work / "inputs", package / "data")
        ref_onts = tuple(
            reference.read_ontology(i, Path(o["weights"]), Path(o["syntable"]), Path(inputs["limits"]))
            for i, o in enumerate(inputs["ontologies"], start=1)
        )
        ref = reference.build_reference(Path(inputs["corpus"]), ref_onts)
        queries = gen.make_queries(workload, args.seed, ref, inputs["ontologies"])
        queries_path = work / "queries.json"
        queries_path.write_text(json.dumps(queries))
        expected = [reference.answer(ref, q) for q in queries]

        plan = worker_plan(workload, args.seconds, bool(args.trace))
        plain = run_worker(work, inputs, queries_path, plan, False, deadline)
        runs = [plain]
        if args.trace:
            traced = run_worker(work, inputs, queries_path, plan, True, deadline)
            runs.append(traced)
            metrics = layer_metrics(expected, queries, plain, traced,
                                    SpanSet(work / "spans.bin"), work / "index.json")
            for note in counter_notes(ref, queries, expected, metrics):
                print(f"NOTE: counter differs from the reference: {note}", file=sys.stderr)
        else:
            metrics = plain["metrics"]
        problems = [p for r in runs for p in check(ref, queries, expected, r)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
