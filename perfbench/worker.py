"""The measured process: build, save, load and query through the public API.

Run by ``run.py`` with one JSON config argument; the inputs already exist
on disk, so this process's peak RSS reflects the program, not the input
generator or the checker. Query timings are taken against the index as
loaded from its saved file, never against the in-memory build.

With ``"trace": true`` every call into a layer's public function is
recorded as a span, by wrapping the function at the name its calling
module looks up; the program's files are not changed.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

from spans import Tracer


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import ibagsearch

    where = Path(ibagsearch.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported ibagsearch from {where}, not from {src}")
    return ibagsearch


def install_tracer(tracer: Tracer, api: types.SimpleNamespace) -> None:
    from ibagsearch import bundle, ibag, rpag, search

    api.load_limits = tracer.wrap("ontology.load", api.load_limits)
    api.load_ontology = tracer.wrap("ontology.load", api.load_ontology)
    api.load_corpus = tracer.wrap("corpus.load", api.load_corpus, count=lambda c: len(c.docs))
    api.search_before = tracer.wrap("search.before", api.search_before)
    api.search_after = tracer.wrap("search.after", api.search_after)
    tracer.patch(bundle, "build_rpag", "rpag.crawl")
    tracer.patch(rpag, "normalize_text", "ontology.tokenize", count=len)
    tracer.patch(rpag, "page_relevance", "relevance.score", count=lambda rel: rel.supported)
    tracer.patch(bundle, "build_ibag", "ibag.build")
    tracer.patch(bundle, "gen_ibag_bit_patterns", "bitmask.patterns")
    tracer.patch(bundle.IndexBundle, "save", "bundle.save")
    tracer.patch(bundle.IndexBundle, "canonical_bytes", "bundle.serialize")
    tracer.patch(bundle.IndexBundle, "load", "bundle.load")
    tracer.patch(bundle.IndexBundle, "from_json_obj", "bundle.decode")
    tracer.patch(bundle.IndexBundle, "validate", "bundle.validate")
    tracer.patch(rpag.RPaG, "validate", "bundle.validate")
    tracer.patch(ibag.IBAG, "validate", "bundle.validate")
    tracer.patch(search, "select_by_range", "ibag.select")
    tracer.patch(search, "gen_mask_bit_pattern", "bitmask.mask")
    tracer.patch(search, "find_predicted_webpage_list", "bitmask.filter")
    # bundle.py decodes through the json module it imported; give it a
    # stand-in whose loads is traced and whose other names are json's own
    json_proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json) if not k.startswith("_")})
    json_proxy.loads = tracer.wrap("bundle.parse", json.loads)
    bundle.json = json_proxy


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def answer_record(outcome) -> list:
    return [[url for url, _ in outcome.results], outcome.selected_count, outcome.visited_count]


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    work = Path(cfg["work_dir"])
    program = import_program(Path(cfg["src"]))
    api = types.SimpleNamespace(
        load_limits=program.load_limits,
        load_ontology=program.load_ontology,
        load_corpus=program.load_corpus,
        IndexBundle=program.IndexBundle,
        Query=program.Query,
        search_before=program.search_before_masking,
        search_after=program.search_after_masking,
    )
    tracer = Tracer()
    if cfg["trace"]:
        install_tracer(tracer, api)
    inputs = cfg["inputs"]
    queries = [
        api.Query(
            search_string=q["search"],
            ontology_id=q["ontology_id"],
            relevance_range=(q["lo"], math.inf if q["hi"] is None else q["hi"]),
            result_limit=q["k"],
        )
        for q in json.loads(Path(cfg["queries"]).read_text())
    ]
    index_path = work / "index.json"
    attempted = failed = 0
    cycle_start = perf_counter()

    def build_once() -> None:
        limits = api.load_limits(inputs["limits"])
        ontologies = [
            api.load_ontology(o["weights"], o["syntable"], limits, ontology_id=i, name=o["name"])
            for i, o in enumerate(inputs["ontologies"], start=1)
        ]
        corpus = api.load_corpus(inputs["corpus"])
        api.IndexBundle.build(corpus, ontologies).save(index_path)

    def setup_once():
        bundle = api.IndexBundle.load(index_path)
        return bundle, api.search_after(queries[0], bundle.ibag, bundle.patterns)

    if cfg["trace"]:
        build_once = tracer.wrap("cycle.build", build_once)
        setup_once = tracer.wrap("cycle.setup", setup_once)

    build_times, build_digests, setup_times, first_answers = [], [], [], []
    # per mode and query, one latency sample a pass (flat doubles, so the
    # samples add little to the peak RSS that this process reports)
    latencies = {mode: [array("d") for _ in queries] for mode in ("before", "after")}
    answers: list[list] = []
    mismatches = 0
    roundtrip_ok = True
    # Each round builds, loads and then runs a fixed number of passes over the
    # query stream, so every metric samples the whole run rather than one stretch of it.
    for round_index in range(cfg["rounds"]):
        # build: ontology, limits and corpus files -> index file on disk
        bundle = ibag = patterns = None  # the last round's index is not kept through a build
        for _ in range(cfg["builds_per_round"]):
            gc.collect()
            tracer.on = cfg["trace"]
            start = perf_counter()
            build_once()
            build_times.append(perf_counter() - start)
            tracer.on = False
            attempted += 1
            build_digests.append(digest(index_path))

        # setup: index file -> first answered query
        for _ in range(cfg["loads_per_round"]):
            bundle = None
            gc.collect()
            tracer.on = cfg["trace"]
            start = perf_counter()
            bundle, first = setup_once()
            setup_times.append(perf_counter() - start)
            tracer.on = False
            attempted += 1
            first_answers.append(answer_record(first))
        if round_index == 0:
            roundtrip_path = work / "roundtrip.json"
            bundle.save(roundtrip_path)
            roundtrip_ok = roundtrip_path.read_bytes() == index_path.read_bytes()
            roundtrip_path.unlink()

        # closed-loop query stream, one client: each pass answers every query
        # before and after masking; each answer is checked as soon as its
        # call is timed, and is not kept, so it is freed as the program's is
        ibag, patterns = bundle.ibag, bundle.patterns
        calls = (
            ("before", api.search_before, (ibag,)),
            ("after", api.search_after, (ibag, patterns)),
        )
        gc.collect()
        for _ in range(cfg["passes_per_round"]):
            tracer.on = cfg["trace"]
            for i, query in enumerate(queries):
                record = []
                for mode, call, args in calls:
                    attempted += 1
                    try:
                        start = perf_counter()
                        outcome = call(query, *args)
                        latencies[mode][i].append(perf_counter() - start)
                    except Exception as exc:  # counted, and the stream goes on
                        failed += 1
                        record.append(f"{type(exc).__name__}: {exc}")
                        continue
                    record.append(answer_record(outcome))
                if len(answers) < len(queries):
                    answers.append(record)
                elif record != answers[i]:
                    mismatches += 1
            tracer.on = False
    loop_end = perf_counter()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counters = {}
    if cfg["trace"]:
        # one more after-masking pass, untimed, counting the program's own page tests
        from ibagsearch import bitmask

        tested = matched = 0
        mask_match = bitmask.mask_match

        def counted(*args):
            nonlocal tested, matched
            keep = mask_match(*args)
            tested += 1
            matched += keep
            return keep

        bitmask.mask_match = counted
        for query in queries:
            api.search_after(query, ibag, patterns)
        counters = {"tested": tested, "matched": matched, "queries": len(queries)}

    # p50: a query's latency is its fastest pass, since the slow spells of a
    # shared machine only ever add time. p99 and throughput: a query's median
    # pass, so a slowdown that hits most passes of a query shows.
    fastest = {mode: sorted(min(v) for v in samples if v) for mode, samples in latencies.items()}
    typical = sorted(statistics.median(v) for v in latencies["after"] if v)
    result = {
        "attempted": attempted,
        "failed": failed,
        "pass_mismatches": mismatches,
        "counters": counters,
        "cycle_wall_s": loop_end - cycle_start,
        "build_times": build_times,
        "setup_times": setup_times,
        "build_digests": build_digests,
        "roundtrip_ok": roundtrip_ok,
        "first_answers": first_answers,
        "answers": answers,
        "metrics": {
            "build_s": statistics.median(build_times),
            "setup_s": statistics.median(setup_times),
            "index_bytes": index_path.stat().st_size,
            "peak_rss_mb": peak_rss_kib / 1024,
            "after_p50_us": statistics.median(fastest["after"]) * 1e6,
            "after_p99_us": percentile(typical, 0.99) * 1e6,
            "before_p50_us": statistics.median(fastest["before"]) * 1e6,
            "queries_per_s": len(typical) / math.fsum(typical),
        },
        "nodes": [
            [
                node.url,
                node.pp_id,
                node.level,
                node.mean_rel_val,
                [node.supported[o.ontology_id] for o in ibag.ontologies],
                [list(node.term_vectors[o.ontology_id]) for o in ibag.ontologies],
            ]
            for node in ibag.nodes
        ],
    }
    if cfg["trace"]:
        tracer.write(work / "spans.bin")
    Path(cfg["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
