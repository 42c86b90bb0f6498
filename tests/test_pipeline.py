"""End to end against the benchmark's independent reference.

``perfbench/reference.py`` rebuilds the index from the raw input files with
its own tokenizer, phrase counter and crawl, and answers each query by brute
force. Here the package builds, saves and loads an index of the same
seeded inputs and answers the same queries, and the benchmark's own checker
(``run.check``) compares the two: each node's url, parent, level, mean,
support flags and term vectors; each query's urls in both modes with the
selected and visited counts; and a byte-identical save -> load -> save.
It does so on seeds of the query-broad workload at 200 documents, and on
shapes the benchmark never makes: dense and sparse phrases, mostly
dangling links, a corpus of one to three pages, long pages and pages too
short to support any ontology.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from worker import answer_record  # noqa: E402

from ibagsearch import (  # noqa: E402
    IndexBundle,
    Query,
    load_corpus,
    load_limits,
    load_ontology,
    search_after_masking,
    search_before_masking,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "ibagsearch" / "data"
WORKLOAD = dataclasses.replace(gen.WORKLOADS["query-broad"], docs=200)
QUERIES = 200


# (name, fields of the query-broad workload replaced, seeds)
SHAPES = [
    ("dense-phrases", {"docs": 200, "hit": 0.5}, (1, 2)),
    ("sparse-phrases", {"docs": 200, "hit": 0.01}, (1, 2, 3)),
    ("dangling-links", {"docs": 200, "dangling": 0.9}, (1, 2)),
    ("three-pages", {"docs": 3}, (1, 2, 3)),
    ("one-page", {"docs": 1}, (1, 2, 3)),
    ("long-pages", {"docs": 60, "len_median": 2000}, (1, 2)),
    ("four-token-pages", {"docs": 200, "len_median": 4}, (1, 2)),
]


def differential(workload: gen.Workload, seed: int, tmp_path: Path) -> tuple:
    """Build, save, load and answer one seed of ``workload``; return the
    reference, its answers and every disagreement ``run.check`` finds.

    ``gen.make_queries`` needs a supporter of every ontology. Where one has
    none, the queries are one whole-range query per ontology, searching its
    first term: the node list and the save -> load -> save bytes are still
    checked, and the answers, empty or not, with them."""
    inputs = gen.write_inputs(workload, seed, tmp_path / "inputs", DATA)
    ref_onts = tuple(
        reference.read_ontology(i, Path(o["weights"]), Path(o["syntable"]), Path(inputs["limits"]))
        for i, o in enumerate(inputs["ontologies"], start=1)
    )
    ref = reference.build_reference(Path(inputs["corpus"]), ref_onts)

    limits = load_limits(inputs["limits"])
    ontologies = [
        load_ontology(o["weights"], o["syntable"], limits, ontology_id=i, name=o["name"])
        for i, o in enumerate(inputs["ontologies"], start=1)
    ]
    if all(ref.chains.values()):
        queries = gen.make_queries(workload, seed, ref, inputs["ontologies"])[:QUERIES]
    else:
        queries = [
            {"search": ont.terms[0].term, "ontology_id": ont.ontology_id, "lo": 0.0, "hi": None,
             "k": 10}
            for ont in ontologies
        ]
    expected = [reference.answer(ref, q) for q in queries]
    index_path = tmp_path / "index.json"
    IndexBundle.build(load_corpus(inputs["corpus"]), ontologies).save(index_path)
    bundle = IndexBundle.load(index_path)
    bundle.save(tmp_path / "again.json")
    ibag, patterns = bundle.ibag, bundle.patterns

    answers = []
    for q in queries:
        query = Query(
            search_string=q["search"],
            ontology_id=q["ontology_id"],
            relevance_range=(q["lo"], math.inf if q["hi"] is None else q["hi"]),
            result_limit=q["k"],
        )
        answers.append([
            answer_record(search_before_masking(query, ibag)),
            answer_record(search_after_masking(query, ibag, patterns)),
        ])
    result = {
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
        "answers": answers,
        # one build and one pass: no repeated digests or passes to compare
        "first_answers": [answers[0][1]],
        "pass_mismatches": 0,
        "roundtrip_ok": (tmp_path / "again.json").read_bytes() == index_path.read_bytes(),
        "build_digests": [""],
    }
    return ref, expected, run.check(ref, queries, expected, result)


@pytest.mark.parametrize("seed", range(1, 11))
def test_build_save_load_answers_as_the_reference(tmp_path, seed):
    ref, expected, problems = differential(WORKLOAD, seed, tmp_path)
    assert ref.nodes and any(a.after for a in expected)  # the inputs exercise the index
    assert problems == []


@pytest.mark.parametrize(
    "fields, seed",
    [(fields, seed) for _, fields, seeds in SHAPES for seed in seeds],
    ids=[f"{name}-{seed}" for name, _, seeds in SHAPES for seed in seeds],
)
def test_workload_shapes_answer_as_the_reference(tmp_path, fields, seed):
    workload = dataclasses.replace(gen.WORKLOADS["query-broad"], **fields)
    _, _, problems = differential(workload, seed, tmp_path)
    assert problems == []
