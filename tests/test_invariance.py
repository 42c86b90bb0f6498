"""What an index and an answer must not depend on.

The index relations: a build's bytes do not depend on ``PYTHONHASHSEED``,
on the order of the corpus lines or on pages that no seed reaches. A set
of ontologies has one order, ascending id; every way in that takes a list
of them rejects any other order, with one message, before it builds
anything.

The query relations, over seeded random queries on one index: the results
for a limit k are the first k of those for a larger limit, and the selected
and visited counts do not depend on k; widening the range never drops a
selected page; case, markup, padding and appended words that are in no
phrase change neither the mask nor the answer; and with a limit of at least
the selected count, the results without synonyms are a subset of those
with them.

The inputs are small seeded corpora of the benchmark's query-broad
workload (``perfbench/gen.py``).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402

from ibagsearch import (  # noqa: E402
    IndexBundle,
    Query,
    ValidationError,
    build_rpag,
    gen_mask_bit_pattern,
    load_corpus,
    load_limits,
    load_ontology,
    search_after_masking,
    search_before_masking,
)
from ibagsearch import evaluation, rpag  # noqa: E402
from ibagsearch.evaluation import hr_direction_experiment, run_benchmark  # noqa: E402
from conftest import sealed  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "ibagsearch" / "data"
WORKLOAD = dataclasses.replace(gen.WORKLOADS["query-broad"], docs=300)
QUERIES = 300


@dataclasses.dataclass(frozen=True)
class Inputs:
    corpus: Path
    seed_url: str
    limits: Path
    ontology_files: tuple[tuple[str, str], ...]  # (weights, syntable) in id order
    ontologies: tuple


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Inputs:
    paths = gen.write_inputs(WORKLOAD, 3, tmp_path_factory.mktemp("inputs"), DATA)
    limits = load_limits(paths["limits"])
    ontologies = tuple(
        load_ontology(o["weights"], o["syntable"], limits, ontology_id=i, name=o["name"])
        for i, o in enumerate(paths["ontologies"], start=1)
    )
    corpus = Path(paths["corpus"])
    with corpus.open(encoding="utf-8") as fh:
        seed_url = json.loads(fh.readline())["url"]
    return Inputs(
        corpus,
        seed_url,
        Path(paths["limits"]),
        tuple((o["weights"], o["syntable"]) for o in paths["ontologies"]),
        ontologies,
    )


def index_bytes(corpus_path: Path, inputs: Inputs) -> bytes:
    corpus = load_corpus(corpus_path, [inputs.seed_url])
    return IndexBundle.build(corpus, inputs.ontologies).canonical_bytes()


@pytest.fixture(scope="module")
def bundle(inputs) -> IndexBundle:
    return IndexBundle.build(load_corpus(inputs.corpus, [inputs.seed_url]), inputs.ontologies)


class TestIndexBytes:
    def test_the_hash_seed_changes_nothing(self, inputs, tmp_path):
        """Two CLI builds of the same inputs under different hash seeds."""
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"index-{hash_seed}.json"
            result = subprocess.run(
                [sys.executable, "-m", "ibagsearch", "build", str(inputs.corpus),
                 *(f"--ontology={w}:{s}" for w, s in inputs.ontology_files),
                 "--limits", str(inputs.limits), "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
            )
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_the_corpus_line_order_changes_nothing(self, inputs, bundle, tmp_path):
        lines = inputs.corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(7).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines), encoding="utf-8")
        assert index_bytes(shuffled, inputs) == bundle.canonical_bytes()

    def test_pages_no_seed_reaches_change_nothing(self, inputs, bundle, tmp_path):
        """Twenty pages full of ontology phrases that link into the crawled
        pages, but that no page links to."""
        phrases = [term.term for ont in inputs.ontologies for term in ont.terms]
        urls = [node.url for node in bundle.rpag.nodes]
        rng = random.Random(11)
        extra = [
            json.dumps({
                "url": f"http://unlinked.example/{i}",
                "links": rng.sample(urls, 3),
                "text": " ".join(rng.choices(phrases, k=40)),
            }) + "\n"
            for i in range(20)
        ]
        grown = tmp_path / "grown.jsonl"
        grown.write_text(inputs.corpus.read_text(encoding="utf-8") + "".join(extra), "utf-8")
        assert index_bytes(grown, inputs) == bundle.canonical_bytes()


def _refuse(*args, **kwargs):
    raise AssertionError("built before checking the order of the ontologies")


OTHER_ORDERS = [
    order for order in itertools.permutations(range(3)) if order != (0, 1, 2)
] + [(0, 0), (1, 1, 2)]


class TestOntologyOrder:
    """Every way in that takes a list of ontologies rejects any order but
    ascending id, with one message, before it builds anything."""

    @pytest.fixture(params=OTHER_ORDERS, ids=lambda order: "-".join(str(i + 1) for i in order))
    def reordered(self, request, inputs, monkeypatch):
        monkeypatch.setattr(rpag, "PhraseTable", SimpleNamespace(merge=_refuse))
        monkeypatch.setattr(rpag, "_score_table", _refuse)
        monkeypatch.setattr(evaluation, "synth_corpus", _refuse)
        ontologies = [inputs.ontologies[i] for i in request.param]
        ids = [ont.ontology_id for ont in ontologies]
        return ontologies, f"ontology ids must be unique and ascending, got {ids}"

    def test_a_crawl_and_a_build_reject_it(self, inputs, reordered):
        ontologies, message = reordered
        corpus = load_corpus(inputs.corpus, [inputs.seed_url])
        for build in (build_rpag, IndexBundle.build):
            with pytest.raises(ValidationError) as caught:
                build(corpus, ontologies)
            assert str(caught.value) == message

    def test_a_load_rejects_it(self, bundle, reordered, tmp_path):
        ontologies, message = reordered
        obj = json.loads(bundle.canonical_bytes())
        by_id = {raw["ontology_id"]: raw for raw in obj["ontologies"]}
        obj["ontologies"] = [by_id[ont.ontology_id] for ont in ontologies]
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError) as caught:
            IndexBundle.load(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_the_harness_rejects_it(self, reordered):
        ontologies, message = reordered
        with pytest.raises(ValidationError) as caught:
            run_benchmark([40], [Query("cricket", 1)], 1, ontologies=ontologies, repeats=1)
        assert str(caught.value) == message
        with pytest.raises(ValidationError) as caught:
            hr_direction_experiment(1, ontologies=ontologies)
        assert str(caught.value) == message


def _vocabulary(ontologies) -> set[str]:
    return {word for ont in ontologies for t in ont.terms for p in t.phrases() for word in p.split()}


@pytest.fixture(scope="module")
def queries(inputs, bundle) -> list[Query]:
    """Seeded queries: one to three phrases of one ontology plus filler
    words, over a range drawn from the index's means, or the whole range."""
    rng = random.Random(3)
    means = sorted(bundle.ibag.node_columns.mean_rel_val)
    fillers = sorted(set(gen.FILLER) - _vocabulary(inputs.ontologies))
    made = []
    for i in range(QUERIES):
        ont = inputs.ontologies[i % len(inputs.ontologies)]
        terms = rng.sample(ont.terms, rng.randint(1, 3))
        words = [rng.choice(term.phrases()) for term in terms] + rng.sample(fillers, 2)
        rng.shuffle(words)
        lo, hi = sorted(rng.choices(means, k=2))
        relevance_range = (0.0, math.inf) if rng.random() < 0.3 else (lo, hi)
        made.append(Query(" ".join(words), ont.ontology_id, relevance_range, rng.randint(1, 30)))
    return made


def answer(outcome) -> tuple:
    """What a search answers: everything but its elapsed time."""
    return outcome.results, outcome.selected_count, outcome.visited_count


def searches(bundle):
    """Both modes, as functions of a query."""
    return (
        lambda query: search_before_masking(query, bundle.ibag),
        lambda query: search_after_masking(query, bundle.ibag, bundle.patterns),
    )


class TestQueryRelations:
    def test_the_inputs_give_answers(self, queries, bundle):
        after = [search_after_masking(q, bundle.ibag, bundle.patterns) for q in queries]
        assert sum(bool(outcome.results) for outcome in after) > len(queries) // 2

    def test_a_smaller_limit_answers_a_prefix(self, queries, bundle):
        everything = len(bundle.ibag) + 1
        for search in searches(bundle):
            for query in queries:
                full = search(dataclasses.replace(query, result_limit=everything))
                for k in (1, 2, query.result_limit):
                    outcome = search(dataclasses.replace(query, result_limit=k))
                    assert answer(outcome) == (full.results[:k], *answer(full)[1:]), query

    def test_widening_the_range_drops_no_selected_page(self, queries, bundle):
        everything = len(bundle.ibag) + 1
        rng = random.Random(5)
        for search in searches(bundle):
            for query in queries:
                lo, hi = query.relevance_range
                narrow = search(dataclasses.replace(query, result_limit=everything))
                for wider in ((lo * rng.random(), hi), (lo, hi + rng.random()), (0.0, math.inf)):
                    wide = search(Query(query.search_string, query.ontology_id, wider, everything))
                    assert set(narrow.results) <= set(wide.results), (query, wider)
                    assert narrow.selected_count <= wide.selected_count

    def test_case_markup_padding_and_unknown_words_change_nothing(self, inputs, queries, bundle):
        unknown = " ".join(sorted({"zyqx", "qwv", "news"} - _vocabulary(inputs.ontologies)))
        for query in queries:
            ontology = bundle.ibag.ontology_by_id(query.ontology_id)
            text = query.search_string
            mask = gen_mask_bit_pattern(text, ontology)
            expected = answer(search_after_masking(query, bundle.ibag, bundle.patterns))
            for variant in (
                text.upper(),
                text.title(),
                " ".join(f"<em>{word}</em>," for word in text.split()),
                f" \t {text}  \n",
                f"{text} {unknown}",
            ):
                assert gen_mask_bit_pattern(variant, ontology) == mask, variant
                same = dataclasses.replace(query, search_string=variant)
                assert answer(search_after_masking(same, bundle.ibag, bundle.patterns)) == expected

    def test_synonyms_only_add_results(self, queries, bundle):
        for query in queries:
            selected = search_before_masking(query, bundle.ibag).selected_count
            query = dataclasses.replace(query, result_limit=max(selected, 1))
            with_synonyms = search_after_masking(query, bundle.ibag, bundle.patterns)
            without = search_after_masking(query, bundle.ibag, bundle.patterns, use_synonyms=False)
            assert set(without.results) <= set(with_synonyms.results), query
