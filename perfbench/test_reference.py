"""Tests of the benchmark's independent reference checker (``python3 -m pytest perfbench``)."""
from __future__ import annotations

import json
from pathlib import Path

from reference import (
    RefOntology,
    RefTerm,
    answer,
    build_reference,
    harvest_rates,
    chain_walk_visits,
    count_phrase,
    mask_bits,
    positions_index,
    read_ontology,
    tokenize,
    xor_keeps,
)


def test_tokenize_strips_markup_case_and_punctuation():
    assert tokenize("<p>Wicket-Keeper, <a href='x'>UMPIRE</a> 20/20</p>") == [
        "wicket", "keeper", "umpire", "20", "20",
    ]
    assert tokenize("a < b > c") == ["a", "c"]
    assert tokenize("a < b") == ["a", "b"]
    assert tokenize("café naïve") == ["caf", "na", "ve"]


def count(text: str, phrase: str) -> int:
    tokens = tokenize(text)
    return count_phrase(tokens, positions_index(tokens), tuple(phrase.split()))


def test_phrase_count_is_greedy_and_non_overlapping():
    assert count("wicket wicket keeper", "wicket keeper") == 1
    assert count("a a a", "a a") == 1
    assert count("a a a a", "a a") == 2
    assert count("grand slam grand slam", "slam grand") == 1
    assert count("nothing here", "grand slam") == 0


def test_xor_filter_paper_worked_example():
    page, mask = 0b0100100, 0b0100000
    assert page ^ mask == 0b0000100
    assert xor_keeps(page, mask)
    assert not xor_keeps(0b0000100, mask)
    assert not xor_keeps(page, 0)


def test_visited_counts_supporters_at_or_above_lo_plus_one_per_level_below():
    levels = {0: [5.0, 4.0, 3.0, 1.0], 1: [2.0, 0.5], 2: [9.0]}
    assert chain_walk_visits(levels, 2.5) == (3 + 1) + (0 + 1) + (1 + 0)
    assert chain_walk_visits(levels, 0.0) == 7
    assert chain_walk_visits(levels, 10.0) == 1 + 1 + 1


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def tiny_ontology(tmp_path: Path) -> RefOntology:
    weights = write(tmp_path / "w.tsv", "# term\tweight\ncricket\t0.9\nwicket keeper\t0.8\nmatch\t0.1\n")
    syntable = write(tmp_path / "s.tsv", "match\tcompetition,contest\n")
    limits = write(tmp_path / "l.cfg", "relevance_limit=1.0\nterm_relevance_limit.default=0.0\n"
                                       "term_relevance_limit.cricket=0.95\n")
    return read_ontology(1, weights, syntable, limits)


def test_read_ontology_applies_synonyms_and_limits(tmp_path):
    ont = tiny_ontology(tmp_path)
    assert [t.term for t in ont.terms] == ["cricket", "wicket keeper", "match"]
    assert ont.terms[2] == RefTerm("match", 0.1, (("match",), ("competition",), ("contest",)), 0.0)
    assert [t.limit for t in ont.terms] == [0.95, 0.0, 0.0]


def test_crawl_keeps_supporters_with_first_parent_and_skips_dangling_links(tmp_path):
    records = [
        ("home", ["plain", "gone"], "cricket cricket"),
        ("plain", ["news", "deep"], "nothing relevant"),
        ("news", ["deep"], "wicket keeper wicket keeper contest"),
        ("deep", [], "cricket match competition"),
        ("island", ["home"], "cricket cricket cricket"),
    ]
    corpus = write(tmp_path / "c.jsonl", "".join(
        json.dumps({"url": u, "links": l, "text": t}) + "\n" for u, l, t in records
    ))
    ref = build_reference(corpus, (tiny_ontology(tmp_path),))
    assert [(n.url, n.pp_id, n.level) for n in ref.nodes] == [
        ("home", None, 0), ("news", None, 0), ("deep", 1, 1),
    ]
    assert (ref.docs_total, ref.docs_crawled, ref.dangling_links) == (5, 4, 1)
    assert ref.nodes[1].vectors == [[0.0, 1.6, 0.1]]
    assert ref.nodes[1].mean == 1.7000000000000002
    # cricket scores 0.9 on "deep", which does not beat its 0.95 limit
    assert ref.nodes[2].bits == [0b001]
    assert ref.nodes[0].bits == [0b100]


def test_answer_orders_by_level_then_mean_and_truncates(tmp_path):
    records = [
        ("a", ["b", "c", "d"], "cricket cricket"),
        ("b", [], "cricket cricket cricket match"),
        ("c", [], "wicket keeper wicket keeper"),
        ("d", [], "match match"),
    ]
    corpus = write(tmp_path / "c.jsonl", "".join(
        json.dumps({"url": u, "links": l, "text": t}) + "\n" for u, l, t in records
    ))
    ont = tiny_ontology(tmp_path)
    ref = build_reference(corpus, (ont,))
    assert [n.url for n in ref.chains[1]] == ["a", "b", "c"]
    got = answer(ref, {"search": "wicket keeper", "ontology_id": 1, "lo": 0.0, "hi": None, "k": 2})
    assert got.before == ["a", "b"]
    assert got.after == ["c"]
    assert (got.selected, got.visited, got.tested) == (3, 3, 3)
    hr_before, hr_after = harvest_rates(got, 2)
    assert hr_before == 0.0 and abs(hr_after - 3.0) < 1e-12
    narrow = answer(ref, {"search": "cricket", "ontology_id": 1, "lo": 2.0, "hi": 2.5, "k": 5})
    assert narrow.before == []
    assert (narrow.selected, narrow.visited) == (0, 1 + 1 + 1)
    assert mask_bits(ont, "Cricket CONTEST") == 0b101
