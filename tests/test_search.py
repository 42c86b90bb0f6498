from __future__ import annotations

import dataclasses
import math
import random

import pytest

from ibagsearch import (
    Query,
    SearchOutcome,
    build_ibag,
    build_rpag,
    find_predicted_webpage_list,
    gen_ibag_bit_patterns,
    gen_mask_bit_pattern,
    parse_relevance_range,
    search_after_masking,
    search_before_masking,
    select_by_range,
    select_columns,
    synth_corpus,
)
from ibagsearch.search import AFTER_MASKING, BEFORE_MASKING
from conftest import flat_ontology, make_corpus
from oracles import oracle_predicted_urls


@pytest.fixture(scope="module")
def engine(bundled_onts):
    corpus = synth_corpus(23, 150, bundled_onts)
    ibag = build_ibag(build_rpag(corpus, bundled_onts))
    patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
    return ibag, patterns


class TestQueryValidation:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            Query("x", 1, relevance_range=(2.0, 1.0))

    @pytest.mark.parametrize("bounds", [(math.nan, math.nan), (math.nan, 1.0), (0.0, math.nan)])
    def test_nan_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="NaN"):
            Query("x", 1, relevance_range=bounds)

    def test_zero_limit_rejected(self):
        with pytest.raises(ValueError):
            Query("x", 1, result_limit=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("result_limit", 2.5),
            ("result_limit", 3.0),
            ("result_limit", "3"),
            ("result_limit", True),
            ("result_limit", None),
            ("ontology_id", 1.0),
            ("ontology_id", "1"),
            ("ontology_id", True),
        ],
    )
    def test_non_int_limit_or_ontology_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            Query("cricket", **{"ontology_id": 1, field: value})

    @pytest.mark.parametrize("search_string", [None, 5, b"cricket", ["cricket"]])
    def test_non_str_search_string_rejected(self, search_string):
        with pytest.raises(ValueError, match="search_string must be a str"):
            Query(search_string, 1)

    @pytest.mark.parametrize(
        "bounds", [(None, 1.0), (0, "1"), (True, 2), (0.0, False), (0, 1j), ("0", "1")]
    )
    def test_non_real_range_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match="not a real number"):
            Query("cricket", 1, relevance_range=bounds)

    def test_defaults(self):
        query = Query("cricket", 1)
        assert query.relevance_range == (0.0, math.inf)
        assert query.result_limit == 20


class TestParseRange:
    def test_plain(self):
        assert parse_relevance_range("0.5:2") == (0.5, 2.0)

    def test_inf_upper_bound(self):
        assert parse_relevance_range("0:inf") == (0.0, math.inf)

    @pytest.mark.parametrize("text", ["1", "a:b", "1:2:3"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_relevance_range(text)


class TestBeforeMasking:
    def test_limit_truncates(self, engine):
        ibag, _ = engine
        outcome = search_before_masking(Query("anything", 1, result_limit=20), ibag)
        assert len(outcome.results) == 20
        assert outcome.selected_count >= 20

    def test_empty_selection(self, engine):
        ibag, _ = engine
        _, top = ibag.mean_value_bounds()
        query = Query("anything", 1, relevance_range=(top + 1, top + 2))
        outcome = search_before_masking(query, ibag)
        assert outcome.results == ()
        assert outcome.selected_count == 0

    def test_first_k_of_selection(self, engine):
        ibag, _ = engine
        query = Query("anything", 1, relevance_range=(1.2, 3.0), result_limit=5)
        outcome = search_before_masking(query, ibag)
        selected, _ = select_by_range(ibag, (1.2, 3.0), 1)
        assert list(outcome.results) == [(n.url, n.mean_rel_val) for n in selected[:5]]

    def test_unknown_ontology_rejected(self, engine):
        ibag, _ = engine
        with pytest.raises(ValueError, match="unknown ontology"):
            search_before_masking(Query("x", 42), ibag)


class TestAfterMasking:
    def test_worked_scenario_page_included(self):
        seven = flat_ontology([f"term{i}" for i in range(7)], term_limit=0.5)
        corpus = make_corpus(
            [
                ("home", ["p", "q"], "term0 intro"),
                ("p", [], "term1 body with term4 too"),
                ("q", [], "term3 only"),
            ]
        )
        ibag = build_ibag(build_rpag(corpus, [seven]))
        patterns = gen_ibag_bit_patterns(ibag, [seven])
        outcome = search_after_masking(Query("term1", 1), ibag, patterns)
        assert [url for url, _ in outcome.results] == ["p"]

    def test_no_matching_terms_gives_empty_results(self, engine):
        ibag, patterns = engine
        query = Query("zz yy xx", 1)
        after = search_after_masking(query, ibag, patterns)
        before = search_before_masking(query, ibag)
        assert after.results == ()
        assert after.selected_count == before.selected_count

    def test_results_subset_of_selection_in_order(self, engine):
        ibag, patterns = engine
        query = Query("cricket umpire", 1, result_limit=30)
        after = search_after_masking(query, ibag, patterns)
        selected, _ = select_by_range(ibag, query.relevance_range, 1)
        urls = [n.url for n in selected]
        positions = [urls.index(url) for url, _ in after.results]
        assert positions == sorted(positions)

    def test_matches_end_to_end_oracle(self, engine, bundled_onts):
        ibag, patterns = engine
        ontology = bundled_onts[0]
        for search in ("cricket", "wicket keeper contest", "judge", "bat match"):
            for lo, hi, k in ((0.0, math.inf, 10), (1.3, 2.5, 4), (2.0, 2.0, 3)):
                query = Query(search, 1, relevance_range=(lo, hi), result_limit=k)
                outcome = search_after_masking(query, ibag, patterns)
                expected = oracle_predicted_urls(ibag, ontology, search, lo, hi, k)
                assert [url for url, _ in outcome.results] == expected

    def test_synonym_toggle_changes_mask(self, engine):
        ibag, patterns = engine
        query = Query("judge", 1, result_limit=10)
        with_synonyms = search_after_masking(query, ibag, patterns, use_synonyms=True)
        without = search_after_masking(query, ibag, patterns, use_synonyms=False)
        assert without.results == ()
        assert len(with_synonyms.results) > 0

    def test_deterministic_across_runs(self, engine):
        ibag, patterns = engine
        query = Query("cricket match", 1, result_limit=15)
        first = search_after_masking(query, ibag, patterns)
        second = search_after_masking(query, ibag, patterns)
        assert first.results == second.results
        assert first.visited_count == second.visited_count

    def test_after_count_never_exceeds_before_at_same_limit(self, engine):
        ibag, patterns = engine
        for search in ("cricket", "match", "umpire bat"):
            for k in (1, 5, 50):
                query = Query(search, 1, result_limit=k)
                before = search_before_masking(query, ibag)
                after = search_after_masking(query, ibag, patterns)
                assert len(after.results) <= len(before.results)
                assert len(after.results) <= min(k, after.selected_count)


def test_both_modes_answer_with_a_named_tuple(engine):
    """An outcome is a named tuple, built without a dataclass's costs; a
    revert to the frozen dataclass fails here."""
    ibag, patterns = engine
    query = Query("cricket", 1, result_limit=5)
    outcomes = (search_before_masking(query, ibag), search_after_masking(query, ibag, patterns))
    assert [type(outcome) for outcome in outcomes] == [SearchOutcome, SearchOutcome]
    assert [outcome.mode for outcome in outcomes] == [BEFORE_MASKING, AFTER_MASKING]
    assert SearchOutcome._fields == (
        "mode", "results", "selected_count", "visited_count", "elapsed",
    )
    assert not dataclasses.is_dataclass(SearchOutcome)


def reference_outcomes(query, ibag, patterns, use_synonyms):
    """Both modes answered through the chain walk and the XOR filter."""
    ontology = ibag.ontology_by_id(query.ontology_id)
    selected, visited = select_by_range(ibag, query.relevance_range, query.ontology_id)
    mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms=use_synonyms)
    after = find_predicted_webpage_list(selected, patterns, mask, ontology, query.result_limit)
    return [
        SearchOutcome(
            mode=mode,
            results=tuple((node.url, node.mean_rel_val) for node in chosen),
            selected_count=len(selected),
            visited_count=visited,
            elapsed=0.0,
        )
        for mode, chosen in ((BEFORE_MASKING, selected[: query.result_limit]), (AFTER_MASKING, after))
    ]


def probe_ranges(ibag, ontology_id, rng):
    """Closed ranges that hit every bisection edge, plus random ones."""
    means = sorted({node.mean_rel_val for node in ibag.nodes})
    low, top = means[0], means[-1]
    tied = [
        ibag.nodes[a].mean_rel_val
        for level in ibag.levels
        for a, b in zip(level, level[1:])
        if ibag.nodes[a].mean_rel_val == ibag.nodes[b].mean_rel_val
        and ibag.nodes[a].supported[ontology_id]
        and ibag.nodes[b].supported[ontology_id]
    ]
    ranges = [
        (0.0, math.inf),
        (-math.inf, math.inf),
        (low, top),
        (top + 1.0, top + 2.0),  # above the largest mean
        (0.0, low / 2),  # below the smallest mean
        (top, top),
        (low, low),
    ]
    ranges += [(value, value) for value in rng.sample(means, min(4, len(means)))]
    ranges += [(value, value) for value in tied[:3]]  # ties at both bounds
    for _ in range(8):
        a, b = rng.choice(means), rng.choice(means)
        ranges.append((min(a, b), max(a, b)))
        a, b = rng.uniform(0.0, top * 1.1), rng.uniform(0.0, top * 1.1)
        ranges.append((min(a, b), max(a, b)))
    return ranges, bool(tied)


def test_column_selection_matches_the_chain_walk(bundled_onts):
    """The column paths give the reference's outcome, elapsed aside, on
    seeded corpora, every ontology, both mask settings and random ranges."""
    rng = random.Random(5150)
    fillers = ("best", "today", "zzz")
    seen_ties = seen_empty_level = seen_k_beyond = False
    compared = 0
    for seed in range(10):
        corpus = synth_corpus(seed, (30, 60, 100, 150, 220)[seed % 5], bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
        for ontology in bundled_onts:
            ont_id = ontology.ontology_id
            seen_empty_level |= any(
                heads[ont_id] is None for heads in ibag.level_heads
            ) and any(heads[ont_id] is not None for heads in ibag.level_heads)
            ranges, tied = probe_ranges(ibag, ont_id, rng)
            seen_ties |= tied
            two_terms = [rng.choice(t.phrases()) for t in rng.sample(ontology.terms, 2)]
            searches = (
                rng.choice(rng.choice(ontology.terms).phrases()),
                " ".join([*two_terms, rng.choice(fillers)]),
                "zz yy xx",  # no term: an all-zero mask
            )
            for lo, hi in ranges:
                selected, visited = select_by_range(ibag, (lo, hi), ont_id)
                slices, selected_count, visited_count = select_columns(
                    ibag, Query("", ont_id, relevance_range=(lo, hi))
                )
                assert [ibag.nodes[p] for p_ids, a, b in slices for p in p_ids[a:b]] == selected
                assert all(a < b for _, a, b in slices)  # no slice for a level that selects none
                assert (selected_count, visited_count) == (len(selected), visited)
                for k in (1, 7, len(ibag) + 1):
                    seen_k_beyond |= k > len(selected) > 0
                    for search in searches:
                        query = Query(search, ont_id, relevance_range=(lo, hi), result_limit=k)
                        for use_synonyms in (True, False):
                            fast = [
                                search_before_masking(query, ibag),
                                search_after_masking(query, ibag, patterns, use_synonyms),
                            ]
                            fast = [outcome._replace(elapsed=0.0) for outcome in fast]
                            assert fast == reference_outcomes(query, ibag, patterns, use_synonyms), (
                                seed, ont_id, lo, hi, k, search, use_synonyms,
                            )
                            compared += 1
    assert seen_ties and seen_empty_level and seen_k_beyond
    assert compared > 5000
