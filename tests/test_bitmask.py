from __future__ import annotations

import random
from dataclasses import replace

import pytest

from ibagsearch import (
    BitPattern,
    ValidationError,
    build_ibag,
    build_rpag,
    find_predicted_webpage_list,
    gen_ibag_bit_patterns,
    gen_mask_bit_pattern,
    gen_webpage_bit_pattern,
    mask_match,
    select_by_range,
    synth_corpus,
    xor_patterns,
)
from ibagsearch.bitmask import _to_hex
from conftest import flat_ontology, make_corpus

SEVEN = flat_ontology([f"term{i}" for i in range(7)], term_limit=0.5)


class TestWebpageBitPattern:
    def test_positions_two_and_five_one_based(self):
        vector = [0.0, 0.9, 0.0, 0.0, 0.7, 0.0, 0.0]
        pattern = gen_webpage_bit_pattern(vector, SEVEN)
        assert pattern.to_string() == "0100100"
        assert pattern.positions() == (1, 4)

    def test_all_zero_vector(self):
        pattern = gen_webpage_bit_pattern([0.0] * 7, SEVEN)
        assert pattern.to_string() == "0000000"

    def test_value_equal_to_limit_leaves_bit_unset(self):
        vector = [0.5] * 7
        assert gen_webpage_bit_pattern(vector, SEVEN).bits == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            gen_webpage_bit_pattern([1.0] * 6, SEVEN)

    def test_hex_rendering_msb_first(self):
        vector = [0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        pattern = gen_webpage_bit_pattern(vector, SEVEN)
        assert pattern.to_string() == "1000000"
        assert _to_hex(pattern.bits, pattern.length) == "40"


class TestMaskBitPattern:
    def test_single_term_at_position_two(self):
        mask = gen_mask_bit_pattern("all about term1 here", SEVEN)
        assert mask.to_string() == "0100000"

    def test_no_terms_present(self):
        mask = gen_mask_bit_pattern("nothing relevant at all", SEVEN)
        assert mask.bits == 0

    def test_synonym_sets_the_terms_bit(self, cricket):
        mask = gen_mask_bit_pattern("the judge decided", cricket)
        assert mask.positions() == (2,)  # umpire

    def test_synonyms_can_be_disabled(self, cricket):
        mask = gen_mask_bit_pattern("the judge decided", cricket, use_synonyms=False)
        assert mask.bits == 0

    def test_multi_word_term_detected(self, cricket):
        mask = gen_mask_bit_pattern("Wicket keeper highlights", cricket)
        assert mask.positions() == (1,)


class TestBitPattern:
    def test_bit_reads_positions_msb_first(self):
        pattern = BitPattern(bits=0b1100100, length=7, ontology_id=1)
        assert [pattern.bit(p) for p in range(7)] == [1, 1, 0, 0, 1, 0, 0]

    @pytest.mark.parametrize("position", [-1, 7])
    def test_bit_outside_the_pattern_rejected(self, position):
        pattern = BitPattern(bits=0b1111111, length=7, ontology_id=1)
        with pytest.raises(ValueError, match=rf"^bit position {position} outside \[0, 7\)$"):
            pattern.bit(position)


class TestXor:
    def test_worked_example(self):
        page = gen_webpage_bit_pattern([0.0, 0.9, 0.0, 0.0, 0.7, 0.0, 0.0], SEVEN)
        mask = gen_mask_bit_pattern("term1", SEVEN)
        result = xor_patterns(page, mask)
        assert result.to_string() == "0000100"
        assert result.bit(1) == 0

    def test_length_mismatch_rejected(self):
        page = gen_webpage_bit_pattern([0.0, 0.9, 0.0, 0.0, 0.7, 0.0, 0.0], SEVEN)
        with pytest.raises(ValueError):
            xor_patterns(page, BitPattern(bits=0, length=5, ontology_id=1))

    def test_match_equivalent_to_shared_set_bit(self):
        rng = random.Random(77)
        for _ in range(500):
            t = rng.randint(1, 10)
            alpha = rng.randrange(1 << t)
            beta = rng.randrange(1 << t)
            position_bits = [1 << (t - 1 - p) for p in range(t) if beta & (1 << (t - 1 - p))]
            assert mask_match(alpha, beta, position_bits) == ((alpha & beta) != 0 and beta != 0)


class TestPatternStore:
    @pytest.fixture
    def built(self, bundled_onts):
        corpus = synth_corpus(3, 60, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        return ibag, gen_ibag_bit_patterns(ibag, bundled_onts)

    def test_one_pattern_per_page_ontology_pair(self, built):
        ibag, store = built
        assert len(store) == len(ibag) * 3

    def test_store_matches_recomputation(self, built, bundled_onts):
        ibag, store = built
        for ontology in bundled_onts:
            for node in ibag.nodes:
                fresh = gen_webpage_bit_pattern(
                    node.term_vectors[ontology.ontology_id], ontology, owner=node.p_id
                )
                assert store.bits_for_ontology(ontology.ontology_id)[node.p_id] == fresh.bits

    def test_empty_index_empty_store(self, bundled_onts):
        corpus = make_corpus([("a", [], "irrelevant")])
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        store = gen_ibag_bit_patterns(ibag, bundled_onts)
        assert len(store) == 0

    def test_ontology_listed_twice_rejected(self, built, bundled_onts):
        ibag, _ = built
        listed_twice = r"pattern ontologies \(ids \[1, 1\]\) differ from the index's \[1, 2, 3\]"
        with pytest.raises(ValidationError, match=listed_twice):
            gen_ibag_bit_patterns(ibag, [bundled_onts[0], bundled_onts[0]])

    @pytest.mark.parametrize(
        "others",
        [
            lambda onts: [
                replace(
                    onts[0],
                    terms=tuple(
                        replace(term, term_relevance_limit=term.term_relevance_limit + 1.0)
                        for term in onts[0].terms
                    ),
                ),
                *onts[1:],
            ],
            lambda onts: [*onts, replace(onts[0], ontology_id=9)],
            lambda onts: onts[:2],
            lambda onts: onts[::-1],
        ],
        ids=["same-id-other-limits", "unknown-id", "subset", "other-order"],
    )
    def test_ontologies_other_than_the_index_own_rejected(self, built, bundled_onts, others):
        ibag, _ = built
        with pytest.raises(ValidationError, match=r"pattern ontologies \(ids .*\) differ"):
            gen_ibag_bit_patterns(ibag, others(bundled_onts))


class TestFindPredicted:
    @pytest.fixture
    def ranged(self, bundled_onts):
        corpus = synth_corpus(19, 120, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        store = gen_ibag_bit_patterns(ibag, bundled_onts)
        ontology = bundled_onts[0]
        selected, _ = select_by_range(ibag, (0.0, float("inf")), ontology.ontology_id)
        return ibag, store, ontology, selected

    def test_worked_example_page_included(self):
        corpus = make_corpus([("p", [], "term1 and term4 appear")])
        ibag = build_ibag(build_rpag(corpus, [SEVEN]))
        store = gen_ibag_bit_patterns(ibag, [SEVEN])
        assert BitPattern(store.bits_for_ontology(1)[0], SEVEN.t, 1).to_string() == "0100100"
        mask = gen_mask_bit_pattern("term1", SEVEN)
        assert mask.to_string() == "0100000"
        predicted = find_predicted_webpage_list(ibag.nodes, store, mask, SEVEN, 10)
        assert [n.url for n in predicted] == ["p"]

    def test_zero_pattern_page_excluded(self, ranged):
        ibag, store, ontology, selected = ranged
        mask = gen_mask_bit_pattern("cricket", ontology)
        predicted = find_predicted_webpage_list(selected, store, mask, ontology, 1000)
        for node in predicted:
            assert store.bits_for_ontology(ontology.ontology_id)[node.p_id] & mask.bits

    def test_all_zero_mask_selects_nothing(self, ranged):
        _, store, ontology, selected = ranged
        mask = gen_mask_bit_pattern("zzz qqq", ontology)
        assert mask.bits == 0
        assert find_predicted_webpage_list(selected, store, mask, ontology, 10) == []

    def test_matches_and_oracle_with_truncation(self, ranged):
        ibag, store, ontology, selected = ranged
        rng = random.Random(5)
        searches = ["cricket", "umpire match", "wicket keeper contest", "bat", "referee"]
        for search in searches:
            for limit in (1, 3, 10, 10_000):
                mask = gen_mask_bit_pattern(search, ontology)
                predicted = find_predicted_webpage_list(selected, store, mask, ontology, limit)
                page_bits = store.bits_for_ontology(ontology.ontology_id)
                expected = [n for n in selected if page_bits[n.p_id] & mask.bits][:limit]
                assert [n.p_id for n in predicted] == [n.p_id for n in expected]

    def test_subset_order_and_limit(self, ranged):
        _, store, ontology, selected = ranged
        mask = gen_mask_bit_pattern("cricket match", ontology)
        predicted = find_predicted_webpage_list(selected, store, mask, ontology, 7)
        assert len(predicted) <= 7
        positions = [selected.index(node) for node in predicted]
        assert positions == sorted(positions)

    def test_result_limit_validated(self, ranged):
        _, store, ontology, selected = ranged
        mask = gen_mask_bit_pattern("cricket", ontology)
        with pytest.raises(ValueError, match="result_limit"):
            find_predicted_webpage_list(selected, store, mask, ontology, 0)

    def test_foreign_mask_rejected(self, ranged):
        _, store, ontology, selected = ranged
        with pytest.raises(ValueError, match="mask"):
            find_predicted_webpage_list(
                selected, store, BitPattern(bits=1, length=9, ontology_id=4), ontology, 5
            )
