from __future__ import annotations

import itertools
import random

import pytest

from ibagsearch import (
    Ontology,
    OntologyTerm,
    build_rpag,
    normalize_text,
    page_relevance,
    synth_corpus,
)
from ibagsearch.ontology import PhraseTable
from conftest import single_term_ontology
from oracles import oracle_count, oracle_term_value


@pytest.fixture
def cricket_terms(cricket):
    return {term.term: term for term in cricket.terms}


def term_value(ontology: Ontology, term: OntologyTerm, tokens: list[str]) -> float:
    """The term's entry in the page's term vector."""
    return page_relevance(ontology, tokens).term_vector[ontology.terms.index(term)]


class TestTermRelevanceValue:
    def test_weight_times_occurrences(self, cricket, cricket_terms):
        tokens = normalize_text("cricket is cricket")
        assert term_value(cricket, cricket_terms["cricket"], tokens) == pytest.approx(1.8)

    def test_synonyms_counted_with_term_weight(self, cricket, cricket_terms):
        tokens = normalize_text("a match and a competition")
        assert term_value(cricket, cricket_terms["match"], tokens) == pytest.approx(0.2)

    def test_empty_text(self, cricket, cricket_terms):
        for term in cricket_terms.values():
            assert term_value(cricket, term, []) == 0.0


class TestPageRelevance:
    def test_empty_text_unsupported(self, cricket):
        result = page_relevance(cricket, [])
        assert result.relevance_value == 0.0
        assert result.supported is False

    def test_single_term_supported(self):
        ontology = single_term_ontology("cricket", weight=0.9, relevance_limit=1.0)
        result = page_relevance(ontology, ["cricket", "cricket"])
        assert result.relevance_value == pytest.approx(1.8)
        assert result.supported is True

    def test_value_zeroed_when_below_limit(self):
        ontology = single_term_ontology("cricket", weight=0.9, relevance_limit=2.0)
        result = page_relevance(ontology, ["cricket", "cricket"])
        assert result.supported is False
        assert result.relevance_value == 0.0
        assert result.term_vector == pytest.approx((1.8,))

    def test_limit_equality_is_not_support(self):
        ontology = single_term_ontology("a", weight=1.0, relevance_limit=2.0)
        result = page_relevance(ontology, ["a", "a"])
        assert result.relevance_value == 2.0 * 0  # zeroed: 2.0 is not > 2.0
        assert result.supported is False

    def test_page_value_is_sum_of_term_values(self, cricket):
        rng = random.Random(3)
        words = ["cricket", "wicket", "keeper", "umpire", "bat", "match", "judge", "noise"]
        for _ in range(50):
            tokens = [rng.choice(words) for _ in range(rng.randint(0, 30))]
            result = page_relevance(cricket, tokens)
            per_term = [oracle_term_value(term, tokens) for term in cricket.terms]
            assert list(result.term_vector) == per_term
            raw_total = sum(per_term)
            if result.supported:
                assert result.relevance_value == raw_total
            else:
                assert raw_total <= cricket.relevance_limit

    def test_vector_indexed_by_bit_position(self, cricket):
        tokens = normalize_text("bat bat umpire")
        result = page_relevance(cricket, tokens)
        for position, term in enumerate(cricket.terms):
            expected = oracle_term_value(term, tokens)
            assert result.term_vector[position] == expected
        assert result.term_vector[3] == pytest.approx(0.4)  # bat, weight 0.2, twice
        assert result.term_vector[2] == pytest.approx(0.4)  # umpire, weight 0.4, once

    def test_concatenation_is_superadditive(self, cricket):
        rng = random.Random(31)
        words = ["cricket", "wicket", "keeper", "match", "noise"]
        for _ in range(50):
            first = [rng.choice(words) for _ in range(rng.randint(0, 12))]
            second = [rng.choice(words) for _ in range(rng.randint(0, 12))]
            whole = sum(page_relevance(cricket, first + second).term_vector)
            assert whole >= sum(page_relevance(cricket, first).term_vector) - 1e-12
            assert whole >= sum(page_relevance(cricket, second).term_vector) - 1e-12

    def test_concatenation_exact_when_no_boundary_match(self, cricket):
        first = normalize_text("cricket match today")
        second = normalize_text("umpire and bat")
        combined = page_relevance(cricket, first + second)
        parts = [page_relevance(cricket, first), page_relevance(cricket, second)]
        for position in range(cricket.t):
            assert combined.term_vector[position] == pytest.approx(
                parts[0].term_vector[position] + parts[1].term_vector[position]
            )

    def test_weight_scaling(self):
        base = Ontology(
            ontology_id=1,
            name="base",
            terms=(
                OntologyTerm(term="alpha", weight=0.5),
                OntologyTerm(term="beta", weight=0.25, synonyms=("gamma",)),
            ),
            relevance_limit=0.5,
        )
        scale = 1.5
        scaled = Ontology(
            ontology_id=1,
            name="scaled",
            terms=tuple(
                OntologyTerm(
                    term=t.term,
                    weight=t.weight * scale,
                    synonyms=t.synonyms,
                )
                for t in base.terms
            ),
            relevance_limit=base.relevance_limit * scale,
        )
        tokens = normalize_text("alpha beta gamma alpha")
        base_result = page_relevance(base, tokens)
        scaled_result = page_relevance(scaled, tokens)
        for b, s in zip(base_result.term_vector, scaled_result.term_vector):
            assert s == pytest.approx(b * scale)
        assert base_result.supported == scaled_result.supported


VOCAB = ["a", "b", "c", "d"]


def random_phrase(rng: random.Random) -> str:
    return " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3)))


def overlapping_ontologies(rng: random.Random) -> list[Ontology]:
    """Two to four ontologies over one small vocabulary that draw term names
    and synonyms from one shared pool of phrases, so that they share first
    words and whole phrases, and a phrase is often one ontology's term and
    another's synonym."""
    pool = list(dict.fromkeys(random_phrase(rng) for _ in range(6)))

    def pick() -> str:
        return rng.choice(pool) if rng.random() < 0.6 else random_phrase(rng)

    ontologies = []
    for ontology_id in range(1, rng.randint(2, 4) + 1):
        names = list(dict.fromkeys(pick() for _ in range(rng.randint(1, 4))))
        owner: dict[str, str] = {}
        terms = []
        for name in names:
            synonyms: list[str] = []
            for _ in range(rng.randint(0, 2)):
                syn = pick()
                if syn != name and syn not in synonyms and syn not in owner:
                    owner[syn] = name
                    synonyms.append(syn)
            terms.append(
                OntologyTerm(
                    term=name,
                    weight=rng.choice([0.1, 0.3, 0.7, 1.0]),
                    synonyms=tuple(synonyms),
                )
            )
        ontologies.append(
            Ontology(
                ontology_id=ontology_id,
                name=f"random-{ontology_id}",
                terms=tuple(terms),
                relevance_limit=rng.choice([0.0, 0.5, 1.5]),
            )
        )
    return ontologies


def reference_counts(ontology: Ontology, tokens: list[str]) -> list[int]:
    """Per term, the per-phrase reference count of the term and its synonyms."""
    return [
        sum(oracle_count(tokens, phrase) for phrase in term.phrases())
        for term in ontology.terms
    ]


def alignments(tokens: list[str], phrase: str) -> int:
    """Every place the phrase occurs, overlapping occurrences included."""
    words = phrase.split(" ")
    return sum(tokens[i : i + len(words)] == words for i in range(len(tokens)))


class TestMergedScan:
    def test_merged_counts_agree_with_each_ontology(self):
        """One scan through the merged table, sliced per ontology, counts as
        each ontology's own phrase table and the per-phrase reference do,
        and a page scored from a slice scores as ``page_relevance`` does
        from the tokens, float for float."""
        rng = random.Random(29)
        seen = {
            "first word in two ontologies": 0,
            "phrase in two ontologies": 0,
            "term in one, synonym in another": 0,
            "overlapping occurrences": 0,
        }
        for _ in range(200):
            ontologies = overlapping_ontologies(rng)
            firsts = [{p.split(" ")[0] for t in o.terms for p in t.phrases()} for o in ontologies]
            phrases = [{p for t in o.terms for p in t.phrases()} for o in ontologies]
            names = [{t.term for t in o.terms} for o in ontologies]
            synonyms = [{s for t in o.terms for s in t.synonyms} for o in ontologies]
            pairs = list(itertools.permutations(range(len(ontologies)), 2))
            seen["first word in two ontologies"] += any(firsts[i] & firsts[j] for i, j in pairs)
            seen["phrase in two ontologies"] += any(phrases[i] & phrases[j] for i, j in pairs)
            seen["term in one, synonym in another"] += any(
                names[i] & synonyms[j] for i, j in pairs
            )
            merged = PhraseTable.merge([o.phrase_table for o in ontologies])
            assert merged.width == sum(o.t for o in ontologies)
            assert not hasattr(merged, "presence")  # only query masks read it
            for _ in range(6):
                tokens = [rng.choice(VOCAB) for _ in range(rng.randint(0, 20))]
                seen["overlapping occurrences"] += any(
                    oracle_count(tokens, p) < alignments(tokens, p) for p in set().union(*phrases)
                )
                counts = merged.count(tokens)
                pieces = merged.split(counts)
                assert len(pieces) == len(ontologies)
                start = 0
                for ontology, piece in zip(ontologies, pieces):
                    assert piece == counts[start : start + ontology.t]
                    start += ontology.t
                    assert piece == ontology.phrase_table.count(tokens)
                    assert piece == reference_counts(ontology, tokens)
                    assert page_relevance(ontology, tokens, piece) == (
                        page_relevance(ontology, tokens)
                    )
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(6))
    def test_crawl_scores_each_page_as_page_relevance_does(self, seed, bundled_onts):
        """Every node a crawl keeps holds, per ontology, what
        ``page_relevance`` gives for the page's tokens."""
        rng = random.Random(seed)
        ontologies = bundled_onts if seed % 2 else overlapping_ontologies(rng)
        corpus = synth_corpus(seed, 120, ontologies)
        graph = build_rpag(corpus, ontologies)
        assert len(graph) > 0
        for node in graph.nodes:
            tokens = normalize_text(corpus.docs[node.url].text)
            for ontology in ontologies:
                assert node.relevance[ontology.ontology_id] == page_relevance(ontology, tokens)
