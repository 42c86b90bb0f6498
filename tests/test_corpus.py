from __future__ import annotations

import gc
import json

import pytest

from ibagsearch import (
    CorpusDoc,
    ParseError,
    ValidationError,
    load_corpus,
    normalize_text,
    page_relevance,
    synth_corpus,
)
from oracles import oracle_page_vector, oracle_tokens


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def records(corpus):
    """The corpus's documents as the records of a corpus file."""
    return [
        {"url": url, "links": list(doc.out_links), "text": doc.text}
        for url, doc in corpus.docs.items()
    ]


class TestLoadCorpus:
    def test_single_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"url": "a", "links": ["b"], "text": "cricket"}])
        corpus = load_corpus(path, ["a"])
        assert len(corpus) == 1
        assert corpus.docs["a"].out_links == ("b",)

    def test_duplicate_url_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"url": "a", "links": [], "text": "x"},
                {"url": "a", "links": [], "text": "y"},
            ],
        )
        with pytest.raises(ValidationError, match="duplicate url"):
            load_corpus(path, ["a"])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"url": "a", "links": [], "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_corpus(path, ["a"])

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"url": "a", "text": "x"}])
        with pytest.raises(ParseError, match="links"):
            load_corpus(path, ["a"])

    def test_unknown_seed_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"url": "a", "links": [], "text": "x"}])
        with pytest.raises(ValidationError, match="seed"):
            load_corpus(path, ["missing"])

    def test_seeds_default_to_first_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"url": "first", "links": [], "text": "x"},
                {"url": "second", "links": [], "text": "y"},
            ],
        )
        assert load_corpus(path).seeds == ("first",)

    def test_each_url_is_one_object(self, tmp_path):
        """The docs key, the document's url, every link naming the url and
        the seed naming it are one string, whichever names it first."""
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"url": "http://a.example/", "links": ["http://b.example/"], "text": "x"},
                {"url": "http://c.example/", "links": ["http://b.example/"] * 2, "text": "y"},
                {"url": "http://b.example/", "links": ["http://a.example/"], "text": "z"},
            ],
        )
        seed = "".join(["http://b.example", "/"])  # equal, not the same object
        corpus = load_corpus(path, [seed, "http://a.example/"])
        mentions: dict[str, list[str]] = {url: [] for url in corpus.docs}
        for key, doc in corpus.docs.items():
            mentions[key].append(key)
            for link in doc.out_links:
                mentions[link].append(link)
        for seed in corpus.seeds:
            mentions[seed].append(seed)
        assert {url: len(named) for url, named in mentions.items()} == {
            "http://a.example/": 3, "http://b.example/": 5, "http://c.example/": 1
        }
        for url, named in mentions.items():
            assert all(other is named[0] for other in named), url

    def test_document_has_no_instance_dict(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"url": "a", "links": ["b"], "text": "x"}])
        doc = load_corpus(path).docs["a"]
        assert not hasattr(doc, "__dict__")
        assert (doc.out_links, doc.text) == (("b",), "x")
        assert doc == CorpusDoc(out_links=("b",), text="x")

    def test_url_that_is_not_unicode_rejected(self, tmp_path):
        """A lone surrogate, which JSON can escape but UTF-8 cannot encode,
        is rejected as the corpus is read, naming its line; such a link
        or text is left as it is, since no index holds them."""
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                {"url": "a", "links": ["b\ud800"], "text": "x\udfff"},
                {"url": "b\ud800", "links": [], "text": "y"},
            ],
        )
        with pytest.raises(ParseError, match=r":2: 'url' is not valid Unicode$"):
            load_corpus(path)
        write_jsonl(path, [{"url": "a", "links": ["b\ud800"], "text": "x\udfff"}])
        assert load_corpus(path).docs["a"].out_links == ("b\ud800",)

    def test_five_thousand_records(self, tmp_path, bundled_onts):
        corpus = synth_corpus(3, 5000, bundled_onts)
        path = tmp_path / "big.jsonl"
        write_jsonl(path, records(corpus))
        loaded = load_corpus(path, corpus.seeds)
        assert len(loaded) == 5000

    def test_save_load_round_trip(self, tmp_path, bundled_onts):
        corpus = synth_corpus(9, 40, bundled_onts)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records(corpus))
        assert load_corpus(path, corpus.seeds) == corpus


class TestLoadCorpusCollector:
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [{"url": "a", "links": ["b"], "text": "x"}, {"url": "b", "links": [], "text": "y"}],
        )
        states: list[bool] = []
        real_loads = json.loads

        def recording_loads(*args, **kwargs):
            states.append(gc.isenabled())
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", recording_loads)
        assert gc.isenabled()
        assert len(load_corpus(path)) == 2
        assert gc.isenabled()
        assert states == [False, False]
        monkeypatch.undo()
        path.write_text('{"url": "a", "links": [], "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_corpus(path)
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(ParseError):
                load_corpus(path)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSynthCorpus:
    def test_deterministic(self, bundled_onts):
        first = synth_corpus(7, 10, bundled_onts)
        second = synth_corpus(7, 10, bundled_onts)
        assert first == second

    def test_different_seed_differs(self, bundled_onts):
        assert synth_corpus(7, 10, bundled_onts) != synth_corpus(8, 10, bundled_onts)

    def test_zero_term_frequency_means_zero_relevance(self, bundled_onts):
        corpus = synth_corpus(5, 30, ())  # no ontology phrase to embed
        for doc in corpus.docs.values():
            tokens = normalize_text(doc.text)
            for ontology in bundled_onts:
                assert page_relevance(ontology, tokens).relevance_value == 0.0

    def test_seed_is_first_doc(self, bundled_onts):
        corpus = synth_corpus(1, 5, bundled_onts)
        assert corpus.seeds == (next(iter(corpus.docs)),)

    def test_every_doc_reachable_from_seed(self, bundled_onts):
        corpus = synth_corpus(21, 60, bundled_onts)
        reached = set(corpus.seeds)
        frontier = list(corpus.seeds)
        while frontier:
            url = frontier.pop()
            for link in corpus.docs[url].out_links:
                if link in corpus.docs and link not in reached:
                    reached.add(link)
                    frontier.append(link)
        assert reached == set(corpus.docs)

    def test_rejects_empty(self, bundled_onts):
        with pytest.raises(ValueError):
            synth_corpus(1, 0, bundled_onts)

    @pytest.mark.parametrize("n_docs", [True, 10.5, "10"])
    def test_rejects_a_count_that_is_not_an_int(self, n_docs, bundled_onts):
        with pytest.raises(ValueError, match=f"n_docs must be an int, got {n_docs!r}"):
            synth_corpus(1, n_docs, bundled_onts)

    def test_scores_match_independent_recomputation(self, bundled_onts):
        corpus = synth_corpus(1, 1000, bundled_onts)
        nonzero = 0
        for doc in corpus.docs.values():
            tokens = normalize_text(doc.text)
            oracle_toks = oracle_tokens(doc.text)
            assert tokens == oracle_toks
            for ontology in bundled_onts:
                produced = page_relevance(ontology, tokens)
                expected = oracle_page_vector(ontology, oracle_toks)
                assert list(produced.term_vector) == pytest.approx(expected, abs=1e-12)
                if sum(expected) > 0:
                    nonzero += 1
        assert nonzero > 0
