from __future__ import annotations

import json
import math
import random
import re

import pytest

from ibagsearch import (
    Corpus,
    CorpusDoc,
    IndexBundle,
    Ontology,
    OntologyTerm,
    ParseError,
    Query,
    ValidationError,
    gen_mask_bit_pattern,
    load_limits,
    load_ontology,
    normalize_phrase,
    normalize_text,
    page_relevance,
)
from conftest import flat_ontology, make_corpus, sealed, single_term_ontology
from oracles import oracle_count, oracle_mask_positions, oracle_term_value, oracle_tokens


class TestNormalizeText:
    def test_punctuation_separates(self):
        assert normalize_text("Wicket-Keeper!") == ["wicket", "keeper"]

    def test_empty_input(self):
        assert normalize_text("") == []

    def test_tags_stripped(self):
        assert normalize_text("<b>Cricket</b> match") == ["cricket", "match"]

    def test_tags_act_as_separators(self):
        assert normalize_text("one<br/>two") == ["one", "two"]

    def test_digits_kept(self):
        assert normalize_text("ICC world cup 2011") == ["icc", "world", "cup", "2011"]

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            raw = " ".join(
                rng.choice(["Cricket!", "<i>bat</i>", "a-b", "Ump;ire", "42", ""])
                for _ in range(rng.randint(0, 6))
            )
            once = normalize_text(raw)
            assert normalize_text(" ".join(once)) == once

    def test_normalize_phrase(self):
        assert normalize_phrase("  Wicket   KEEPER ") == "wicket keeper"


def count_occurrences(tokens: list[str], phrase: str) -> int:
    """``phrase``'s count in ``tokens``, as a page scan counts it: through
    the phrase table of an ontology whose one term is ``phrase``."""
    return single_term_ontology(phrase).phrase_table.count(tokens)[0]


class TestCountOccurrences:
    def test_two_disjoint_matches(self):
        tokens = ["wicket", "keeper", "and", "wicket", "keeper"]
        assert count_occurrences(tokens, "wicket keeper") == 2

    def test_single_word(self):
        assert count_occurrences(["cricket"], "cricket") == 1

    def test_greedy_non_overlapping(self):
        assert count_occurrences(["wicket", "wicket", "keeper"], "wicket keeper") == 1

    def test_empty_inputs(self):
        assert count_occurrences([], "cricket") == 0

    def test_matches_brute_force_oracle(self):
        rng = random.Random(11)
        vocab = ["a", "b", "c"]
        for _ in range(300):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            phrase = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            assert count_occurrences(tokens, phrase) == oracle_count(tokens, phrase)

    def test_count_times_length_bounded_by_tokens(self):
        rng = random.Random(13)
        vocab = ["x", "y"]
        for _ in range(200):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
            phrase = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            count = count_occurrences(tokens, phrase)
            assert count * len(phrase.split()) <= len(tokens)

    def test_phrase_table_agrees_with_reference(self):
        """Page scoring and query masks, both served by the ontology's phrase
        table, agree with the per-phrase oracle on random small ontologies."""
        rng = random.Random(17)
        vocab = ["a", "b", "c", "d"]

        def phrase() -> str:
            return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))

        seen = {"shared first word": 0, "self-overlapping": 0, "synonym is a name": 0}
        for _ in range(150):
            names = list(dict.fromkeys(phrase() for _ in range(rng.randint(1, 4))))
            owner: dict[str, str] = {}
            terms = []
            for name in names:
                synonyms: list[str] = []
                for _ in range(rng.randint(0, 2)):
                    syn = rng.choice(names) if rng.random() < 0.3 else phrase()
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
            ontology = Ontology(
                ontology_id=1, name="random", terms=tuple(terms), relevance_limit=0.0
            )
            phrases = [p for term in terms for p in term.phrases()]
            firsts = [p.split(" ")[0] for p in set(phrases)]
            seen["shared first word"] += len(firsts) > len(set(firsts))
            seen["self-overlapping"] += any(
                len(set(p.split(" "))) == 1 and " " in p for p in phrases
            )
            seen["synonym is a name"] += bool(set(owner) & set(names))
            for _ in range(6):
                tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
                expected = [oracle_term_value(term, tokens) for term in terms]
                for toks in (tokens, tuple(tokens)):
                    assert list(page_relevance(ontology, toks).term_vector) == expected
                search = " ".join(tokens)
                for use_synonyms in (True, False):
                    mask = gen_mask_bit_pattern(search, ontology, use_synonyms=use_synonyms)
                    assert list(mask.positions()) == oracle_mask_positions(
                        ontology, search, use_synonyms
                    )
        assert all(seen.values()), seen


class TestLoadOntology:
    def test_weight_table_row(self, cricket):
        assert cricket.terms[0].term == "cricket"
        assert cricket.terms[0].weight == 0.9

    def test_syntable_row(self, cricket):
        umpire = cricket.terms[2]
        assert umpire.term == "umpire"
        assert set(umpire.synonyms) == {"judge", "moderator", "referee"}

    def test_terms_without_synonyms_get_empty_list(self, cricket):
        assert cricket.terms[0].synonyms == ()

    def test_bit_positions_follow_row_order(self, cricket):
        """The i-th row of the weight table sets mask bit i, bit 0 the most
        significant, with and without synonyms."""
        rows = ["cricket", "wicket keeper", "umpire", "bat", "match"]
        assert cricket.t == len(rows)
        for i, term in enumerate(rows):
            for use_synonyms in (True, False):
                mask = gen_mask_bit_pattern(term, cricket, use_synonyms)
                assert mask.bits == 1 << cricket.t - 1 - i

    def test_limits_applied(self, cricket):
        assert cricket.relevance_limit == 1.0
        assert cricket.terms[0].term_relevance_limit == 0.0

    def test_out_of_range_weight_rejected(self, tmp_path, cricket_files):
        _, syntable, limits = cricket_files
        bad = tmp_path / "bad.tsv"
        bad.write_text("cricket\t0.9\nbad\t1.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="1.5"):
            load_ontology(bad, syntable, load_limits(limits))

    def test_weights_zero_and_one_are_in_range(self, tmp_path, cricket_files):
        _, syntable, limits = cricket_files
        weights = tmp_path / "w.tsv"
        weights.write_text("cricket\t0\nmatch\t1\numpire\t0.4\n", encoding="utf-8")
        ontology = load_ontology(weights, syntable, load_limits(limits))
        assert ontology.weights == (0.0, 1.0, 0.4)

    def test_id_and_name_default_to_one_and_the_weight_table(self, cricket_files):
        weights, syntable, limits = cricket_files
        ontology = load_ontology(weights, syntable, load_limits(limits))
        assert (ontology.ontology_id, ontology.name) == (1, "cricket-weights")

    def test_malformed_row_reports_line_number(self, tmp_path, cricket_files):
        _, syntable, limits = cricket_files
        bad = tmp_path / "bad.tsv"
        bad.write_text("cricket\t0.9\nno tab here\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_ontology(bad, syntable, load_limits(limits))

    def test_duplicate_term_rejected(self, tmp_path, cricket_files):
        _, syntable, limits = cricket_files
        bad = tmp_path / "bad.tsv"
        bad.write_text("cricket\t0.9\nCricket\t0.8\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            load_ontology(bad, syntable, load_limits(limits))

    def test_syntable_term_missing_from_weight_table(self, tmp_path, cricket_files):
        weights, _, limits = cricket_files
        bad = tmp_path / "syn.tsv"
        bad.write_text("stamp\tstick,wicket\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="not in the weight table"):
            load_ontology(weights, bad, load_limits(limits))

    def test_synonym_shared_between_terms_rejected(self, tmp_path, cricket_files):
        weights, _, limits = cricket_files
        bad = tmp_path / "syn.tsv"
        bad.write_text("match\tgame\numpire\tgame\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="is shared by"):
            load_ontology(weights, bad, load_limits(limits))

    def test_comments_and_blank_lines_ignored(self, tmp_path, cricket_files):
        _, syntable, limits = cricket_files
        weights = tmp_path / "w.tsv"
        weights.write_text("# header\n\ncricket\t0.9\n\nmatch\t0.1\numpire\t0.4\n", encoding="utf-8")
        ontology = load_ontology(weights, syntable, load_limits(limits))
        assert [t.term for t in ontology.terms] == ["cricket", "match", "umpire"]

    def test_json_round_trip_equivalent(self, cricket):
        assert Ontology.from_json_obj(cricket.to_json_obj()) == cricket


class TestLimits:
    def test_overrides_and_default(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text(
            "relevance_limit=2.5\n"
            "term_relevance_limit.default=0.25\n"
            "term_relevance_limit.wicket keeper=0.75\n",
            encoding="utf-8",
        )
        limits = load_limits(path)
        assert limits.relevance_limit == 2.5
        assert limits.term_limit("cricket") == 0.25
        assert limits.term_limit("wicket keeper") == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text("unknown_key=1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="unknown key"):
            load_limits(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text("relevance_limit=-1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_limits(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text("relevance_limit=abc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_limits(path)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("relevance_limit=1\nrelevance_limit=2\n", "relevance_limit"),
            (
                "term_relevance_limit.default=0\nterm_relevance_limit.default=0\n",
                "term_relevance_limit.default",
            ),
            (
                "term_relevance_limit.Wicket  Keeper=0.5\n"
                "term_relevance_limit.wicket keeper=0.7\n",
                "wicket keeper",
            ),
        ],
        ids=["page-limit", "default-term-limit", "term-limit"],
    )
    def test_key_set_twice_rejected(self, tmp_path, text, name):
        """A key set twice is rejected at its second line, not read as the
        last value; term overrides are one key when their terms normalize
        alike."""
        path = tmp_path / "limits.cfg"
        path.write_text("# limits\n" + text, encoding="utf-8")
        message = f"{path}:3: duplicate limit for {name!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_limits(path)

    def test_a_term_named_default_is_its_own_key(self, tmp_path):
        path = tmp_path / "limits.cfg"
        path.write_text(
            "term_relevance_limit.default=0.25\nterm_relevance_limit.Default=0.5\n",
            encoding="utf-8",
        )
        limits = load_limits(path)
        assert (limits.default_term_limit, limits.term_limits) == (0.25, {"default": 0.5})


class TestOntologyValidation:
    def test_wrong_bit_position_rejected(self, tmp_path):
        """A term's bit position is its index; an index file stores it as a
        check. A stored position that is wrong, swapped with another term's
        or ``true`` fails a load under a fresh digest."""
        ontology = flat_ontology(["alpha", "beta", "gamma"])
        corpus = make_corpus([("a", ["b"], "alpha beta"), ("b", [], "gamma")])
        saved = tmp_path / "saved.json"
        IndexBundle.build(corpus, [ontology]).save(saved)
        path = tmp_path / "index.json"
        for positions, message in [
            ({1: 2}, "term 'beta' has bit_position 2, expected 1"),
            ({0: 1, 1: 0}, "term 'alpha' has bit_position 1, expected 0"),
            ({1: True}, "ontology term.bit_position must be an integer, got True"),
        ]:
            obj = json.loads(saved.read_bytes())
            for i, position in positions.items():
                obj["ontologies"][0]["terms"][i]["bit_position"] = position
            path.write_bytes(sealed(obj))
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
                IndexBundle.load(path)

    @pytest.mark.parametrize(
        "fields, term_fields, message",
        [
            ({"ontology_id": True}, {}, "ontology.ontology_id must be an integer, got True"),
            ({"ontology_id": 1.0}, {}, "ontology.ontology_id must be an integer, got 1.0"),
            ({"name": 5}, {}, "ontology.name must be a string, got 5"),
            (
                {"relevance_limit": False}, {},
                "ontology.relevance_limit must be a number, got False",
            ),
            ({}, {"term": 5}, "ontology term.term must be a string, got 5"),
            ({}, {"weight": True}, "ontology term.weight must be a number, got True"),
            (
                {}, {"term_relevance_limit": "0"},
                "ontology term.term_relevance_limit must be a number, got '0'",
            ),
            ({}, {"synonyms": (5,)}, "ontology synonym must be a string, got 5"),
        ],
        ids=[
            "id-true", "id-float", "name-int", "limit-false", "term-int", "weight-true",
            "term-limit-str", "synonym-int",
        ],
    )
    def test_kind_no_index_file_holds_rejected(self, fields, term_fields, message):
        """The constructor rejects a value of a kind that a load would
        reject, with the load's message, so no saved index fails to load."""
        term = OntologyTerm(**{"term": "a", "weight": 0.5, **term_fields})
        fields = {"ontology_id": 1, "name": "x", "terms": (term,), "relevance_limit": 0.0, **fields}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Ontology(**fields)

    def test_weight_above_one_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            Ontology(
                ontology_id=1,
                name="x",
                terms=(OntologyTerm(term="a", weight=1.5),),
                relevance_limit=0.0,
            )

    def test_empty_terms_rejected(self):
        with pytest.raises(ValidationError):
            Ontology(ontology_id=1, name="x", terms=(), relevance_limit=0.0)

    def test_nan_page_limit_rejected(self):
        with pytest.raises(ValidationError, match="relevance_limit"):
            Ontology(
                ontology_id=1,
                name="x",
                terms=(OntologyTerm(term="a", weight=0.5),),
                relevance_limit=math.nan,
            )

    def test_nan_term_limit_rejected(self):
        with pytest.raises(ValidationError, match="term_relevance_limit"):
            Ontology(
                ontology_id=1,
                name="x",
                terms=(OntologyTerm(term="a", weight=0.5, term_relevance_limit=math.nan),),
                relevance_limit=0.0,
            )

    def test_infinite_page_limit_rejected(self):
        with pytest.raises(ValidationError, match="relevance_limit"):
            Ontology(
                ontology_id=1,
                name="x",
                terms=(OntologyTerm(term="a", weight=0.5),),
                relevance_limit=math.inf,
            )

    def test_infinite_term_limit_rejected(self):
        with pytest.raises(ValidationError, match="term_relevance_limit"):
            Ontology(
                ontology_id=1,
                name="x",
                terms=(OntologyTerm(term="a", weight=0.5, term_relevance_limit=math.inf),),
                relevance_limit=0.0,
            )

    def test_oracle_tokenizer_agrees(self):
        rng = random.Random(23)
        for _ in range(100):
            raw = " ".join(
                rng.choice(["Cricket,", "<b>Bat</b>", "ICC-2011", "a.b.c", "x"])
                for _ in range(rng.randint(0, 8))
            )
            assert normalize_text(raw) == oracle_tokens(raw)


# pieces of text that pull the two tokenizers apart if either mishandles one:
# markup, digits, "_" (a word character that is not a token character),
# control characters, and letters whose lowercase form is longer ("İ"),
# outside ASCII ("ß", "é") or inside it (U+212A KELVIN SIGN lowercases to "k"),
# and lone surrogates, which have no UTF-8 form
FUZZ_PIECES = [
    "a", "Z", "k", "K", "0", "7", "_", " ", "-", ".", "<", ">", "<b>", "</i>", "<a href='x'>",
    "\t", "\n", "\x00", "\x1f", "\x7f", "\x85", "\xa0", "İ", "ß", "é", "\u212a", "ǅ",
    "Cricket", "WICKET", "2011", "\ud800", "\udfff",
]


def ontology_of(terms=None, **term_fields) -> Ontology:
    """Ontology 1 over ``terms``, or over one term ``a`` with ``term_fields``."""
    if terms is None:
        terms = (OntologyTerm(**{"term": "a", "weight": 0.5, **term_fields}),)
    return Ontology(ontology_id=1, name="x", terms=terms, relevance_limit=0.0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ontology_of(synonyms="bc"), ValidationError,
         "ontology term.synonyms must be a tuple, got 'bc'"),
        (lambda: ontology_of(synonyms=["b"]), ValidationError,
         "ontology term.synonyms must be a tuple, got ['b']"),
        (lambda: ontology_of([OntologyTerm("a", 0.5)]), ValidationError,
         "ontology.terms must be a tuple, got [OntologyTerm("),
        (lambda: ontology_of("ab"), ValidationError, "ontology.terms must be a tuple, got 'ab'"),
        (lambda: ontology_of(("a",)), ValidationError,
         "ontology term must be an OntologyTerm, got 'a'"),
        (lambda: Query("x", 1, relevance_range=[0, math.inf]), ValueError,
         "relevance_range must be a 2-tuple, got [0, inf]"),
        (lambda: Query("x", 1, relevance_range=(0, 1, 2)), ValueError,
         "relevance_range must be a 2-tuple, got (0, 1, 2)"),
        (lambda: Query("x", 1, relevance_range=(0,)), ValueError,
         "relevance_range must be a 2-tuple, got (0,)"),
        (lambda: Query("x", 1, relevance_range="0:1"), ValueError,
         "relevance_range must be a 2-tuple, got '0:1'"),
    ],
    ids=[
        "synonyms-str", "synonyms-list", "terms-list", "terms-str", "term-str",
        "range-list", "range-3-tuple", "range-1-tuple", "range-str",
    ],
)
def test_hand_made_container_of_another_kind_rejected(build, error, message):
    """A constructor takes a sequence field only as a tuple, so the value is
    hashable and equal to its reload, and a str is never read per character.
    The one-line message names the field."""
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        build()


def corpus_of(docs=None, seeds=("u",)) -> Corpus:
    """A corpus of ``docs``, by default one document ``u``, crawled from
    ``seeds``."""
    return Corpus({"u": CorpusDoc((), "x")} if docs is None else docs, seeds)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: corpus_of({"u": CorpusDoc("uv", "x"), "v": CorpusDoc((), "y")}),
         "corpus doc.out_links must be a tuple, got 'uv'"),
        (lambda: corpus_of({"u": CorpusDoc(["u"], "x")}),
         "corpus doc.out_links must be a tuple, got ['u']"),
        (lambda: corpus_of({"u": CorpusDoc((["a"],), "x")}),
         "corpus link must be a str, got ['a']"),
        (lambda: corpus_of({"u": CorpusDoc((), 5)}), "corpus doc.text must be a str, got 5"),
        (lambda: corpus_of({"u": ((), "x")}), "corpus doc must be a CorpusDoc, got ((), 'x')"),
        (lambda: corpus_of([("u", CorpusDoc((), "x"))]),
         "corpus.docs must be a dict, got [('u', CorpusDoc("),
        (lambda: corpus_of({5: CorpusDoc((), "x")}, (5,)), "corpus url must be a str, got 5"),
        (lambda: corpus_of(seeds=["u"]), "corpus.seeds must be a tuple, got ['u']"),
        (lambda: corpus_of(seeds="u"), "corpus.seeds must be a tuple, got 'u'"),
        (lambda: corpus_of(seeds=(5,)), "corpus seed must be a str, got 5"),
        (lambda: corpus_of({"": CorpusDoc((), "x")}, ("",)), "corpus url must be non-empty"),
        (lambda: corpus_of({"u\ud800": CorpusDoc((), "x")}, ("u\ud800",)),
         "corpus url must be valid UTF-8, got 'u\\ud800'"),
        (lambda: corpus_of(seeds=()), "corpus has no seeds"),
        (lambda: Ontology(1, "a\ud800", (OntologyTerm("a", 0.5),), 0.0),
         "ontology.name must be valid UTF-8, got 'a\\ud800'"),
    ],
    ids=[
        "links-str", "links-list", "link-list", "text-int", "doc-tuple", "docs-list", "url-int",
        "seeds-list", "seeds-str", "seed-int", "url-empty", "url-surrogate", "no-seeds",
        "name-surrogate",
    ],
)
def test_hand_made_input_no_index_can_hold_rejected(build, message):
    """``Corpus``, where a crawl's urls enter, and ``Ontology`` reject what
    no crawl or index file can take, as a load of the same input would:
    a str is not read per character, a url that a save cannot write or a
    load would reject never enters a graph, and a value of another kind
    fails here, not in the crawl. The one-line message names the field."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        build()


def test_url_added_after_construction_never_enters_a_graph(tmp_path, bundled_onts):
    """``Corpus`` holds a read-only copy of its documents, so neither its
    own mapping nor the dict it was made from lets an empty url past its
    checks: the build keeps the one checked page and its index loads."""
    docs = {"a": CorpusDoc(("",), "cricket cricket wicket")}
    corpus = Corpus(docs, ("a",))
    with pytest.raises(TypeError):
        corpus.docs[""] = CorpusDoc((), "cricket cricket wicket")
    docs[""] = CorpusDoc((), "cricket cricket wicket")
    bundle = IndexBundle.build(corpus, bundled_onts)
    assert bundle.rpag.columns.urls == ["a"]
    bundle.save(tmp_path / "index.json")
    assert IndexBundle.load(tmp_path / "index.json").rpag.columns.urls == ["a"]


class TestTokenizerFuzz:
    def test_normalize_text_agrees_with_oracle_on_seeded_strings(self):
        rng = random.Random(31)
        ascii_seen = other_seen = 0
        for _ in range(50_000):
            raw = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
            assert normalize_text(raw) == oracle_tokens(raw), repr(raw)
            if raw.lower().isascii():
                ascii_seen += 1
            else:
                other_seen += 1
        assert ascii_seen > 1000 and other_seen > 1000
