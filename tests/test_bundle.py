from __future__ import annotations

import dataclasses
import gc
import json
import logging
import math
import random
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from ibagsearch import (
    IBAG,
    IBAGNode,
    IndexBundle,
    Query,
    RPaG,
    RPaGNode,
    build_ibag,
    gen_ibag_bit_patterns,
    Ontology,
    OntologyTerm,
    ValidationError,
    search_after_masking,
    search_before_masking,
    synth_corpus,
)
from ibagsearch import bundle as bundle_module
from ibagsearch.bitmask import _to_hex, gen_webpage_bit_pattern
from ibagsearch.bundled import default_queries
from ibagsearch.ontology import normalize_text
from ibagsearch.relevance import page_relevance, relevance_from_counts
from conftest import (
    flat_ontology,
    int_sum_too_large_for_float,
    make_corpus,
    node_counts,
    overflow_two_set_entries,
    sealed,
    set_node_counts,
    single_term_ontology,
)
from test_ibag import rpag_from_values


@pytest.fixture(scope="module")
def bundle(bundled_onts):
    corpus = synth_corpus(17, 80, bundled_onts)
    return IndexBundle.build(corpus, bundled_onts)


def saved_obj(bundle, path) -> dict:
    bundle.save(path)
    return json.loads(path.read_text(encoding="utf-8"))


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        bundle.save(path)
        first = path.read_bytes()
        loaded = IndexBundle.load(path)
        loaded.save(path)
        assert path.read_bytes() == first

    def test_load_restores_equal_structures(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        bundle.save(path)
        loaded = IndexBundle.load(path)
        assert loaded.ontologies == bundle.ontologies
        assert loaded.rpag.to_json_obj() == bundle.rpag.to_json_obj()
        assert loaded.ibag.levels == bundle.ibag.levels
        assert loaded.ibag.level_heads == bundle.ibag.level_heads
        assert loaded.ibag.nodes == bundle.ibag.nodes
        assert loaded.patterns.to_json_obj() == bundle.patterns.to_json_obj()

    def test_file_holds_only_inputs_and_patterns(self, bundle, tmp_path):
        obj = saved_obj(bundle, tmp_path / "index.json")
        assert set(obj) == {"digest", "format_version", "ontologies", "rpag", "patterns"}
        assert obj["format_version"] == "3"
        graph = obj["rpag"]
        assert set(graph) == {"urls", "pp_ids", "counts"}
        assert len(graph["urls"]) == len(graph["pp_ids"]) == len(bundle.rpag)
        assert set(graph["counts"]) == {str(ont.ontology_id) for ont in bundle.ontologies}
        for table in graph["counts"].values():
            assert set(table) == {"rows", "of_node"}
            assert len(table["of_node"]) == len(bundle.rpag)
            # each distinct count vector once: fewer rows than nodes
            assert len(table["rows"]) == len({tuple(row) for row in table["rows"]})
            assert len(table["rows"]) < len(bundle.rpag)
        assert (tmp_path / "index.json").read_bytes().startswith(
            b'{"digest":"' + obj["digest"].encode() + b'","format_version":"3",'
        )

    @pytest.mark.parametrize("seed", [3, 29])
    def test_loaded_index_answers_as_fresh_build(self, seed, bundled_onts, tmp_path):
        built = IndexBundle.build(synth_corpus(seed, 120, bundled_onts), bundled_onts)
        built.save(tmp_path / "index.json")
        loaded = IndexBundle.load(tmp_path / "index.json")
        assert loaded.ibag.levels == built.ibag.levels
        assert loaded.ibag.level_heads == built.ibag.level_heads
        assert loaded.ibag.nodes == built.ibag.nodes

        def answer(outcome):
            return dataclasses.replace(outcome, elapsed=0.0)

        for ontology in bundled_onts:
            for query in default_queries(default_ontology_id=ontology.ontology_id):
                assert answer(search_before_masking(query, loaded.ibag)) == answer(
                    search_before_masking(query, built.ibag)
                )
                assert answer(search_after_masking(query, loaded.ibag, loaded.patterns)) == answer(
                    search_after_masking(query, built.ibag, built.patterns)
                )


def _rows(obj: dict, key: str = "1") -> list:
    return obj["rpag"]["counts"][key]["rows"]


def _drop_url(obj: dict) -> None:
    del obj["rpag"]["urls"]


def _string_term_vector(obj: dict) -> None:
    _rows(obj)[0] = ",".join(map(str, _rows(obj)[0]))


def _string_entry_in_term_vector(obj: dict) -> None:
    _rows(obj)[0][0] = str(_rows(obj)[0][0])


def _bool_parent(obj: dict) -> None:
    parents = next(pp for pp in obj["rpag"]["pp_ids"] if pp)
    parents[0] = True


def _drop_ontology_terms(obj: dict) -> None:
    del obj["ontologies"][0]["terms"]


def _drop_patterns(obj: dict) -> None:
    del obj["patterns"]


def _nodes_not_a_list(obj: dict) -> None:
    obj["rpag"]["urls"] = {"0": obj["rpag"]["urls"][0]}


def _int_too_large_for_float(obj: dict) -> None:
    _rows(obj)[0][0] = 10**400


def _true_entry(obj: dict) -> None:
    _rows(obj)[0][0] = True


def _null_entry(obj: dict) -> None:
    _rows(obj)[0][0] = None


def _nan_entry(obj: dict) -> None:
    """Written as JSON ``NaN``, which the parser reads back as a float."""
    _rows(obj)[0][0] = float("nan")


def _nested_list_entry(obj: dict) -> None:
    row = _rows(obj)[0]
    row[0] = [row[0]]


def _infinite_entry_with_bit_set(obj: dict) -> None:
    """Written as JSON ``Infinity``, in place of a count that sets its
    pattern bit, so the pattern the row gives would not change."""
    row = next(row for row in _rows(obj) if row[0] > 0)
    row[0] = float("inf")


def _duplicate_url(obj: dict) -> None:
    urls = obj["rpag"]["urls"]
    urls[1] = urls[0]


def _empty_url(obj: dict) -> None:
    obj["rpag"]["urls"][0] = ""


def _five_parents(obj: dict) -> None:
    obj["rpag"]["pp_ids"][5] = [0, 1, 2, 3, 4]


def _node_with_parent(obj: dict) -> tuple[int, list]:
    return next((i, pp) for i, pp in enumerate(obj["rpag"]["pp_ids"]) if pp)


def _forward_second_parent(obj: dict) -> None:
    p_id, parents = _node_with_parent(obj)
    parents[1:] = [p_id + 1]


def _negative_second_parent(obj: dict) -> None:
    _, parents = _node_with_parent(obj)
    parents[1:] = [-1]


def _all_zero_vectors(obj: dict) -> None:
    """The node then supports no ontology."""
    for key in obj["rpag"]["counts"]:
        counts = node_counts(obj, key)
        counts[0] = [0] * len(counts[0])
        set_node_counts(obj, key, counts)


def _vector_entry_too_many(obj: dict) -> None:
    _rows(obj)[0].append(0)


def _vector_entry_too_few(obj: dict) -> None:
    _rows(obj)[0].pop()


# values a structural mutation puts in place of another: every JSON kind,
# and the floats a parser reads from ``NaN``, ``Infinity`` and ``1e308``
MUTATION_POOL = (
    0, 1, -1, 3, 2**64, 0.0, -0.0, 0.5, math.nan, math.inf, -math.inf, 1e308,
    True, False, None, "", "x", [], [0], {}, {"x": 0},
)


def _containers(obj: object) -> list:
    """Every non-empty list and dict in ``obj``, ``obj`` itself included."""
    found, stack = [], [obj]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, dict)) and value:
            found.append(value)
            stack.extend(value.values() if isinstance(value, dict) else value)
    return found


def mutate(obj: dict, rng: random.Random) -> None:
    """One seeded structural edit of a decoded index, in place: in a random
    list or dict, replace a value from :data:`MUTATION_POOL`, delete a key
    or an item, or duplicate or swap list items."""
    target = rng.choice(_containers(obj))
    if isinstance(target, dict):
        key = rng.choice(sorted(target))
        if rng.random() < 0.5:
            del target[key]
        else:
            target[key] = rng.choice(MUTATION_POOL)
        return
    i, j = rng.randrange(len(target)), rng.randrange(len(target))
    operation = rng.choice(("replace", "delete", "duplicate", "swap"))
    if operation == "replace":
        target[i] = rng.choice(MUTATION_POOL)
    elif operation == "delete":
        del target[i]
    elif operation == "duplicate":
        target.insert(i, json.loads(json.dumps(target[i])))
    else:
        target[i], target[j] = target[j], target[i]


def canonical(obj: dict) -> bytes:
    """``obj`` in the canonical form a save writes, its digest left as it is."""
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def four_page_index(tmp_path) -> dict:
    """A saved flat-ontology index whose four pages share two count rows:
    rows ``[[1, 1, 0], [1, 0, 1]]``, row indexes ``[0, 0, 1, 1]``."""
    ontology = flat_ontology(["alpha", "beta", "gamma"])
    corpus = make_corpus(
        [
            ("a", ["b"], "alpha beta"),
            ("b", ["c"], "beta alpha"),
            ("c", ["d"], "alpha gamma"),
            ("d", [], "gamma alpha"),
        ]
    )
    obj = saved_obj(IndexBundle.build(corpus, [ontology]), tmp_path / "built.json")
    assert obj["rpag"]["counts"]["1"] == {
        "of_node": [0, 0, 1, 1],
        "rows": [[1, 1, 0], [1, 0, 1]],
    }
    return obj


def _row_index_out_of_range(graph: dict) -> None:
    graph["counts"]["1"]["of_node"][3] = 2


def _negative_row_index(graph: dict) -> None:
    graph["counts"]["1"]["of_node"][1] = -1


def _float_row_index(graph: dict) -> None:
    graph["counts"]["1"]["of_node"][1] = 0.0


def _bool_row_index(graph: dict) -> None:
    graph["counts"]["1"]["of_node"][1] = False


def _duplicate_row(graph: dict) -> None:
    """Row 2 repeats row 1; every row is used, first in row order."""
    graph["counts"]["1"]["rows"].append([1, 0, 1])
    graph["counts"]["1"]["of_node"][3] = 2


def _unused_row(graph: dict) -> None:
    graph["counts"]["1"]["rows"].append([2, 0, 0])


def _rows_out_of_first_use_order(graph: dict) -> None:
    graph["counts"]["1"]["rows"].reverse()
    graph["counts"]["1"]["of_node"][:] = [1, 1, 0, 0]


def _row_indexes_too_few(graph: dict) -> None:
    graph["counts"]["1"]["of_node"].pop()


def _urls_too_few(graph: dict) -> None:
    graph["urls"].pop()


class TestValidation:
    def test_tampered_pattern_count_rejected(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        bundle.save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["patterns"]["patterns"]["1"].pop()
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValidationError):
            IndexBundle.load(path)

    def test_tampered_mean_rejected(self, bundle, tmp_path):
        """The file stores no mean: a mean changes only through the counts,
        and a count edit that flips a term's bit disagrees with the stored
        patterns, even under a fresh digest."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        row = next(row for row in obj["rpag"]["counts"]["1"]["rows"] if row[0] == 0)
        row[0] = 100
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match="patterns"):
            IndexBundle.load(path)

    def test_negative_term_value_rejected(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        obj["rpag"]["counts"]["1"]["rows"][0][0] = -1
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match="negative"):
            IndexBundle.load(path)

    @pytest.mark.parametrize(
        "tamper",
        [
            _drop_url,
            _string_term_vector,
            _string_entry_in_term_vector,
            _bool_parent,
            _drop_ontology_terms,
            _drop_patterns,
            _nodes_not_a_list,
            _int_too_large_for_float,
            _true_entry,
            _null_entry,
            _nan_entry,
            _nested_list_entry,
            _infinite_entry_with_bit_set,
            overflow_two_set_entries,
            int_sum_too_large_for_float,
            _duplicate_url,
            _empty_url,
            _five_parents,
            _forward_second_parent,
            _negative_second_parent,
            _all_zero_vectors,
            _vector_entry_too_many,
            _vector_entry_too_few,
        ],
    )
    def test_malformed_shape_rejected(self, bundle, tmp_path, tamper):
        """Each edit is written under a fresh digest, so the check that
        rejects it is the one for that fact, not the digest."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        tamper(obj)
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError) as info:
            IndexBundle.load(path)
        assert "digest" not in str(info.value)

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({"urls": {3: ""}, "pp_ids": {1: [0] * 5}}, "node 1 has more than 4 parents"),
            ({"urls": {3: 5}, "pp_ids": {1: [0] * 5}}, "node 1 has more than 4 parents"),
        ],
        ids=["empty-url-after", "int-url-after"],
    )
    def test_first_bad_node_named(self, bundle, tmp_path, faults, message):
        """Two faults in different nodes: the columns are checked one at a
        time, yet the message names the first node with a fault."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        for column, edits in faults.items():
            for p_id, value in edits.items():
                obj["rpag"][column][p_id] = value
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            IndexBundle.load(path)

    def test_first_bad_node_named_by_the_layout(self, bundle, tmp_path):
        """Node 3 repeats node 0's url and node 1 supports no ontology: both
        are facts the layout checks, and the message names node 1."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        urls = obj["rpag"]["urls"]
        urls[3] = urls[0]
        for key in obj["rpag"]["counts"]:
            counts = node_counts(obj, key)
            counts[1] = [0] * len(counts[1])
            set_node_counts(obj, key, counts)
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match="^node 1 supports no ontology$"):
            IndexBundle.load(path)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_row_index_out_of_range, "row index 2 is out of range"),
            (_negative_row_index, "row index -1 is out of range"),
            (_float_row_index, "row indexes must be integers"),
            (_bool_row_index, "row indexes must be integers"),
            (_duplicate_row, "row 2 repeats an earlier row"),
            (_unused_row, "row 2 is used by no node"),
            (_rows_out_of_first_use_order, "not in order of first use"),
            (_row_indexes_too_few, "3 row indexes for 4 nodes"),
            (_urls_too_few, "3 urls but 4 parent lists"),
        ],
    )
    def test_malformed_columns_rejected(self, tmp_path, tamper, message):
        obj = four_page_index(tmp_path)
        tamper(obj["rpag"])
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match=message):
            IndexBundle.load(path)

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_float_count_rejected(self, tmp_path, zero):
        """A count is an int: ``0.0`` and ``-0.0`` equal ``0`` and hash
        alike, but would save otherwise, so the row is rejected."""
        obj = four_page_index(tmp_path)
        obj["rpag"]["counts"]["1"]["rows"][0][2] = zero
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match="row 0 must be 3 non-negative integer counts"):
            IndexBundle.load(path)

    @pytest.mark.parametrize("zero", [0, -0.0], ids=["int-zero", "negative-zero"])
    @pytest.mark.parametrize("edited", [0, 1], ids=["first-copy", "second-copy"])
    def test_zero_written_apart_rejected(self, tmp_path, zero, edited):
        """Pages 2 and 3 share the row ``[1, 0, 1]``. One copy given a row
        of its own, its 0 written as ``zero``, does not load: an int 0 makes
        the two rows equal, a ``-0.0`` is not an integer count."""
        obj = four_page_index(tmp_path)
        table = obj["rpag"]["counts"]["1"]
        table["rows"].append([1, 0, 1])
        table["rows"][1 + edited][1] = zero
        table["of_node"][:] = [0, 0, 1, 2]
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        if type(zero) is int:
            message = "row 2 repeats an earlier row"
        else:
            message = f"row {1 + edited} must be 3 non-negative integer counts"
        with pytest.raises(ValidationError, match=message):
            IndexBundle.load(path)

    @pytest.mark.parametrize("text", ["[]", "null", '"index"', "[[[[1]]]]"])
    def test_non_object_top_level_rejected(self, tmp_path, text):
        path = tmp_path / "index.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match="object"):
            IndexBundle.load(path)

    def test_wrong_version_rejected(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        bundle.save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["format_version"] = "99"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValidationError, match="version"):
            IndexBundle.load(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(ValidationError):
            IndexBundle.load(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_bytes(b'{"format_version": "\xff"}')
        with pytest.raises(ValidationError):
            IndexBundle.load(path)

    def test_zero_weight_term_counts_round_trip(self, tmp_path):
        """Counts are stored as counted, also for a term of weight 0: two
        pages whose term vectors are equal but whose counts differ keep
        two rows, and the file re-saves byte for byte."""
        ontology = Ontology(
            ontology_id=1,
            name="mixed",
            terms=(
                OntologyTerm("alpha", 1.0, term_relevance_limit=0.5, bit_position=0),
                OntologyTerm("beta", 0.0, bit_position=1),
            ),
            relevance_limit=0.5,
        )
        corpus = make_corpus([("a", ["b"], "alpha beta beta"), ("b", [], "alpha")])
        built = IndexBundle.build(corpus, [ontology])
        path = tmp_path / "index.json"
        obj = saved_obj(built, path)
        assert obj["rpag"]["counts"]["1"] == {"of_node": [0, 1], "rows": [[1, 2], [1, 0]]}
        loaded = IndexBundle.load(path)
        assert loaded.canonical_bytes() == path.read_bytes()
        scores = [node.relevance[1] for node in loaded.rpag.nodes]
        assert [rel.counts for rel in scores] == [(1, 2), (1, 0)]
        assert scores[0].term_vector == scores[1].term_vector == (1.0, 0.0)

    def test_true_entry_equal_to_an_earlier_vector_rejected(self, tmp_path):
        """``true`` equals 1 and hashes alike; it is checked before any lookup."""
        ontology = flat_ontology(["alpha", "beta", "gamma"])
        corpus = make_corpus([("a", ["b"], "alpha beta"), ("b", [], "beta alpha")])
        built = IndexBundle.build(corpus, [ontology])
        path = tmp_path / "index.json"
        obj = saved_obj(built, path)
        table = obj["rpag"]["counts"]["1"]
        assert table == {"of_node": [0, 0], "rows": [[1, 1, 0]]}
        table["rows"].append([True, 1, 0])
        table["of_node"][1] = 1
        path.write_bytes(sealed(obj))
        with pytest.raises(ValidationError, match="graph counts 1 row 1 must be"):
            IndexBundle.load(path)

    def test_single_byte_mutations_load_or_raise_validation_error(self, bundled_onts, tmp_path):
        """Seeded single-byte edits of a saved index: a load either raises
        ValidationError or gives back the same bytes. A decode of the parsed
        file, which has only the object to check, either raises or gives
        back the saved bytes: the edit changed how a value is written (``0.0``
        as ``0E0``), not the value."""
        data = IndexBundle.build(synth_corpus(7, 40, bundled_onts), bundled_onts).canonical_bytes()
        rng = random.Random(2012)
        path = tmp_path / "index.json"
        outcomes = Counter()
        for _ in range(1500):
            mutated = bytearray(data)
            mutated[rng.randrange(len(mutated))] = rng.randrange(0x20, 0x7F)
            path.write_bytes(mutated)
            try:
                assert IndexBundle.load(path).canonical_bytes() == mutated
                outcomes["loaded"] += 1
                continue
            except ValidationError:
                outcomes["rejected"] += 1
            try:
                obj = json.loads(mutated.decode("utf-8"))
            except ValueError:
                continue
            try:
                assert IndexBundle.from_json_obj(obj).canonical_bytes() == data
                outcomes["decoded as saved"] += 1
            except ValidationError:
                outcomes["parsed, then rejected"] += 1
        assert min(outcomes["rejected"], outcomes["parsed, then rejected"]) > 0

    def test_structural_mutations_load_or_raise_validation_error(self, bundled_onts, tmp_path):
        """Seeded structural edits of a saved index's object (:func:`mutate`),
        each under a fresh digest: a load either raises ValidationError or
        gives back a bundle that saves to the same bytes and validates."""
        data = IndexBundle.build(synth_corpus(7, 40, bundled_onts), bundled_onts).canonical_bytes()
        rng = random.Random(2016)
        path = tmp_path / "index.json"
        outcomes = Counter()
        for _ in range(300):
            obj = json.loads(data)
            mutate(obj, rng)
            path.write_bytes(sealed(obj))
            try:
                loaded = IndexBundle.load(path)
            except ValidationError:
                outcomes["rejected"] += 1
                continue
            assert loaded.canonical_bytes() == path.read_bytes()
            loaded.validate()
            outcomes["loaded"] += 1
        assert min(outcomes["rejected"], outcomes["loaded"]) > 0


class TestDigest:
    """The first member holds the SHA-256 of the canonical bytes of the rest;
    an edit that every other check lets through still fails it."""

    def test_digest_is_the_first_member_and_covers_the_rest(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        assert path.read_bytes() == sealed(obj)
        assert next(iter(obj)) == "digest"

    @staticmethod
    def _edit_url(obj: dict) -> None:
        obj["rpag"]["urls"][0] += "-moved"

    @staticmethod
    def _edit_count(obj: dict) -> None:
        """One more occurrence of a term the row has already: the bit stays set."""
        rows = obj["rpag"]["counts"]["1"]["rows"]
        row = next(
            row for row in rows if row[0] and [row[0] + 1, *row[1:]] not in rows
        )
        row[0] += 1

    @staticmethod
    def _edit_ontology_weight(obj: dict) -> None:
        """0.9 to 0.95: every count sets the same bits as before."""
        term = obj["ontologies"][0]["terms"][0]
        assert term["weight"] == 0.9 and term["term_relevance_limit"] < 0.9
        term["weight"] = 0.95

    @pytest.mark.parametrize("edit", ["_edit_url", "_edit_count", "_edit_ontology_weight"])
    def test_edit_under_a_stale_digest_rejected(self, bundle, tmp_path, edit):
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        getattr(self, edit)(obj)
        # every other check passes: under a fresh digest the edit loads
        path.write_bytes(sealed(obj))
        IndexBundle.load(path)
        path.write_bytes(canonical(obj))
        with pytest.raises(ValidationError, match="digest"):
            IndexBundle.load(path)
        with pytest.raises(ValidationError, match="digest"):
            IndexBundle.from_json_obj(obj)

    def test_one_dump_gives_the_objects_canonical_bytes(self, bundle):
        """A save dumps the sections once and splices their digest in."""
        assert bundle.canonical_bytes() == canonical(bundle.to_json_obj())

    def test_file_not_in_canonical_form_rejected(self, bundle, tmp_path):
        """The same object written with spaces: the digest member is not
        where a save puts it."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
        with pytest.raises(ValidationError, match="digest"):
            IndexBundle.load(path)
        IndexBundle.from_json_obj(obj)


class TestBundleValidate:
    @pytest.fixture
    def fresh(self, bundled_onts):
        return IndexBundle.build(synth_corpus(5, 60, bundled_onts), bundled_onts)

    @pytest.fixture(scope="class")
    def other(self, bundled_onts):
        return IndexBundle.build(synth_corpus(6, 60, bundled_onts), bundled_onts)

    def test_fresh_bundle_passes(self, fresh):
        fresh.validate()

    def test_another_builds_patterns_rejected(self, fresh, other):
        with pytest.raises(ValidationError, match="patterns"):
            dataclasses.replace(fresh, patterns=other.patterns).validate()

    def test_another_builds_index_rejected(self, fresh, other):
        with pytest.raises(ValidationError, match="index nodes"):
            dataclasses.replace(fresh, ibag=other.ibag).validate()

    def test_graph_only_fact_rejected(self, fresh):
        """The index ignores a relevance entry for an unknown ontology."""
        nodes = list(fresh.rpag.nodes)
        relevance = nodes[0].relevance
        nodes[0] = nodes[0]._replace(relevance={**relevance, 99: relevance[1]})
        with pytest.raises(ValidationError, match="relevance keys"):
            rpag = RPaG(nodes=nodes, ontologies=fresh.ontologies)
            dataclasses.replace(fresh, rpag=rpag).validate()

    def test_mean_edited_in_place_rejected(self, fresh):
        """The edit keeps every level's order, so only a re-derivation from
        the graph can tell."""
        nodes = list(fresh.ibag.nodes)
        nodes[0] = nodes[0]._replace(mean_rel_val=nodes[0].mean_rel_val * (1.0 + 1e-9))
        ibag = IBAG.from_nodes(nodes, fresh.ontologies)
        with pytest.raises(ValidationError, match="index nodes"):
            dataclasses.replace(fresh, ibag=ibag).validate()


class Layout(NamedTuple):
    """What a layout derives: each node's mean, the sorted levels, per
    ontology each level's supporter column (p_ids and negated means), and
    per ontology each page's bit pattern."""

    means: list[float]
    levels: list[list[int]]
    columns: dict[int, list[tuple[list[int], list[float]]]]
    patterns: dict[int, list[int]]


def reference_layout(bundle: IndexBundle) -> Layout:
    """The layout restated node by node from the graph's term vectors.

    A page's relevance is its vector's sum, kept when it beats the
    ontology's limit; the mean averages the kept values in ontology order.
    A level holds the nodes whose first-parent depth it is, by descending
    mean, ties by ascending p_id. An ontology's column for a level lists
    the level's supporters in that order. A page's pattern has one bit per
    term, the first term's the most significant, set when the term's value
    beats the term's limit.
    """
    means, depths = [], []
    for node in bundle.rpag.nodes:
        values = [
            sum(node.relevance[ont.ontology_id].term_vector)
            for ont in bundle.ontologies
            if sum(node.relevance[ont.ontology_id].term_vector) > ont.relevance_limit
        ]
        means.append(sum(values) / len(values))
        depths.append(depths[node.pp_ids[0]] + 1 if node.pp_ids else 0)
    levels = [
        sorted((p for p, d in enumerate(depths) if d == depth), key=lambda p: (-means[p], p))
        for depth in range(max(depths, default=-1) + 1)
    ]
    columns, patterns = {}, {}
    for ont in bundle.ontologies:
        vectors = [node.relevance[ont.ontology_id].term_vector for node in bundle.rpag.nodes]
        supports = [sum(vector) > ont.relevance_limit for vector in vectors]
        columns[ont.ontology_id] = [
            ([p for p in level if supports[p]], [-means[p] for p in level if supports[p]])
            for level in levels
        ]
        patterns[ont.ontology_id] = [
            sum(
                1 << (ont.t - 1 - position)
                for position, term in enumerate(ont.terms)
                if vector[position] > term.term_relevance_limit
            )
            for vector in vectors
        ]
    return Layout(means, levels, columns, patterns)


def layout_of(bundle: IndexBundle) -> Layout:
    """The layout a bundle holds, in the form of :func:`reference_layout`."""
    return Layout(
        [node.mean_rel_val for node in bundle.ibag.nodes],
        bundle.ibag.levels,
        {
            ont_id: [(p_ids, list(keys)) for p_ids, keys in columns]
            for ont_id, columns in bundle.ibag.columns.items()
        },
        {ont_id: bundle.patterns.bits_for_ontology(ont_id) for ont_id in bundle.ibag.columns},
    )


def hand_made(values_per_node: list[dict[int, float]], ontologies) -> IndexBundle:
    """A bundle laid out from a parentless graph with the given values."""
    rpag = rpag_from_values(values_per_node, ontologies)
    ibag = build_ibag(rpag)
    return IndexBundle(rpag.ontologies, rpag, ibag, gen_ibag_bit_patterns(ibag, rpag.ontologies))


# (seed, documents): the 400-document corpus is the largest
DIFFERENTIAL_CORPORA = [
    (41, 30), (42, 55), (43, 80), (44, 110), (45, 150),
    (46, 190), (47, 240), (48, 290), (49, 340), (50, 400),
]


# weight 1 as an int, as an ontology read from JSON may hold it
INT_WEIGHT_ONTS = tuple(
    single_term_ontology(term, weight=1, relevance_limit=0.1, ontology_id=ont_id)
    for ont_id, term in enumerate(("alpha", "beta", "gamma"), start=1)
)


class TestLoadMatchesBuild:
    """A load scores the file's counts through the function a build scores
    a page's counts through: it must give back every structure the build
    made, and both must lay the index out as the graph's vectors say."""

    def assert_load_matches_build(self, built: IndexBundle, path: Path) -> None:
        built.save(path)
        loaded = IndexBundle.load(path)
        assert loaded.ontologies == built.ontologies
        assert len(loaded.rpag.nodes) == len(built.rpag.nodes)
        for got, want in zip(loaded.rpag.nodes, built.rpag.nodes):
            assert (got.p_id, got.url, got.pp_ids) == (want.p_id, want.url, want.pp_ids)
            assert got.relevance.keys() == want.relevance.keys()
            for ont_id, rel in want.relevance.items():
                for field in rel._fields:
                    assert getattr(got.relevance[ont_id], field) == getattr(rel, field), field
                assert type(got.relevance[ont_id].term_vector) is tuple
        assert loaded.ibag.nodes == built.ibag.nodes
        assert loaded.ibag.levels == built.ibag.levels
        assert loaded.ibag.level_heads == built.ibag.level_heads
        assert loaded.ibag.columns == built.ibag.columns
        for ont in built.ontologies:
            assert loaded.patterns.bits_for_ontology(ont.ontology_id) == (
                built.patterns.bits_for_ontology(ont.ontology_id)
            )
        assert loaded.canonical_bytes() == path.read_bytes()
        # an index node holds its graph node's scores, not a copy
        for bundle in (built, loaded):
            for inode, rnode in zip(bundle.ibag.nodes, bundle.rpag.nodes, strict=True):
                assert inode.relevance is rnode.relevance

        reference = reference_layout(built)
        assert layout_of(built) == reference
        assert layout_of(loaded) == reference

    @pytest.mark.parametrize("seed, docs", DIFFERENTIAL_CORPORA)
    def test_seeded_corpus(self, bundled_onts, tmp_path, seed, docs):
        built = IndexBundle.build(synth_corpus(seed, docs, bundled_onts), bundled_onts)
        self.assert_load_matches_build(built, tmp_path / "index.json")

    def test_empty_index(self, tmp_path):
        corpus = make_corpus([("a", [], "nothing relevant")])
        built = IndexBundle.build(corpus, [single_term_ontology("topic")])
        assert len(built.rpag) == 0
        self.assert_load_matches_build(built, tmp_path / "index.json")

    @pytest.mark.parametrize(
        "values_per_node, means",
        [
            (
                [
                    {1: 1e16, 2: 1.0, 3: 1.0},
                    {1: 1.0, 2: 1.0, 3: 1e16},
                    {2: 0.5},
                    {1: 2**53 + 1, 2: 2**53 + 1, 3: 2**53 + 1},
                ],
                [1e16 / 3, (2.0 + 1e16) / 3, 0.5, float(2**53)],
            ),
            ([{1: 10**308, 2: 10**308, 3: 10**308}, {1: 0.25}], [1e308, 0.25]),
            (
                [{1: 1e16, 2: 1.0, 3: 1.0}, {1: 1.0, 2: 1.0, 3: 1e16}, {2: 0.5}],
                [1e16 / 3, (2.0 + 1e16) / 3, 0.5],
            ),
        ],
        ids=["sum-order", "int-sum-past-the-largest-float", "float-sum-order"],
    )
    def test_hand_made_graph_where_order_matters(self, values_per_node, means):
        """Supported values summed left to right in ontology order: ``1e16
        + 1.0`` rounds back to ``1e16``, so the first two pages' means differ
        in their last bits. A page may support one ontology of three. Int
        values are summed as ints and divided once: ``3 * (2**53 + 1)`` as
        a float would round up, and ``3 * 10**308`` is past the largest
        float, yet its mean is one."""
        bundle = hand_made(values_per_node, INT_WEIGHT_ONTS)
        assert layout_of(bundle) == reference_layout(bundle)
        assert layout_of(bundle).means == means
        assert len(set(means)) == len(means)
        bundle.validate()

    @pytest.mark.parametrize("value", [5.0, math.nan], ids=["nonzero", "nan"])
    def test_hand_made_unsupported_value_left_out_of_the_mean(self, value):
        """A score made by hand may be unsupported and still hold a value
        other than 0.0; like every unsupported value, the mean leaves it
        out, and the layout accepts the graph."""
        made = rpag_from_values([{1: 0.5, 2: 0.25}, {2: 0.75}], INT_WEIGHT_ONTS)
        nodes = [
            node._replace(
                relevance={**node.relevance, 3: node.relevance[3]._replace(relevance_value=value)}
            )
            for node in made.nodes
        ]
        rpag = RPaG(nodes=nodes, ontologies=made.ontologies)
        ibag = build_ibag(rpag)
        bundle = IndexBundle(rpag.ontologies, rpag, ibag, gen_ibag_bit_patterns(ibag, rpag.ontologies))
        assert layout_of(bundle) == reference_layout(bundle)
        assert layout_of(bundle).means == [0.375, 0.75]
        bundle.validate()

    @pytest.mark.parametrize(
        "values",
        [{1: 2 * 10**308}, {1: 10**308, 2: 10**308, 3: 10**309}, {1: 10**400, 2: 1.0}],
        ids=["one-int", "int-sum", "int-plus-float"],
    )
    def test_int_sum_past_the_largest_float_rejected(self, values):
        """Node 0 is valid; node 1's mean cannot be a float, so it is
        ``inf``, which the layout rejects, naming node 1."""
        with pytest.raises(ValidationError, match="node 1 mean relevance inf not in"):
            hand_made([{2: 0.5}, values], INT_WEIGHT_ONTS)

    def test_load_leaves_the_collector_as_it_found_it(self, bundle, tmp_path):
        path = tmp_path / "index.json"
        bundle.save(path)
        assert gc.isenabled()
        IndexBundle.load(path)
        assert gc.isenabled()
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            IndexBundle.load(path)
        assert gc.isenabled()
        gc.disable()
        try:
            path.write_bytes(bundle.canonical_bytes())
            IndexBundle.load(path)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_build_and_load_leave_the_chains_unthreaded(self, bundled_onts, tmp_path):
        """No query reads the paper's chains: they are threaded on first read."""
        built = IndexBundle.build(synth_corpus(23, 90, bundled_onts), bundled_onts)
        path = tmp_path / "index.json"
        built.save(path)
        loaded = IndexBundle.load(path)
        for bundle in (built, loaded):
            assert "threaded" not in vars(bundle.ibag._chains)
        assert loaded.ibag.level_heads == built.ibag.level_heads
        assert "threaded" in vars(loaded.ibag._chains)

    def test_load_freezes_nothing(self, bundle, tmp_path):
        """A freeze is process-wide, so only the CLI's commands make one."""
        path = tmp_path / "index.json"
        bundle.save(path)
        frozen = gc.get_freeze_count()
        IndexBundle.load(path)
        assert gc.get_freeze_count() == frozen


class TestColumnLayout:
    """A build and a load hold the index in columns and make no node; the
    columns lay the index out as :meth:`IBAG.from_nodes` lays out the
    nodes, and the patterns are the per-page reference's."""

    @staticmethod
    def node_count() -> int:
        return sum(type(obj) in (RPaGNode, IBAGNode) for obj in gc.get_objects())

    def test_build_save_load_and_queries_make_no_nodes(self, bundled_onts, tmp_path):
        corpus = synth_corpus(31, 150, bundled_onts)
        path = tmp_path / "index.json"
        gc.collect()
        before = self.node_count()
        built = IndexBundle.build(corpus, bundled_onts)
        built.save(path)
        loaded = IndexBundle.load(path)
        query = Query("cricket match", 1)
        outcomes = [
            search_before_masking(query, loaded.ibag),
            search_after_masking(query, loaded.ibag, loaded.patterns),
        ]
        assert all(outcome.results for outcome in outcomes)
        assert len(built.rpag) == len(loaded.ibag) > 0
        assert self.node_count() == before
        # read, the nodes are made once and kept
        assert loaded.ibag.nodes is loaded.ibag.nodes
        assert self.node_count() == before + len(loaded.ibag)

    @pytest.mark.parametrize("seed, docs", DIFFERENTIAL_CORPORA)
    def test_columns_match_the_node_layout(self, bundled_onts, tmp_path, seed, docs):
        built = IndexBundle.build(synth_corpus(seed, docs, bundled_onts), bundled_onts)
        built.save(tmp_path / "index.json")
        loaded = IndexBundle.load(tmp_path / "index.json")
        # laid out by the node path, from the built nodes
        reference = IBAG.from_nodes(built.ibag.nodes, bundled_onts)
        ref_nodes = reference.nodes
        for bundle in (built, loaded):
            ibag = bundle.ibag
            assert ibag.node_columns[:-1] == reference.node_columns[:-1]
            assert ibag.levels == reference.levels
            assert ibag.columns == reference.columns
            for ont in bundled_onts:
                ont_id = ont.ontology_id
                scores = ibag.node_columns.scores.tables[ont_id].per_node()
                assert scores == [node.relevance[ont_id] for node in ref_nodes]
                assert [rel.supported for rel in scores] == [
                    node.supported[ont_id] for node in ref_nodes
                ]
                bits = bundle.patterns.bits_for_ontology(ont_id)
                assert bits == [
                    gen_webpage_bit_pattern(node.relevance[ont_id].term_vector, ont).bits
                    for node in ref_nodes
                ]

    def test_load_logs_one_event(self, bundle, tmp_path, caplog):
        path = tmp_path / "index.json"
        bundle.save(path)
        with caplog.at_level(logging.DEBUG, logger="ibagsearch"):
            loaded = IndexBundle.load(path)
        records = [r for r in caplog.records if r.name.startswith("ibagsearch")]
        assert len(records) == 1
        fields = dict(item.split("=") for item in records[0].getMessage().split())
        stages = ("parse_ms", "graph_ms", "layout_ms", "patterns_ms")
        assert set(fields) == {"event", *stages, "nodes", "rows"}
        assert fields["event"] == "load"
        assert all(float(fields[stage]) >= 0 for stage in stages)
        assert int(fields["nodes"]) == len(loaded.ibag) == len(bundle.rpag)
        tables = loaded.ibag.node_columns.scores.tables
        assert fields["rows"] == ",".join(f"{k}:{len(t.rows)}" for k, t in tables.items())


def row_counts(rpag: RPaG) -> dict[int, int]:
    """Each ontology's count of distinct score rows in a graph's columns."""
    return {ont_id: len(table.rows) for ont_id, table in rpag.columns.scores.tables.items()}


class TestReadingNodes:
    """The columns are the only state of a graph and of an index: reading
    the nodes makes read-only values from them and changes nothing else."""

    @pytest.mark.parametrize("seed, docs", DIFFERENTIAL_CORPORA)
    def test_reading_nodes_changes_nothing(self, bundled_onts, tmp_path, seed, docs):
        built = IndexBundle.build(synth_corpus(seed, docs, bundled_onts), bundled_onts)
        path = tmp_path / "index.json"
        built.save(path)
        for bundle in (built, IndexBundle.load(path)):
            rpag = bundle.rpag
            columns, rows, saved = rpag.columns, row_counts(rpag), bundle.canonical_bytes()
            assert sum(rows.values()) < len(rpag) * len(rows)  # some nodes share a row
            nodes, inodes = rpag.nodes, bundle.ibag.nodes
            assert rpag.columns is columns
            assert row_counts(rpag) == rows
            assert bundle.canonical_bytes() == saved

            remade = RPaG(nodes=nodes, ontologies=rpag.ontologies)
            assert row_counts(remade) == rows
            assert remade.nodes == nodes
            ibag = build_ibag(remade)
            patterns = gen_ibag_bit_patterns(ibag, remade.ontologies)
            again = IndexBundle(remade.ontologies, remade, ibag, patterns)
            assert again.canonical_bytes() == saved
            assert ibag.nodes == inodes

            with pytest.raises(AttributeError):
                nodes[0].url = "elsewhere"
            with pytest.raises(AttributeError):
                inodes[0].mean_rel_val = 1.0
            with pytest.raises(TypeError):
                nodes[0] = nodes[1]
            with pytest.raises(TypeError):
                nodes[0].relevance[1] = nodes[1].relevance[1]
            with pytest.raises(TypeError):
                inodes[0].ont_link[1] = None
            # an index node holds its graph node's mapping
            assert inodes[0].relevance is nodes[0].relevance


class TestSharedScores:
    """A build scores each distinct count vector of an ontology once, and a
    load each stored row of counts; the nodes that have it share the
    result, and the patterns and their hex come from it. Each shared value
    must equal what the reference computes for the node alone."""

    @staticmethod
    def assert_each_node_exact(bundle: IndexBundle, reference) -> None:
        stored = bundle.patterns.to_json_obj()["patterns"]
        repeats = 0
        for ont in bundle.ontologies:
            ont_id = ont.ontology_id
            bits = bundle.patterns.bits_for_ontology(ont_id)
            first: dict[tuple, object] = {}
            for node in bundle.rpag.nodes:
                rel = node.relevance[ont_id]
                assert rel == reference(node, ont)
                pattern = gen_webpage_bit_pattern(rel.term_vector, ont)
                assert bits[node.p_id] == pattern.bits
                assert stored[str(ont_id)][node.p_id] == _to_hex(pattern.bits, ont.t)
                assert first.setdefault(rel.counts, rel) is rel
            repeats += len(bundle.rpag.nodes) - len(first)
        assert repeats, "no vector repeats, so nothing was shared"

    @pytest.mark.parametrize("seed, docs", DIFFERENTIAL_CORPORA)
    def test_build_and_load_share_exact_scores(self, bundled_onts, tmp_path, seed, docs):
        corpus = synth_corpus(seed, docs, bundled_onts)
        built = IndexBundle.build(corpus, bundled_onts)
        self.assert_each_node_exact(
            built,
            lambda node, ont: page_relevance(ont, normalize_text(corpus.docs[node.url].text)),
        )
        path = tmp_path / "index.json"
        obj = saved_obj(built, path)
        loaded = IndexBundle.load(path)
        stored = {ont.ontology_id: node_counts(obj, str(ont.ontology_id)) for ont in bundled_onts}
        self.assert_each_node_exact(
            loaded,
            lambda node, ont: relevance_from_counts(ont, stored[ont.ontology_id][node.p_id]),
        )


class TestCollectorPaused:
    """Build and save, like load, pause the cyclic garbage collector while
    they work, and leave it as they found it, on success and on failure."""

    @staticmethod
    def spy(monkeypatch, owner, name: str) -> list[bool]:
        """Record whether the collector is enabled each time ``owner.name`` is called."""
        states: list[bool] = []
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            states.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return states

    def test_build_leaves_the_collector_as_it_found_it(self, bundled_onts, monkeypatch):
        corpus = synth_corpus(5, 40, bundled_onts)
        states = self.spy(monkeypatch, bundle_module, "gen_ibag_bit_patterns")
        assert gc.isenabled()
        IndexBundle.build(corpus, bundled_onts)
        assert gc.isenabled()
        assert states == [False]
        with pytest.raises(ValidationError, match="at least one ontology"):
            IndexBundle.build(corpus, [])
        assert gc.isenabled()
        gc.disable()
        try:
            IndexBundle.build(corpus, bundled_onts)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_save_leaves_the_collector_as_it_found_it(self, bundle, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        states = self.spy(monkeypatch, IndexBundle, "canonical_bytes")
        assert gc.isenabled()
        bundle.save(path)
        assert gc.isenabled()
        assert states == [False]

        def fail(self):
            raise RuntimeError("serializer failed")

        monkeypatch.setattr(IndexBundle, "canonical_bytes", fail)
        with pytest.raises(RuntimeError, match="serializer failed"):
            bundle.save(path)
        assert gc.isenabled()
        monkeypatch.undo()
        gc.disable()
        try:
            bundle.save(path)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert IndexBundle.load(path).canonical_bytes() == bundle.canonical_bytes()


class TestAtomicSave:
    def test_failed_write_keeps_previous_file(self, bundle, tmp_path, monkeypatch):
        path = tmp_path / "index.json"
        bundle.save(path)
        previous = path.read_bytes()

        def write_half_then_fail(self: Path, data: bytes) -> int:
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="no space"):
            bundle.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


class TestEmptyIndex:
    def test_empty_corpus_round_trips(self, tmp_path):
        ontology = single_term_ontology("topic")
        corpus = make_corpus([("a", [], "nothing relevant")])
        bundle = IndexBundle.build(corpus, [ontology])
        assert len(bundle.rpag) == 0
        assert len(bundle.patterns) == 0
        path = tmp_path / "empty.json"
        bundle.save(path)
        loaded = IndexBundle.load(path)
        assert len(loaded.ibag) == 0
