from __future__ import annotations

import dataclasses
import gc
import json
import logging
import math
import random
import re
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from ibagsearch import (
    IBAGNode,
    IndexBundle,
    Query,
    RPaG,
    RPaGNode,
    build_ibag,
    build_rpag,
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
from ibagsearch.evaluation import run_benchmark
from ibagsearch.ontology import normalize_text
from ibagsearch.relevance import page_relevance, relevance_from_counts
from conftest import (
    LARGEST_FLOAT_AS_INT,
    flat_ontology,
    graph_from_counts,
    int_sum_too_large_for_float,
    make_corpus,
    node_counts,
    overflow_two_set_entries,
    sealed,
    set_node_counts,
    single_term_ontology,
)


@pytest.fixture(scope="module")
def bundle(bundled_onts):
    corpus = synth_corpus(17, 80, bundled_onts)
    return IndexBundle.build(corpus, bundled_onts)


def saved_obj(bundle, path) -> dict:
    bundle.save(path)
    return json.loads(path.read_text(encoding="utf-8"))


def load_fault(path: Path) -> str:
    """Load ``path``, which must fail, and return the fault's message after
    the ``<path>: `` that starts every message a load raises."""
    with pytest.raises(ValidationError) as info:
        IndexBundle.load(path)
    prefix = f"{path}: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix) :]


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
        assert loaded.rpag.json_columns() == bundle.rpag.json_columns()
        assert loaded.ibag.levels == bundle.ibag.levels
        assert loaded.ibag.level_heads == bundle.ibag.level_heads
        assert loaded.ibag.nodes == bundle.ibag.nodes
        assert loaded.patterns.to_json_obj() == bundle.patterns.to_json_obj()

    def test_file_holds_only_inputs_and_patterns(self, bundle, tmp_path):
        obj = saved_obj(bundle, tmp_path / "index.json")
        assert set(obj) == {"digest", "format_version", "ontologies", "rpag", "patterns"}
        assert obj["format_version"] == "4"
        for ontology in obj["ontologies"]:
            for term in ontology["terms"]:
                assert set(term) == {"term", "weight", "synonyms", "term_relevance_limit"}
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
            b'{"digest":"' + obj["digest"].encode() + b'","format_version":"4",'
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
            return outcome._replace(elapsed=0.0)

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
    or an item, add a member ``extra`` holding a value from the pool, or
    duplicate or swap list items."""
    target = rng.choice(_containers(obj))
    if isinstance(target, dict):
        key = rng.choice(sorted(target))
        operation = rng.choice(("replace", "delete", "add"))
        if operation == "replace":
            target[key] = rng.choice(MUTATION_POOL)
        elif operation == "delete":
            del target[key]
        else:
            target["extra"] = rng.choice(MUTATION_POOL)
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


def _counts_of_an_unknown_ontology(graph: dict) -> None:
    graph["counts"]["9"] = graph["counts"]["1"]


def _empty_url_of_node_1(graph: dict) -> None:
    graph["urls"][1] = ""


def _url_of_node_0_repeated(graph: dict) -> None:
    graph["urls"][2] = graph["urls"][0]


def _int_url_of_node_1(graph: dict) -> None:
    graph["urls"][1] = 5


def _list_url_of_node_2(graph: dict) -> None:
    """A url no set can hold: the url facts after the str fact read only
    the urls below it."""
    graph["urls"][2] = ["a"]


def _no_ontologies(obj: dict) -> None:
    """No ontologies, and so no pages, counts or patterns."""
    obj["ontologies"] = []
    obj["rpag"] = {"counts": {}, "pp_ids": [], "urls": []}
    obj["patterns"] = {"patterns": {}, "t_by_ontology": {}}


def _ontology_twice(obj: dict) -> None:
    obj["ontologies"] *= 2


_NOT_EARLIER = "must reference an earlier node"
_NOT_COUNTS = "must be 3 non-negative integer counts"


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
            (
                {"urls": {3: "doc-00000"}, "pp_ids": {5: [0] * 5}},
                "node 3 url 'doc-00000' missing or duplicated",
            ),
        ],
        ids=["empty-url-after", "int-url-after", "duplicate-url-before"],
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
        assert load_fault(path) == message

    def test_first_bad_node_named_by_the_graph_facts(self, bundle, tmp_path):
        """Node 3 repeats node 0's url and node 1 supports no ontology: both
        are graph facts, and the message names node 1."""
        path = tmp_path / "index.json"
        obj = saved_obj(bundle, path)
        urls = obj["rpag"]["urls"]
        urls[3] = urls[0]
        for key in obj["rpag"]["counts"]:
            counts = node_counts(obj, key)
            counts[1] = [0] * len(counts[1])
            set_node_counts(obj, key, counts)
        path.write_bytes(sealed(obj))
        assert load_fault(path) == "node 1 supports no ontology"

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
            (_counts_of_an_unknown_ontology, "^graph counts keys mismatch the ontologies$"),
            (_empty_url_of_node_1, "^node 1 url '' missing or duplicated$"),
            (_url_of_node_0_repeated, "^node 2 url 'a' missing or duplicated$"),
            (_int_url_of_node_1, "^graph url 1 must be a string, got 5$"),
            (_list_url_of_node_2, r"^graph url 2 must be a string, got \['a'\]$"),
        ],
    )
    def test_malformed_columns_rejected(self, tmp_path, tamper, message):
        obj = four_page_index(tmp_path)
        tamper(obj["rpag"])
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        assert re.search(message, load_fault(path))

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

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"pp_ids": {2: [1, True]}}, "node 2 parent True " + _NOT_EARLIER),
            ({"pp_ids": {2: ["0"]}}, "node 2 parent '0' " + _NOT_EARLIER),
            ({"pp_ids": {2: [-1, 1]}}, "node 2 parent -1 " + _NOT_EARLIER),
            ({"pp_ids": {2: [2]}}, "node 2 parent 2 " + _NOT_EARLIER),
            ({"pp_ids": {2: [1, 3]}}, "node 2 parent 3 " + _NOT_EARLIER),
            ({"pp_ids": {3: [0, 0]}}, "node 3 parent 0 is listed twice"),
            ({"pp_ids": {3: [1, 0, 1]}}, "node 3 parent 1 is listed twice"),
            ({"pp_ids": {3: [0, 1, 1]}}, "node 3 parent 1 is listed twice"),
            ({"pp_ids": {3: [0, 0, 3]}}, "node 3 parent 3 " + _NOT_EARLIER),
            ({"pp_ids": {2: [3], 3: [True]}}, "node 2 parent 3 " + _NOT_EARLIER),
            ({"rows": {1: "1,0,1"}}, "graph counts 1 row 1 " + _NOT_COUNTS),
            ({"rows": {1: [1, 0]}}, "graph counts 1 row 1 " + _NOT_COUNTS),
            ({"rows": {1: [1, False, 1]}}, "graph counts 1 row 1 " + _NOT_COUNTS),
            ({"rows": {1: [1, 0.5, 1]}}, "graph counts 1 row 1 " + _NOT_COUNTS),
            ({"rows": {1: [1, -1, 1]}}, "graph counts 1 row 1 " + _NOT_COUNTS),
            ({"rows": {0: [1, -1, 0], 1: "x"}}, "graph counts 1 row 0 " + _NOT_COUNTS),
        ],
        ids=[
            "bool-parent", "string-parent", "negative-parent", "own-p_id-parent", "later-parent",
            "repeated-parent", "parent-repeated-later", "second-parent-repeated",
            "own-p_id-parent-after-repeated-parent",
            "later-parent-before-bool-parent", "row-not-a-list", "short-row", "bool-count",
            "float-count", "negative-count", "negative-count-before-row-not-a-list",
        ],
    )
    def test_parent_and_count_rules_name_node_and_row(self, tmp_path, edits, message):
        """A node's parents are one check and a row's counts one check: the
        message names the lowest node or row that breaks any part of the
        rule, and a node's first bad parent, else its first parent listed
        twice. The last case of each kind breaks a later part of the rule
        below an earlier part."""
        obj = four_page_index(tmp_path)
        columns = {"pp_ids": obj["rpag"]["pp_ids"], "rows": obj["rpag"]["counts"]["1"]["rows"]}
        for column, values in edits.items():
            for i, value in values.items():
                columns[column][i] = value
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        assert load_fault(path) == message

    @pytest.mark.parametrize("key", ["relevance_limit", "term_relevance_limit"])
    def test_infinite_limit_rejected(self, tmp_path, key):
        """A limit is finite: ``Infinity``, which Python's parser reads but
        is not JSON, fails a load under a fresh digest."""
        obj = four_page_index(tmp_path)
        ontology = obj["ontologies"][0]
        (ontology if key == "relevance_limit" else ontology["terms"][1])[key] = math.inf
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        assert b"Infinity" in path.read_bytes()
        with pytest.raises(ValidationError, match=key):
            IndexBundle.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_no_ontologies, "at least one ontology is required"),
            (_ontology_twice, "ontology ids must be unique and ascending, got [1, 1]"),
        ],
        ids=["no-ontologies", "ontology-twice"],
    )
    def test_ontology_list_rejected_as_a_build_rejects_it(self, tmp_path, edit, message):
        """A load checks the ontologies as a crawl does: at least one, their
        ids unique and ascending. The file is otherwise whole, under a fresh
        digest."""
        ontology = single_term_ontology("topic")
        corpus = make_corpus([("a", ["b"], "topic"), ("b", [], "topic topic")])
        obj = saved_obj(IndexBundle.build(corpus, [ontology]), tmp_path / "built.json")
        edit(obj)
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        assert load_fault(path) == message
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_rpag(corpus, [Ontology.from_json_obj(raw) for raw in obj["ontologies"]])

    @pytest.mark.parametrize(
        "member, where",
        [
            (lambda obj: obj, "index"),
            (lambda obj: obj["ontologies"][0], "ontology"),
            (lambda obj: obj["ontologies"][0]["terms"][1], "ontology term"),
            (lambda obj: obj["rpag"], "graph"),
            (lambda obj: obj["rpag"]["counts"]["1"], "graph counts 1"),
            (lambda obj: obj["patterns"], "index.patterns"),
        ],
        ids=["top-level", "ontology", "term", "graph", "counts-table", "patterns"],
    )
    def test_unknown_key_rejected_by_load_and_decode_alike(self, tmp_path, member, where):
        """Every member of each object is read: one more, under a fresh
        digest, fails a load and a decode of the parsed file with the same
        message, the load's after the file's path, before any digest check."""
        obj = four_page_index(tmp_path)
        member(obj)["extra"] = 0
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        message = f"{where} has unknown key 'extra'"
        assert load_fault(path) == message
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            IndexBundle.from_json_obj(json.loads(path.read_bytes()))

    def test_pattern_length_true_rejected(self, tmp_path):
        """A one-term ontology's pattern length is 1, which ``true`` equals,
        but a save would write 1, so the file is rejected."""
        corpus = make_corpus([("a", ["b"], "topic"), ("b", [], "topic topic")])
        obj = saved_obj(IndexBundle.build(corpus, [single_term_ontology()]), tmp_path / "b.json")
        assert obj["patterns"]["t_by_ontology"] == {"1": 1}
        obj["patterns"]["t_by_ontology"]["1"] = True
        path = tmp_path / "index.json"
        path.write_bytes(sealed(obj))
        assert load_fault(path) == "index.patterns.t_by_ontology.1 must be an integer, got True"

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
                OntologyTerm("alpha", 1.0, term_relevance_limit=0.5),
                OntologyTerm("beta", 0.0),
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
        assert bundle.canonical_bytes() == canonical(json.loads(bundle.canonical_bytes()))

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

    def test_sections_on_other_ontologies_rejected(self, fresh, bundled_onts):
        two = bundled_onts[:2]
        index = build_ibag(build_rpag(synth_corpus(5, 60, two), two))
        with pytest.raises(ValidationError, match="disagree on the ontologies"):
            dataclasses.replace(fresh, ibag=index).validate()

    def test_mean_edited_in_place_rejected(self, fresh):
        """The index's own layout does not read its means again, so only a
        re-derivation from the graph can tell."""
        fresh.ibag.node_columns.mean_rel_val[0] *= 1.0 + 1e-9
        with pytest.raises(ValidationError, match="index nodes"):
            fresh.validate()

    @pytest.mark.parametrize("url", ["", "doc-00000"], ids=["empty", "duplicate"])
    def test_url_edited_in_the_index_columns_rejected(self, fresh, url):
        """The index shares its url column with the graph, and the url facts
        are the graph's: ``IBAG.validate`` checks what the layout derives,
        and ``IndexBundle.validate`` names the edit through ``RPaG.validate``."""
        assert fresh.ibag.node_columns.url is fresh.rpag.columns.urls
        fresh.ibag.node_columns.url[1] = url
        with pytest.raises(ValidationError, match=f"^node 1 url '{url}' missing or duplicated$"):
            fresh.validate()


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


def hand_made(counts_per_node: list[dict[int, int]], ontologies) -> IndexBundle:
    """A bundle laid out from a parentless graph of one-term ontologies made
    by hand: node i counts its ontology ``id``'s term ``counts_per_node[i][id]``
    times (none for an ontology it leaves out)."""
    counts = [{ont_id: [c] for ont_id, c in node.items()} for node in counts_per_node]
    rpag = graph_from_counts(counts, ontologies)
    ibag = build_ibag(rpag)
    return IndexBundle(rpag, ibag, gen_ibag_bit_patterns(ibag, rpag.ontologies))


# (seed, documents): the 400-document corpus is the largest
DIFFERENTIAL_CORPORA = [
    (41, 30), (42, 55), (43, 80), (44, 110), (45, 150),
    (46, 190), (47, 240), (48, 290), (49, 340), (50, 400),
]


def one_term_ontologies(*weights: float, relevance_limit: float = 0.1) -> tuple[Ontology, ...]:
    """One one-term ontology per weight, ids from 1, limit ``relevance_limit``."""
    return tuple(
        single_term_ontology(term, weight=weight, relevance_limit=relevance_limit, ontology_id=i)
        for i, (term, weight) in enumerate(zip(("alpha", "beta", "gamma"), weights), start=1)
    )


# weight 1 as an int, as an ontology read from JSON may hold it, and
# weight 1.0: both score as the float 1.0
INT_WEIGHT_ONTS = one_term_ontologies(1, 1, 1)
FLOAT_WEIGHT_ONTS = one_term_ontologies(1.0, 1.0, 1.0)
# a count past half the largest float, and no count is past the largest:
# it takes two int values to sum past it
PAST_HALF_THE_LARGEST_FLOAT = LARGEST_FLOAT_AS_INT * 5 // 6


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
        "ontologies, counts_per_node, means",
        [
            (
                FLOAT_WEIGHT_ONTS,
                [{1: 10**16, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 10**16}, {2: 2}],
                [1e16 / 3, (2.0 + 1e16) / 3, 2.0],
            ),
        ],
        ids=["float-sum-order"],
    )
    def test_hand_made_graph_where_order_matters(self, ontologies, counts_per_node, means):
        """Float values are summed left to right in ontology order: ``1e16
        + 1.0`` rounds back to ``1e16``, so the first two pages' means differ
        in their last bits. A page may support one ontology of three."""
        bundle = hand_made(counts_per_node, ontologies)
        assert layout_of(bundle) == reference_layout(bundle)
        assert layout_of(bundle).means == means
        assert len(set(means)) == len(means)
        bundle.validate()

    def test_int_weights_lay_out_as_float_weights(self):
        """An int weight scores as its float: on counts whose int sums would
        stay exact, ``10**16 + 1 + 1`` and ``3 * (2**53 + 1)``, the index
        over int weights lays out exactly as the one over float weights,
        every score and mean a float."""
        counts = [{1: 10**16, 2: 1, 3: 1}, {2: 1}, {1: 2**53 + 1, 2: 2**53 + 1, 3: 2**53 + 1}]
        as_int = hand_made(counts, INT_WEIGHT_ONTS)
        as_float = hand_made(counts, FLOAT_WEIGHT_ONTS)
        assert layout_of(as_int) == layout_of(as_float) == reference_layout(as_float)
        assert layout_of(as_int).means == [1e16 / 3, 1.0, float(2**53)]
        for bundle in (as_int, as_float):
            assert {type(mean) for mean in bundle.ibag.node_columns.mean_rel_val} == {float}
            for node in bundle.rpag.nodes:
                for rel in node.relevance.values():
                    assert {type(v) for v in (rel.relevance_value, *rel.term_vector)} == {float}

    def test_int_weight_saved_as_given(self, tmp_path):
        """The ontology keeps an int weight as given: a loaded file holding
        ``"weight":1`` re-saves to its own bytes."""
        path = tmp_path / "index.json"
        hand_made([{1: 2, 2: 1}, {3: 1}], INT_WEIGHT_ONTS).save(path)
        raw = path.read_bytes()
        assert raw.count(b'"weight":1}') == len(INT_WEIGHT_ONTS)
        assert IndexBundle.load(path).canonical_bytes() == raw

    @pytest.mark.parametrize("count", [1, 0], ids=["nonzero", "zero"])
    def test_hand_made_unsupported_value_left_out_of_the_mean(self, count):
        """Ontology 3's term scores ``count`` on each page, not past its
        limit: like every unsupported value, the mean leaves it out."""
        ontologies = one_term_ontologies(1.0, 1.0, 1.0, relevance_limit=1.5)
        bundle = hand_made([{1: 2, 2: 3, 3: count}, {2: 4, 3: count}], ontologies)
        assert layout_of(bundle) == reference_layout(bundle)
        assert layout_of(bundle).means == [2.5, 4.0]
        bundle.validate()

    @pytest.mark.parametrize(
        "ontologies, counts, message",
        [
            (INT_WEIGHT_ONTS, {1: 2 * 10**308}, "graph counts 1 row 1 holds a count too large"),
            (
                INT_WEIGHT_ONTS,
                {1: 10**308, 2: 10**308, 3: 10**309},
                "graph counts 3 row 1 holds a count too large",
            ),
            (
                INT_WEIGHT_ONTS,
                {1: 10**308, 2: 10**308, 3: 10**308},
                "node 1 mean relevance inf not in",
            ),
            (
                one_term_ontologies(1, 1, 1.0),
                {1: PAST_HALF_THE_LARGEST_FLOAT, 2: PAST_HALF_THE_LARGEST_FLOAT, 3: 1},
                "node 1 mean relevance inf not in",
            ),
            (
                one_term_ontologies(1, 1.0, 1),
                {1: PAST_HALF_THE_LARGEST_FLOAT, 2: 1, 3: PAST_HALF_THE_LARGEST_FLOAT},
                "node 1 mean relevance inf not in",
            ),
        ],
        ids=[
            "one-int", "int-sum", "int-sum-past-the-largest-float", "int-plus-float",
            "float-plus-int",
        ],
    )
    def test_int_sum_past_the_largest_float_rejected(self, ontologies, counts, message):
        """Node 0 is valid; node 1's values cannot sum to a float. A count
        past the largest float fails its row. Below it, every value is a
        float, an int weight's too, and two or three of them may sum past
        the largest float: the mean is ``inf``, which the layout rejects,
        naming node 1."""
        with pytest.raises(ValidationError, match=f"^{message}"):
            hand_made([{2: 1}, counts], ontologies)

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
            assert "_chains" not in vars(bundle.ibag)
        assert loaded.ibag.level_heads == built.ibag.level_heads
        assert "_chains" in vars(loaded.ibag)

    def test_load_freezes_nothing(self, bundle, tmp_path):
        """A freeze is process-wide, so only the CLI's commands make one."""
        path = tmp_path / "index.json"
        bundle.save(path)
        frozen = gc.get_freeze_count()
        IndexBundle.load(path)
        assert gc.get_freeze_count() == frozen


class TestColumnLayout:
    """A build and a load hold the index in columns and make no node; the
    nodes read from the columns lay the index out as it is laid out, and
    the patterns are the per-page reference's."""

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
        assert loaded.ibag.nodes == built.ibag.nodes
        for bundle in (built, loaded):
            ibag = bundle.ibag
            nodes = ibag.nodes
            assert [(node.url, node.pp_id, node.level, node.mean_rel_val) for node in nodes] == (
                list(zip(*ibag.node_columns[:-1]))
            )
            # a level by descending mean, ties by ascending p_id
            assert ibag.levels == [
                sorted(
                    (node.p_id for node in nodes if node.level == level),
                    key=lambda p_id: (-nodes[p_id].mean_rel_val, p_id),
                )
                for level in range(len(ibag.levels))
            ]
            for ont in bundled_onts:
                ont_id = ont.ontology_id
                scores = ibag.node_columns.scores.tables[ont_id].per_node()
                assert scores == [node.relevance[ont_id] for node in nodes]
                supporters = [
                    [p_id for p_id in level if nodes[p_id].supported[ont_id]]
                    for level in ibag.levels
                ]
                assert ibag.columns[ont_id] == [
                    (p_ids, array("d", [-nodes[p_id].mean_rel_val for p_id in p_ids]))
                    for p_ids in supporters
                ]
                bits = bundle.patterns.bits_for_ontology(ont_id)
                assert bits == [
                    gen_webpage_bit_pattern(node.relevance[ont_id].term_vector, ont).bits
                    for node in nodes
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

    def test_every_log_line_is_a_key_value_event(self, bundled_onts, tmp_path, caplog):
        """A build, a save, a load and a one-size benchmark each log
        ``event=<name>`` followed by ``key=value`` fields, nothing else."""
        path = tmp_path / "index.json"
        with caplog.at_level(logging.DEBUG, logger="ibagsearch"):
            built = IndexBundle.build(synth_corpus(5, 40, bundled_onts), bundled_onts)
            built.save(path)
            IndexBundle.load(path)
            run_benchmark([40], [Query("cricket", 1)], 1, ontologies=bundled_onts, repeats=1)
        messages = [r.getMessage() for r in caplog.records if r.name.startswith("ibagsearch")]
        assert all(re.fullmatch(r"event=[a-z]+( [a-z_]+=\S+)*", m) for m in messages), messages
        events = [m.split()[0] for m in messages]
        assert events == ["event=crawl", "event=save", "event=load", "event=crawl", "event=bench"]
        assert messages[0] == f"event=crawl docs=40 nodes={len(built.ibag)}"
        assert messages[1] == f"event=save bytes={path.stat().st_size} path={path}"
        bench_nodes = messages[3].split()[-1]
        assert messages[4] == f"event=bench size=40 {bench_nodes}"


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

            graph = json.loads(json.dumps(rpag.json_columns()))
            remade = RPaG.from_json_obj(graph, rpag.ontologies)
            assert row_counts(remade) == rows
            assert remade.nodes == nodes
            ibag = build_ibag(remade)
            patterns = gen_ibag_bit_patterns(ibag, remade.ontologies)
            again = IndexBundle(remade, ibag, patterns)
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


def one_shot(obj: object) -> bytes:
    """``obj`` in canonical JSON, from one call of the encoder."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode()


# urls JSON must escape (a quote, a backslash, control characters) and
# urls it writes as they are, outside ASCII
ESCAPED_URLS = ['a"b', "c\\d", "e\x01f", "g\nh\ti", "\x7f", "jé", "日本", "\u2028", "🙂"]
SLICE = bundle_module._SLICE


class TestSlicedSave:
    """A save dumps the graph from its own columns, and each long array a
    slice at a time: the bytes are those of one canonical dump."""

    @pytest.mark.parametrize(
        "length", [SLICE, SLICE + 1, 3 * SLICE + 5], ids=["one-slice", "one-more", "several"]
    )
    def test_sliced_dump_equals_one_shot(self, length):
        urls = [f"{ESCAPED_URLS[i % len(ESCAPED_URLS)]}{i}" for i in range(length)]
        obj = {
            "urls": urls,
            "counts": {
                "2": {"of_node": list(range(length)), "rows": [(1, 2)] * length},
                "10": {"of_node": [], "rows": []},
            },
            "pp_ids": [[i, i + 1] if i % 3 else () for i in range(length)],
            'ñ"\\': [0.5, None, True, {}, ESCAPED_URLS],
        }
        for value in (obj, urls):
            pieces: list[bytes] = []
            bundle_module._dump(value, pieces)
            assert b"".join(pieces) == one_shot(value)

    @pytest.mark.parametrize("seed, docs", DIFFERENTIAL_CORPORA)
    def test_save_equals_one_shot_dump(self, bundled_onts, monkeypatch, seed, docs):
        """At any slice length, the file a save writes is the one-shot
        canonical dump of its parse under its digest."""
        built = IndexBundle.build(synth_corpus(seed, docs, bundled_onts), bundled_onts)
        whole = json.loads(built.canonical_bytes())
        for slice_length in (1, 7, docs // 3, SLICE):
            monkeypatch.setattr(bundle_module, "_SLICE", slice_length)
            assert built.canonical_bytes() == sealed(whole)


class TestSaveMemory:
    def test_save_holds_little_more_than_its_bytes(self, bundled_onts, monkeypatch):
        """A save's transient peak stays within a small multiple of the
        bytes it makes (about 2.5 here; 16.9 when each column was copied
        and dumped in one call), with the graph's columns spanning several
        slices."""
        built = IndexBundle.build(synth_corpus(3, 1500, bundled_onts), bundled_onts)
        monkeypatch.setattr(bundle_module, "_SLICE", 128)
        assert len(built.rpag) > 8 * 128
        built.canonical_bytes()  # what a first call makes once is made
        gc.collect()
        tracemalloc.start()
        try:
            size = len(built.canonical_bytes())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * size


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
