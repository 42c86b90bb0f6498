from __future__ import annotations

import json

import pytest

from ibagsearch import (
    IndexBundle,
    RPaG,
    RPaGNode,
    ValidationError,
    build_ibag,
    build_rpag,
    synth_corpus,
)
from ibagsearch.relevance import relevance_from_counts
from ibagsearch.rpag import MAX_PARENTS
from conftest import graph_from_counts, make_corpus, single_term_ontology
from oracles import oracle_page_vector, oracle_tokens

TOPIC = single_term_ontology("topic")


class TestBuildRpag:
    def test_no_relevant_pages_gives_empty_graph(self):
        corpus = make_corpus([("a", ["b"], "nothing"), ("b", [], "here")])
        graph = build_rpag(corpus, [TOPIC])
        assert len(graph) == 0

    def test_chain_through_irrelevant_seed(self):
        corpus = make_corpus(
            [
                ("a", ["b"], "noise"),
                ("b", ["c"], "topic"),
                ("c", [], "topic topic"),
            ]
        )
        graph = build_rpag(corpus, [TOPIC])
        assert [node.url for node in graph.nodes] == ["b", "c"]
        b, c = graph.nodes
        assert b.pp_ids == ()  # discovered via an irrelevant page
        assert c.pp_ids == (b.p_id,)

    def test_parent_cap_keeps_first_four_discovered(self):
        parents = [f"p{i}" for i in range(6)]
        records = [("seed", parents, "noise")]
        records += [(p, ["target"], "topic") for p in parents]
        records += [("target", [], "topic")]
        graph = build_rpag(make_corpus(records), [TOPIC])
        target = next(node for node in graph.nodes if node.url == "target")
        assert len(target.pp_ids) == MAX_PARENTS
        first_four = [
            node.p_id for node in graph.nodes if node.url in parents[:MAX_PARENTS]
        ]
        assert list(target.pp_ids) == first_four

    def test_dangling_links_skipped(self):
        corpus = make_corpus([("a", ["missing", "b"], "topic"), ("b", [], "topic")])
        graph = build_rpag(corpus, [TOPIC])
        assert [node.url for node in graph.nodes] == ["a", "b"]

    def test_each_doc_visited_once(self):
        corpus = make_corpus(
            [
                ("a", ["b", "b", "c"], "topic"),
                ("b", ["a", "c"], "topic"),
                ("c", [], "topic"),
            ]
        )
        graph = build_rpag(corpus, [TOPIC])
        assert sorted(node.url for node in graph.nodes) == ["a", "b", "c"]
        # duplicate links from the same parent do not duplicate the parent
        c = next(node for node in graph.nodes if node.url == "c")
        assert len(set(c.pp_ids)) == len(c.pp_ids)

    def test_parent_lists_frozen_at_visit(self):
        # d links back to b, but only after b was already processed
        corpus = make_corpus(
            [
                ("a", ["b"], "noise"),
                ("b", ["d"], "topic"),
                ("d", ["b"], "topic"),
            ]
        )
        graph = build_rpag(corpus, [TOPIC])
        b = next(node for node in graph.nodes if node.url == "b")
        d = next(node for node in graph.nodes if node.url == "d")
        assert b.pp_ids == ()
        assert d.pp_ids == (b.p_id,)

    def test_self_link_is_not_a_parent(self):
        corpus = make_corpus([("a", ["a"], "topic")])
        graph = build_rpag(corpus, [TOPIC])
        assert graph.nodes[0].pp_ids == ()

    def test_p_ids_follow_discovery_order(self):
        corpus = make_corpus(
            [
                ("seed", ["x", "y", "z"], "topic"),
                ("x", [], "topic"),
                ("y", [], "noise"),
                ("z", [], "topic"),
            ]
        )
        graph = build_rpag(corpus, [TOPIC])
        assert [(node.p_id, node.url) for node in graph.nodes] == [
            (0, "seed"),
            (1, "x"),
            (2, "z"),
        ]

    def test_requires_ontologies_and_seeds(self, bundled_onts):
        corpus = make_corpus([("a", [], "x")])
        with pytest.raises(ValidationError):
            build_rpag(corpus, [])

    def test_graph_section_must_be_an_object(self):
        with pytest.raises(ValidationError, match="graph must be an object"):
            RPaG.from_json_obj([], [TOPIC])

    def test_multiple_seeds_deduped(self):
        corpus = make_corpus([("a", [], "topic"), ("b", [], "topic")], seeds=["a", "b", "a"])
        graph = build_rpag(corpus, [TOPIC])
        assert [node.url for node in graph.nodes] == ["a", "b"]

    def test_queued_seed_gains_parents_until_crawled(self):
        # b waits in the queue as a seed when a links to it, so a is its parent
        corpus = make_corpus([("a", ["b"], "topic"), ("b", [], "topic")], seeds=["a", "b"])
        graph = build_rpag(corpus, [TOPIC])
        assert [node.pp_ids for node in graph.nodes] == [(), (0,)]


class TestRpagInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed, bundled_onts):
        corpus = synth_corpus(seed, 60, bundled_onts)
        graph = build_rpag(corpus, bundled_onts)
        for node in graph.nodes:
            assert len(node.pp_ids) <= MAX_PARENTS
            assert all(0 <= pp < node.p_id for pp in node.pp_ids)
            assert any(rel.supported for rel in node.relevance.values())

    def test_scores_equal_recomputation(self, bundled_onts):
        corpus = synth_corpus(42, 50, bundled_onts)
        graph = build_rpag(corpus, bundled_onts)
        assert len(graph) > 0
        for node in graph.nodes:
            tokens = oracle_tokens(corpus.docs[node.url].text)
            for ontology in bundled_onts:
                rel = node.relevance[ontology.ontology_id]
                expected_vector = oracle_page_vector(ontology, tokens)
                assert list(rel.term_vector) == pytest.approx(expected_vector, abs=1e-12)
                expected_value = sum(expected_vector)
                assert rel.supported == (expected_value > ontology.relevance_limit)
                if rel.supported:
                    assert rel.relevance_value == pytest.approx(expected_value, abs=1e-12)
                else:
                    assert rel.relevance_value == 0.0

    def test_build_deterministic(self, bundled_onts):
        corpus = synth_corpus(4, 40, bundled_onts)
        first = build_rpag(corpus, bundled_onts)
        second = build_rpag(corpus, bundled_onts)
        assert first.json_columns() == second.json_columns()

    def test_json_round_trip(self, bundled_onts):
        corpus = synth_corpus(4, 40, bundled_onts)
        graph = build_rpag(corpus, bundled_onts)
        restored = RPaG.from_json_obj(json.loads(json.dumps(graph.json_columns())), bundled_onts)
        assert restored.json_columns() == graph.json_columns()

    def test_digest_guards_against_wrong_ontologies(self, tmp_path):
        """The file's digest covers its ontologies: a weight edit that sets
        the same bits and leaves the graph valid is still rejected."""
        corpus = make_corpus([("a", ["b"], "topic"), ("b", [], "topic topic")])
        path = tmp_path / "index.json"
        IndexBundle.build(corpus, [TOPIC]).save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["ontologies"][0]["terms"][0]["weight"] = 0.5
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValidationError, match="digest"):
            IndexBundle.load(path)


def _five_parents(graph: RPaG) -> None:
    graph.columns.pp_ids[5] = [0, 1, 2, 3, 4]


def _later_second_parent(graph: RPaG) -> None:
    p_id, parents = next((i, pp) for i, pp in enumerate(graph.columns.pp_ids) if pp)
    parents[1:] = [p_id + 1]


def _duplicate_url(graph: RPaG) -> None:
    graph.columns.urls[1] = graph.columns.urls[0]


def _supports_nothing(graph: RPaG) -> None:
    """Node 0 gets a row of zero counts in every ontology."""
    for ont in graph.ontologies:
        rows, of_node = graph.columns.scores.tables[ont.ontology_id]
        rows.append(relevance_from_counts(ont, [0] * ont.t))
        of_node[0] = len(rows) - 1


class TestValidate:
    """A graph's columns edited in place, after the checks a crawl or a
    load makes: :meth:`RPaG.validate` checks them again."""

    @pytest.fixture
    def graph(self, bundled_onts):
        return build_rpag(synth_corpus(4, 40, bundled_onts), bundled_onts)

    def test_built_graph_passes(self, graph):
        graph.validate()

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_five_parents, "more than"),
            (_later_second_parent, "earlier"),
            (_duplicate_url, "duplicated"),
            (_supports_nothing, "supports no"),
        ],
        ids=["five-parents", "later-second-parent", "duplicate-url", "supports-nothing"],
    )
    def test_bad_node_rejected(self, graph, tamper, message):
        tamper(graph)
        with pytest.raises(ValidationError, match=message):
            graph.validate()

    def test_support_edited_after_a_layout_rejected(self, graph):
        """A layout reads the support flags once and keeps them with the
        scores; validate reads the edited tables again."""
        build_ibag(graph)
        _supports_nothing(graph)
        with pytest.raises(ValidationError, match="^node 0 supports no ontology$"):
            graph.validate()


def _with(p_id: int, **changes):
    """A graph's nodes, node ``p_id`` with its fields replaced."""

    def tamper(graph: RPaG) -> list[RPaGNode]:
        nodes = list(graph.nodes)
        nodes[p_id] = nodes[p_id]._replace(**changes)
        return nodes

    return tamper


def _later_second_parent_of_a_node(graph: RPaG) -> list[RPaGNode]:
    node = next(node for node in graph.nodes if node.pp_ids)
    return _with(node.p_id, pp_ids=(node.pp_ids[0], node.p_id + 1))(graph)


def graph_of(nodes: list[RPaGNode], ontologies) -> RPaG:
    """The graph of ``nodes``, made by hand from their counts, urls and
    parents, as every graph made by hand is."""
    per_node = [{ont_id: rel.counts for ont_id, rel in node.relevance.items()} for node in nodes]
    pp_ids = [list(node.pp_ids) for node in nodes]
    return graph_from_counts(per_node, ontologies, pp_ids, [node.url for node in nodes])


class TestEditedThroughNodes:
    """A node is a read-only value, so an edit makes new nodes. A graph of
    them is made from their counts (:func:`graph_of`) and is checked as it
    is made: neither a layout nor a save of it gets that far."""

    @pytest.fixture
    def bundle(self, bundled_onts):
        return IndexBundle.build(synth_corpus(5, 60, bundled_onts), bundled_onts)

    def test_unedited_nodes_give_the_graph(self, bundle):
        graph = graph_of(bundle.rpag.nodes, bundle.ontologies)
        assert graph.nodes == bundle.rpag.nodes
        assert build_ibag(graph).nodes == bundle.ibag.nodes

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_with(2, pp_ids=(5,)), "^node 2 parent 5 must reference an earlier node$"),
            (_with(2, pp_ids=("a",)), "^node 2 parent 'a' must reference an earlier node$"),
            (_with(2, pp_ids=(2.0,)), "^node 2 parent 2.0 must reference an earlier node$"),
            (_with(2, pp_ids=(None,)), "^node 2 parent None must reference an earlier node$"),
            (_with(2, url=5), "^graph url 2 must be a string, got 5$"),
            (_with(5, pp_ids=(0, 1, 2, 3, 4)), "^node 5 has more than 4 parents$"),
            (_later_second_parent_of_a_node, "must reference an earlier node$"),
        ],
        ids=[
            "later-first-parent",
            "string-parent",
            "float-parent",
            "none-parent",
            "int-url",
            "five-parents",
            "later-second-parent",
        ],
    )
    def test_bad_node_rejected_by_layout_and_save(self, bundle, tamper, message):
        nodes = tamper(bundle.rpag)
        with pytest.raises(ValidationError, match=message):
            graph_of(nodes, bundle.ontologies)
