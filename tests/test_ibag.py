from __future__ import annotations

import math
import random

import pytest

from ibagsearch import (
    ValidationError,
    build_ibag,
    build_rpag,
    select_by_range,
    select_columns,
    synth_corpus,
)
from conftest import graph_from_counts, make_corpus, single_term_ontology
from oracles import oracle_range_selection

TOPIC = single_term_ontology("topic")


THREE_ONTS = (
    single_term_ontology("alpha", ontology_id=1, relevance_limit=0.1),
    single_term_ontology("beta", ontology_id=2, relevance_limit=0.1),
    single_term_ontology("gamma", ontology_id=3, relevance_limit=0.1),
)


class TestMeanRelevance:
    """A node's mean averages its values over the ontologies it supports."""

    def test_mean_of_two_supported(self):
        ibag = build_ibag(graph_from_counts([{1: [8], 2: [6]}], THREE_ONTS))
        assert ibag.nodes[0].mean_rel_val == 7.0

    def test_mean_of_three_supported(self):
        ibag = build_ibag(graph_from_counts([{1: [9], 2: [6], 3: [3]}], THREE_ONTS))
        assert ibag.nodes[0].mean_rel_val == 6.0

    def test_single_support_keeps_value(self):
        ibag = build_ibag(graph_from_counts([{2: [5]}], THREE_ONTS))
        assert ibag.nodes[0].mean_rel_val == 5.0


class TestHandBuiltFixture:
    """Five-page corpus with a known level structure, order, and chain."""

    @pytest.fixture
    def fixture_ibag(self):
        corpus = make_corpus(
            [
                ("s", ["b", "c"], "topic"),
                ("b", ["d"], "topic topic topic"),
                ("c", ["e"], "topic topic"),
                ("d", [], "topic"),
                ("e", [], "topic topic topic topic"),
            ]
        )
        return build_ibag(build_rpag(corpus, [TOPIC]))

    def test_p_ids_match_source_graph(self, fixture_ibag):
        assert [(n.p_id, n.url) for n in fixture_ibag.nodes] == [
            (0, "s"),
            (1, "b"),
            (2, "c"),
            (3, "d"),
            (4, "e"),
        ]

    def test_parents_and_levels(self, fixture_ibag):
        expected = {"s": (None, 0), "b": (0, 1), "c": (0, 1), "d": (1, 2), "e": (2, 2)}
        for node in fixture_ibag.nodes:
            assert (node.pp_id, node.level) == expected[node.url]

    def test_levels_sorted_by_mean_descending(self, fixture_ibag):
        assert fixture_ibag.levels == [[0], [1, 2], [4, 3]]

    def test_chain_threads_levels_in_order(self, fixture_ibag):
        walked = []
        for level in range(len(fixture_ibag.levels)):
            walked.extend(n.url for n in fixture_ibag.iter_chain(level, 1))
        assert walked == ["s", "b", "c", "e", "d"]
        # the chain also crosses level boundaries
        assert fixture_ibag.nodes[2].ont_link[1] == 4
        assert fixture_ibag.nodes[3].ont_link[1] is None

    def test_heads_point_at_first_supporter(self, fixture_ibag):
        assert [heads[1] for heads in fixture_ibag.level_heads] == [0, 0, 0]


class TestSelectByRange:
    @pytest.fixture
    def random_ibag(self, bundled_onts):
        corpus = synth_corpus(13, 200, bundled_onts)
        return build_ibag(build_rpag(corpus, bundled_onts))

    def test_unrestricted_range_selects_every_supporter(self, random_ibag):
        selected, visited = select_by_range(random_ibag, (0.0, math.inf), 1)
        supporters = [n for n in random_ibag.nodes if n.supported[1]]
        assert len(selected) == len(supporters)
        assert visited == len(supporters)
        assert {n.p_id for n in selected} == {n.p_id for n in supporters}

    def test_range_above_maximum_selects_nothing(self, random_ibag):
        _, top = random_ibag.mean_value_bounds()
        selected, _ = select_by_range(random_ibag, (top + 1, top + 2), 1)
        assert selected == []

    def test_matches_linear_scan_oracle(self, random_ibag):
        rng = random.Random(99)
        lo_all, hi_all = random_ibag.mean_value_bounds()
        for ontology_id in (1, 2, 3):
            for _ in range(10):
                a = rng.uniform(lo_all - 0.5, hi_all + 0.5)
                b = rng.uniform(lo_all - 0.5, hi_all + 0.5)
                lo, hi = min(a, b), max(a, b)
                selected, _ = select_by_range(random_ibag, (lo, hi), ontology_id)
                expected = oracle_range_selection(random_ibag, ontology_id, lo, hi)
                assert [n.p_id for n in selected] == [n.p_id for n in expected]

    def test_inclusive_endpoints(self, random_ibag):
        node = random_ibag.nodes[0]
        value = node.mean_rel_val
        ontology_id = next(k for k, v in node.supported.items() if v)
        selected, _ = select_by_range(random_ibag, (value, value), ontology_id)
        assert node.p_id in [n.p_id for n in selected]

    def test_invalid_range_rejected(self, random_ibag):
        with pytest.raises(ValueError, match="range"):
            select_by_range(random_ibag, (2.0, 1.0), 1)

    @pytest.mark.parametrize(
        "bounds", [(math.nan, math.inf), (0.0, math.nan), (math.nan, math.nan), (math.nan, 1.0)]
    )
    def test_nan_bound_rejected(self, random_ibag, bounds):
        """A NaN bound fails every comparison, so it would select everything."""
        for select in (select_by_range, select_columns):
            with pytest.raises(ValueError, match="range"):
                select(random_ibag, bounds, 1)

    def test_unknown_ontology_rejected(self, random_ibag):
        with pytest.raises(ValueError, match="unknown ontology"):
            select_by_range(random_ibag, (0.0, 1.0), 9)

    def test_visited_at_least_selected(self, random_ibag):
        selected, visited = select_by_range(random_ibag, (1.2, 2.0), 1)
        assert visited >= len(selected)


class TestIbagInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_structure(self, seed, bundled_onts):
        corpus = synth_corpus(seed, 80, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        for node in ibag.nodes:
            if node.pp_id is None:
                assert node.level == 0
            else:
                assert node.level == ibag.nodes[node.pp_id].level + 1
            assert node.mean_rel_val > 0
        # every node appears in at least one ontology chain
        covered = set()
        for ontology in bundled_onts:
            for level in range(len(ibag.levels)):
                covered.update(n.p_id for n in ibag.iter_chain(level, ontology.ontology_id))
        assert covered == {n.p_id for n in ibag.nodes}

    def test_rebuild_is_byte_identical(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        rpag = build_rpag(corpus, bundled_onts)
        first, second = build_ibag(rpag), build_ibag(rpag)
        assert first.levels == second.levels
        assert first.level_heads == second.level_heads
        assert first.nodes == second.nodes

    def test_load_rejects_broken_sort(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        level = next(level for level in ibag.levels if len(level) >= 2)
        level[0], level[1] = level[1], level[0]
        with pytest.raises(ValidationError, match="level table"):
            ibag.validate()

    def test_load_rejects_broken_chain(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        supporter = next(
            node for node in ibag.nodes if node.supported[1] and node.ont_link[1] is not None
        )
        successor = supporter.ont_link[1]
        # links are threaded from the level table, and a node only reads them
        with pytest.raises(TypeError):
            supporter.ont_link[1] = None
        assert supporter.ont_link[1] == successor
        ibag.validate()

    def test_load_rejects_broken_links(self, bundled_onts):
        """A supporter that heads no level stops supporting ontology 1 and
        still supports ontology 2: its score edited in place leaves the
        levels and heads as they were, and the links differ."""
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        heads = ibag.level_heads
        p_id = next(
            node.p_id
            for node in ibag.nodes
            if node.supported[1]
            and node.supported[2]
            and ibag.levels[node.level][heads[node.level][1]] != node.p_id
        )
        table = ibag.node_columns.scores.tables[1]
        table.of_node[p_id] = next(i for i, rel in enumerate(table.rows) if not rel.supported)
        with pytest.raises(ValidationError, match="chain links"):
            ibag.validate()

    def test_load_rejects_broken_heads(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        heads = next(heads for heads in ibag.level_heads if heads[1] is not None)
        heads[1] += 1
        with pytest.raises(ValidationError, match="head"):
            ibag.validate()

    def test_load_rejects_broken_columns(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        keys = next(keys for _, keys in ibag.columns[1] if len(keys) >= 2)
        keys[0] -= 1.0
        with pytest.raises(ValidationError, match="columns"):
            ibag.validate()

    def test_load_rejects_node_edited_away_from_columns(self, bundled_onts):
        """Queries read the index's columns, so an edit to a node that the
        columns do not show would be an index that answers otherwise. A node
        is a read-only value made from the columns: the edit raises."""
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        with pytest.raises(AttributeError):
            ibag.nodes[0].url = "elsewhere"
        with pytest.raises(TypeError):
            ibag.nodes[0] = ibag.nodes[0]._replace(url="elsewhere")
        with pytest.raises(TypeError):
            ibag.nodes[0].relevance[1] = ibag.nodes[1].relevance[1]
        assert ibag.nodes[0].url == ibag.node_columns.url[0]
        ibag.validate()

    def test_validate_leaves_index_unchanged(self, bundled_onts):
        corpus = synth_corpus(8, 70, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        heads = ibag.level_heads
        nodes = ibag.nodes
        snapshot = [dict(node.ont_link) for node in nodes]
        ibag.validate()
        assert [dict(node.ont_link) for node in ibag.nodes] == snapshot
        # validate lays the nodes out into a new index: this one keeps its own
        assert ibag.level_heads is heads
        assert ibag.nodes is nodes

    def test_empty_graph_builds_empty_index(self):
        corpus = make_corpus([("a", [], "noise")])
        ibag = build_ibag(build_rpag(corpus, [TOPIC]))
        assert len(ibag) == 0
        assert ibag.levels == []
        assert ibag.mean_value_bounds() is None
