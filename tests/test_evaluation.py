from __future__ import annotations

import math
import statistics

import pytest

from ibagsearch import (
    IBAG,
    Ontology,
    OntologyTerm,
    Query,
    build_ibag,
    build_rpag,
    evaluate_index,
    find_predicted_webpage_list,
    gen_ibag_bit_patterns,
    gen_mask_bit_pattern,
    harvest_rate,
    hr_direction_experiment,
    run_benchmark,
    search_after_masking,
    select_by_range,
    synth_corpus,
    traversal_cost_check,
)
from ibagsearch.bundled import default_queries, load_query_file
from ibagsearch.evaluation import (
    CSV_HEADER,
    HarvestReport,
    ModeComparison,
    aggregate_runs,
    compare_modes,
    hr_direction_counts,
    measure_bit_op_seconds,
)
from conftest import flat_ontology, graph_from_counts

# "topic" scores 0.5 an occurrence; "filler", outside every query below,
# sets a page's mean
TOPIC_AND_FILLER = Ontology(
    ontology_id=1,
    name="topic-and-filler",
    terms=(
        OntologyTerm(term="topic", weight=0.5, bit_position=0),
        OntologyTerm(term="filler", weight=1.0, bit_position=1),
    ),
    relevance_limit=0.0,
)


def flat_index(scores: list[float]) -> IBAG:
    """Single-level index whose page i scores ``scores[i]`` on "topic" (a
    multiple of 0.5) and has mean ``len(scores) - i + scores[i]``, highest
    first, through its "filler" count."""
    counts = [{1: [int(2 * score), len(scores) - i]} for i, score in enumerate(scores)]
    return build_ibag(graph_from_counts(counts, (TOPIC_AND_FILLER,)))


class TestHarvestRate:
    def test_result_equal_to_selection_gives_exactly_one(self):
        ibag = flat_index([1.0, 2.0, 0.5])
        query = Query("topic", 1)
        report = harvest_rate(query, ibag.nodes, ibag.nodes, ibag)
        assert report.hr == 1.0

    def test_constructed_double_ratio(self):
        ibag = flat_index([1.0, 1.0, 4.0])
        query = Query("topic", 1)
        result = [node for node in ibag.nodes if node.term_vectors[1][0] == 4.0]
        report = harvest_rate(query, result, ibag.nodes, ibag)
        assert report.t_rel_sw == 2.0
        assert report.t_rel_sr == 4.0
        assert report.hr == 2.0

    def test_empty_result_set_means_absent_hr(self):
        ibag = flat_index([1.0, 2.0])
        report = harvest_rate(Query("topic", 1), [], ibag.nodes, ibag)
        assert report.t_rel_sr is None
        assert report.hr is None
        assert report.t_rel_sw == 1.5

    def test_empty_selection_means_absent_everything(self):
        ibag = flat_index([1.0])
        report = harvest_rate(Query("topic", 1), [], [], ibag)
        assert report == harvest_rate(Query("topic", 1), [], [], ibag)
        assert report.t_rel_sw is None and report.hr is None

    def test_zero_selection_mean_means_absent_hr(self):
        ibag = flat_index([0.0, 0.0])
        report = harvest_rate(Query("topic", 1), ibag.nodes[:1], ibag.nodes, ibag)
        assert report.t_rel_sw == 0.0
        assert report.hr is None

    @pytest.mark.parametrize("use_synonyms", [True, False])
    def test_compare_modes_matches_each_mode_scored_alone(self, bundled_onts, use_synonyms):
        ibag = build_ibag(build_rpag(synth_corpus(9, 120, bundled_onts), bundled_onts))
        patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
        for query in default_queries():
            modes = compare_modes(query, ibag, patterns, use_synonyms)
            ontology = ibag.ontology_by_id(query.ontology_id)
            mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms=use_synonyms)
            selected, visited = select_by_range(ibag, query.relevance_range, query.ontology_id)
            before = selected[: query.result_limit]
            after = find_predicted_webpage_list(
                selected, patterns, mask, ontology, query.result_limit
            )
            assert (modes.term_count, modes.selected_count, modes.visited_count) == (
                len(mask.positions()),
                len(selected),
                visited,
            )
            assert (modes.before_count, modes.after_count) == (len(before), len(after))
            assert modes.before == harvest_rate(query, before, selected, ibag, use_synonyms)
            assert modes.after == harvest_rate(query, after, selected, ibag, use_synonyms)


class TestTraversalCost:
    def test_single_page(self):
        assert traversal_cost_check(1, 1) == 1.0

    def test_four_levels_of_ten(self):
        assert traversal_cost_check(4, 10) == 5.5

    def test_ten_levels_of_hundred(self):
        assert traversal_cost_check(10, 100) == 50.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            traversal_cost_check(0, 5)
        with pytest.raises(ValueError):
            traversal_cost_check(5, 0)

    def test_closed_form_over_full_sweep(self):
        for m in range(1, 11):
            for pages in range(1, 101):
                assert traversal_cost_check(m, pages) == (pages + 1) / 2


class TestCostScaling:
    def test_visited_grows_linearly_with_selection_size(self):
        total = 400
        ibag = flat_index([1.0] * total)
        patterns = gen_ibag_bit_patterns(ibag, (TOPIC_AND_FILLER,))
        ks = list(range(50, 400, 50))
        visited = []
        for k in ks:
            lo = float(total - k + 2)
            query = Query("topic", 1, relevance_range=(lo, math.inf), result_limit=total)
            outcome = search_after_masking(query, ibag, patterns)
            assert outcome.selected_count == k
            visited.append(outcome.visited_count)
        slope, intercept = statistics.linear_regression(ks, visited)
        assert slope == pytest.approx(1.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def queries():
    return [
        Query("cricket match", 1, result_limit=5),
        Query("umpire", 1, result_limit=3),
    ]


class TestBenchmark:
    def test_rejects_bad_inputs(self, queries):
        with pytest.raises(ValueError, match="ascending"):
            run_benchmark([100, 100], queries, 1)
        with pytest.raises(ValueError, match="empty"):
            run_benchmark([], queries, 1)
        with pytest.raises(ValueError, match="query set"):
            run_benchmark([50], [], 1)

    def test_single_size_report(self, queries):
        report = run_benchmark([60], queries, 5, repeats=1)
        assert {row.mode for row in report.rows} == {"before_masking", "after_masking"}
        assert all(row.size == 60 for row in report.rows)
        assert len(report.queries) == 2
        assert report.bit_op_seconds > 0

    def test_after_counts_never_exceed_before(self, queries):
        report = run_benchmark([40, 80], queries, 7, repeats=1)
        by_size: dict[int, dict[str, float]] = {}
        for row in report.rows:
            by_size.setdefault(row.size, {})[row.mode] = row.avg_count
        for size, modes in by_size.items():
            assert modes["after_masking"] <= modes["before_masking"]

    @staticmethod
    def strip_timing(report_obj: dict) -> dict:
        obj = dict(report_obj)
        obj.pop("bit_op_seconds")
        obj["rows"] = [
            {k: v for k, v in row.items() if k != "avg_elapsed_us"} for row in obj["rows"]
        ]
        return obj

    def test_deterministic_modulo_timing(self, queries):
        first = run_benchmark([50], queries, 11, repeats=1)
        second = run_benchmark([50], queries, 11, repeats=1)
        assert self.strip_timing(first.to_json_obj()) == self.strip_timing(second.to_json_obj())

    def test_csv_shape(self, queries):
        report = run_benchmark([40], queries, 3, repeats=1)
        lines = report.csv_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_write_outputs(self, queries, tmp_path):
        report = run_benchmark([40], queries, 3, repeats=1)
        json_path, csv_path = report.write(tmp_path / "out")
        assert json_path.exists() and csv_path.exists()

    def test_evaluate_index_repeats_validated(self, bundled_onts):
        corpus = synth_corpus(2, 40, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
        with pytest.raises(ValueError):
            evaluate_index(ibag, patterns, [Query("cricket", 1)], repeats=0)

    def test_aggregate_handles_all_undefined_hr(self, bundled_onts):
        corpus = synth_corpus(2, 40, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
        runs = evaluate_index(ibag, patterns, [Query("zzz", 1)], repeats=1)
        rows = aggregate_runs(40, runs)
        after = next(row for row in rows if row.mode == "after_masking")
        assert after.hr_mean is None
        assert after.avg_count == 0.0


class TestHRDirection:
    def test_small_seeded_sample_prefers_after(self):
        result = hr_direction_experiment(n_pairs=20, rng_seed=3)
        assert result.pairs_valid > 0
        assert result.pairs_after_ge_before >= 0.9 * result.pairs_valid

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"n_pairs": -3}, "n_pairs must be >= 0"), ({"n_pairs": 2, "ks": ()}, "ks must name")],
        ids=["negative-pairs", "no-ks"],
    )
    def test_bad_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            hr_direction_experiment(**kwargs)

    def test_ratio_none_when_no_valid_pairs(self):
        result = hr_direction_experiment(n_pairs=0)
        assert (result.pairs_total, result.pairs_valid) == (0, 0)

    def test_index_that_no_page_supports_gives_no_valid_pairs(self):
        unreachable = flat_ontology(["alpha", "beta"], relevance_limit=1e9)
        result = hr_direction_experiment(n_pairs=3, ontologies=(unreachable,))
        assert (result.pairs_total, result.pairs_valid) == (3, 0)

    def test_tie_counts_for_after(self):
        """Equal rates count as after >= before, and a query with an
        undefined rate is not comparable."""

        def modes(hr_before, hr_after):
            before, after = (HarvestReport(hr, 1.0, hr) for hr in (hr_before, hr_after))
            return ModeComparison(1, 1, 1, 1, 1, before, after)

        comparisons = [modes(0.5, 0.5), modes(2.0, 1.0), modes(1.0, None), modes(None, 1.0)]
        assert hr_direction_counts(comparisons) == (2, 1)


def test_query_file_defaults_to_ontology_one(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("cricket\numpire\t0:1\t5\n", encoding="utf-8")
    assert [query.ontology_id for query in load_query_file(path)] == [1, 1]


def test_bit_op_measurement_positive():
    assert measure_bit_op_seconds() > 0
