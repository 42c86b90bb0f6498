from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import pytest

from ibagsearch import (
    IBAG,
    Ontology,
    OntologyTerm,
    Query,
    ValidationError,
    build_ibag,
    build_rpag,
    evaluate_index,
    find_predicted_webpage_list,
    gen_ibag_bit_patterns,
    gen_mask_bit_pattern,
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
    BenchReport,
    HarvestReport,
    ModeComparison,
    _harvest_report,
    aggregate_runs,
    compare_modes,
    hr_direction_counts,
)
from conftest import flat_ontology, graph_from_counts
from oracles import oracle_harvest

# "topic" scores 0.5 an occurrence; "filler", outside every query below,
# sets a page's mean
TOPIC_AND_FILLER = Ontology(
    ontology_id=1,
    name="topic-and-filler",
    terms=(
        OntologyTerm(term="topic", weight=0.5),
        OntologyTerm(term="filler", weight=1.0),
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
    @staticmethod
    def modes(scores: list[float], query: Query) -> ModeComparison:
        ibag = flat_index(scores)
        return compare_modes(query, ibag, gen_ibag_bit_patterns(ibag, (TOPIC_AND_FILLER,)))

    def test_result_equal_to_selection_gives_exactly_one(self):
        modes = self.modes([1.0, 2.0, 0.5], Query("topic", 1))
        assert modes.before_count == modes.selected_count == 3
        assert modes.before.hr == 1.0

    def test_constructed_double_ratio(self):
        # the page scoring 4.0 has the highest mean, so it is the one result
        modes = self.modes([1.0, 1.0, 4.0], Query("topic", 1, result_limit=1))
        for report in (modes.before, modes.after):
            assert report.t_rel_sw == 2.0
            assert report.t_rel_sr == 4.0
            assert report.hr == 2.0

    def test_empty_result_set_means_absent_hr(self):
        # no query on this index gives it: a selected page that scores on the
        # query's terms is above their limit, 0, so it passes the mask
        mask = gen_mask_bit_pattern("topic", TOPIC_AND_FILLER)
        report = _harvest_report(mask, [], [(1.0, 2.0), (2.0, 1.0)])
        assert report.t_rel_sr is None
        assert report.hr is None
        assert report.t_rel_sw == 1.5

    def test_empty_selection_means_absent_everything(self):
        modes = self.modes([1.0], Query("topic", 1, relevance_range=(100.0, math.inf)))
        assert modes.selected_count == 0
        assert modes.before == modes.after == HarvestReport(None, None, None)

    def test_zero_selection_mean_means_absent_hr(self):
        modes = self.modes([0.0, 0.0], Query("topic", 1, result_limit=1))
        assert modes.before_count == 1
        assert modes.before.t_rel_sw == 0.0
        assert modes.before.hr is None

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
            search = query.search_string
            assert modes.before == oracle_harvest(ontology, search, before, selected, use_synonyms)
            assert modes.after == oracle_harvest(ontology, search, after, selected, use_synonyms)


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

    @pytest.mark.parametrize(
        "args, name",
        [((2.5, 3), "m_levels"), ((True, 3), "m_levels"), ((3, 2.5), "pages_per_level"),
         ((3, True), "pages_per_level")],
    )
    def test_rejects_counts_that_are_not_ints(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            traversal_cost_check(*args)

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

    @pytest.mark.parametrize(
        "sizes, message",
        [([10.5], r"corpus_sizes\[0\] must be an int, got 10.5"),
         (["10"], r"corpus_sizes\[0\] must be an int, got '10'"),
         ([True], r"corpus_sizes\[0\] must be an int, got True"),
         ([10, 20.0], r"corpus_sizes\[1\] must be an int, got 20.0")],
    )
    def test_rejects_sizes_that_are_not_ints(self, queries, sizes, message):
        with pytest.raises(ValueError, match=message):
            run_benchmark(sizes, queries, 1)

    @pytest.mark.parametrize(
        "repeats, rule",
        [pytest.param(2.5, "an int", id="2.5"), pytest.param(True, "an int", id="True"),
         pytest.param(0, ">= 1", id="0"), pytest.param(-2, ">= 1", id="-2")],
    )
    def test_rejects_repeats_that_are_not_an_int_before_any_build(
        self, queries, repeats, rule, monkeypatch
    ):
        def no_build(*args):
            raise AssertionError("built a corpus before checking repeats")

        monkeypatch.setattr("ibagsearch.evaluation.synth_corpus", no_build)
        with pytest.raises(ValueError, match=f"repeats must be {rule}, got {repeats!r}"):
            run_benchmark([20], queries, 1, repeats=repeats)

    @staticmethod
    def no_build(*args):
        raise AssertionError("built a corpus before checking the ontologies")

    def test_rejects_bad_ontologies_before_any_build(self, queries, monkeypatch):
        monkeypatch.setattr("ibagsearch.evaluation.synth_corpus", self.no_build)
        with pytest.raises(ValidationError, match="at least one ontology is required"):
            run_benchmark([50], queries, 1, ontologies=())
        twice = (flat_ontology(["alpha"]), flat_ontology(["beta"]))
        with pytest.raises(ValidationError, match="ontology ids must be unique"):
            run_benchmark([50], queries, 1, ontologies=twice)
        with pytest.raises(ValueError, match="^unknown ontology id 9$"):
            run_benchmark([50, 100], [*queries, Query("cricket", 9)], 1)

    def test_single_size_report(self, queries):
        report = run_benchmark([60], queries, 5, repeats=1)
        assert {row.mode for row in report.rows} == {"before_masking", "after_masking"}
        assert all(row.size == 60 for row in report.rows)
        assert len(report.queries) == 2

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

    @pytest.mark.parametrize("failing", ["report.json", "report.csv"])
    def test_failed_write_keeps_previous_file(self, queries, tmp_path, monkeypatch, failing):
        run_benchmark([40], queries, 3, repeats=1).write(tmp_path)
        previous = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write_bytes = Path.write_bytes

        def write_half_then_fail(self: Path, data: bytes) -> int:
            if not self.name.startswith(f".{failing}."):
                return real_write_bytes(self, data)
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="no space"):
            BenchReport(4, [], []).write(tmp_path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]
        # neither file is replaced until both are written whole
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous

    def test_report_json_holds_exactly_its_three_keys(self, queries, tmp_path):
        json_path, _ = run_benchmark([40], queries, 3, repeats=1).write(tmp_path)
        assert set(json.loads(json_path.read_text(encoding="utf-8"))) == {
            "rng_seed", "rows", "queries"
        }

    def test_evaluate_index_repeats_validated(self, bundled_onts):
        corpus = synth_corpus(2, 40, bundled_onts)
        ibag = build_ibag(build_rpag(corpus, bundled_onts))
        patterns = gen_ibag_bit_patterns(ibag, bundled_onts)
        with pytest.raises(ValueError):
            evaluate_index(ibag, patterns, [Query("cricket", 1)], repeats=0)
        for repeats in (2.5, True):
            with pytest.raises(ValueError, match=f"repeats must be an int, got {repeats!r}"):
                evaluate_index(ibag, patterns, [Query("cricket", 1)], repeats=repeats)

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
        [
            ({"n_pairs": -3}, "n_pairs must be >= 0"),
            ({"n_pairs": 2, "ks": ()}, "ks must name"),
            ({"n_pairs": 2.5}, "n_pairs must be an int, got 2.5"),
            ({"n_pairs": True}, "n_pairs must be an int, got True"),
            ({"n_pairs": 2, "ks": (0,)}, r"ks\[0\] must be >= 1, got 0"),
            ({"n_pairs": 2, "ks": (2.5,)}, r"ks\[0\] must be an int, got 2.5"),
            ({"n_pairs": 2, "ks": (20, -1)}, r"ks\[1\] must be >= 1, got -1"),
        ],
        ids=["negative-pairs", "no-ks", "float-pairs", "bool-pairs", "zero-k", "float-k",
             "negative-second-k"],
    )
    def test_bad_arguments_rejected(self, kwargs, message, monkeypatch):
        def no_build(*args):
            raise AssertionError("built a corpus before checking the arguments")

        monkeypatch.setattr("ibagsearch.evaluation.synth_corpus", no_build)
        with pytest.raises(ValueError, match=message):
            hr_direction_experiment(**kwargs)

    def test_bad_ontologies_rejected_before_any_build(self, monkeypatch):
        monkeypatch.setattr("ibagsearch.evaluation.synth_corpus", TestBenchmark.no_build)
        with pytest.raises(ValidationError, match="at least one ontology is required"):
            hr_direction_experiment(n_pairs=3, ontologies=())
        twice = (flat_ontology(["alpha"]), flat_ontology(["beta"]))
        with pytest.raises(ValidationError, match="ontology ids must be unique"):
            hr_direction_experiment(n_pairs=3, ontologies=twice)

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
