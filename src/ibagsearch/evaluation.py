"""Harvest-rate accuracy measurement, benchmark harness, and traversal-cost checks."""
from __future__ import annotations

import json
import logging
import random
import statistics
import time
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .bitmask import BitPattern, PatternStore, gen_mask_bit_pattern
from .bundle import IndexBundle
from .corpus import synth_corpus
from .ibag import IBAG, IBAGNode, build_ibag, select_columns
from .ontology import Ontology, OntologyTerm
from .rpag import RPaG
from .search import (
    AFTER_MASKING,
    BEFORE_MASKING,
    Query,
    first_matching_pages,
    search_after_masking,
    search_before_masking,
)

log = logging.getLogger(__name__)

CSV_HEADER = "size,mode,avg_count,avg_elapsed_us,avg_visited,hr_mean"
_BIT_OP_ITERATIONS = 200_000


@dataclass(frozen=True)
class HarvestReport:
    """Accuracy of a result list relative to the whole range selection.

    ``t_rel_sr`` is the mean search-term relevance over the result pages,
    ``t_rel_sw`` the same mean over every range-selected page, and ``hr``
    their ratio. Fields are None when undefined (empty sets or a zero
    selection mean).
    """

    t_rel_sr: float | None
    t_rel_sw: float | None
    hr: float | None


def harvest_rate(
    query: Query,
    result_pages: Sequence[IBAGNode],
    selected_pages: Sequence[IBAGNode],
    ibag: IBAG,
    use_synonyms: bool = True,
) -> HarvestReport:
    """Score pages by their stored relevance on the query's detected terms.

    No re-tokenization happens here: a page's score sums the indexed term
    relevance values at the mask's set positions.
    """
    ontology = ibag.ontology_by_id(query.ontology_id)
    mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms=use_synonyms)
    vectors = [node.relevance[mask.ontology_id].term_vector for node in result_pages]
    selected = [node.relevance[mask.ontology_id].term_vector for node in selected_pages]
    return _harvest_report(mask, vectors, selected)


def _harvest_report(
    mask: BitPattern,
    result_vectors: Sequence[Sequence[float]],
    selected_vectors: Sequence[Sequence[float]],
) -> HarvestReport:
    """The report from the term vectors of the result and selected pages."""
    positions = mask.positions()

    def score(vector: Sequence[float]) -> float:
        return sum(vector[p] for p in positions)

    t_rel_sw = statistics.fmean(map(score, selected_vectors)) if selected_vectors else None
    t_rel_sr = statistics.fmean(map(score, result_vectors)) if result_vectors else None
    hr = None
    if t_rel_sr is not None and t_rel_sw is not None and t_rel_sw > 0:
        hr = t_rel_sr / t_rel_sw
    return HarvestReport(t_rel_sr=t_rel_sr, t_rel_sw=t_rel_sw, hr=hr)


@dataclass(frozen=True)
class ModeComparison:
    """One query answered in both modes, with each result list's harvest report."""

    term_count: int
    selected_count: int
    visited_count: int
    before_count: int
    after_count: int
    before: HarvestReport
    after: HarvestReport


def compare_modes(
    query: Query, ibag: IBAG, patterns: PatternStore, use_synonyms: bool = True
) -> ModeComparison:
    """Answer ``query`` before and after masking from one mask and one range
    selection, and score both result lists against that selection.

    The selection comes from the same columns the search paths read, but all
    of it is materialized: the harvest rate averages over every selected page.
    """
    ontology = ibag.ontology_by_id(query.ontology_id)
    mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms=use_synonyms)
    slices, selected_count, visited = select_columns(
        ibag, query.relevance_range, query.ontology_id
    )
    selected = [p for p_ids, start, stop in slices for p in p_ids[start:stop]]
    before = selected[: query.result_limit]
    page_bits = patterns.bits_for_ontology(query.ontology_id)
    after = first_matching_pages(slices, page_bits, mask.bits, query.result_limit)
    rows, of_node = ibag.node_columns.scores.tables[query.ontology_id]

    def vectors(p_ids: list[int]) -> list[tuple[float, ...]]:
        return [rows[of_node[p]].term_vector for p in p_ids]

    selected_vectors = vectors(selected)
    return ModeComparison(
        term_count=len(mask.positions()),
        selected_count=selected_count,
        visited_count=visited,
        before_count=len(before),
        after_count=len(after),
        before=_harvest_report(mask, vectors(before), selected_vectors),
        after=_harvest_report(mask, vectors(after), selected_vectors),
    )


@dataclass(frozen=True)
class QueryRun:
    """Measured numbers for one query against one index, both modes."""

    query: Query
    modes: ModeComparison
    before_elapsed: float
    after_elapsed: float


def evaluate_index(
    ibag: IBAG,
    patterns: PatternStore,
    queries: Sequence[Query],
    *,
    repeats: int = 5,
) -> list[QueryRun]:
    """Run every query in both modes; elapsed is the median of ``repeats`` runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    def run_one(query: Query) -> QueryRun:
        modes = compare_modes(query, ibag, patterns)
        before_elapsed = statistics.median(
            search_before_masking(query, ibag).elapsed for _ in range(repeats)
        )
        after_elapsed = statistics.median(
            search_after_masking(query, ibag, patterns).elapsed for _ in range(repeats)
        )
        return QueryRun(query, modes, before_elapsed, after_elapsed)

    return [run_one(query) for query in queries]


@dataclass(frozen=True)
class BenchRow:
    size: int
    mode: str
    avg_count: float
    avg_elapsed_us: float
    avg_visited: float
    hr_mean: float | None


@dataclass(frozen=True)
class QueryDiagnostics:
    search_string: str
    ontology_id: int
    result_limit: int
    term_count: int


@dataclass
class BenchReport:
    rng_seed: int
    rows: list[BenchRow]
    queries: list[QueryDiagnostics]
    bit_op_seconds: float

    @classmethod
    def from_runs(
        cls, rng_seed: int, rows: list[BenchRow], runs: Sequence[QueryRun]
    ) -> "BenchReport":
        """A report over ``rows``, with one diagnostics entry per query run."""
        queries = [
            QueryDiagnostics(
                search_string=run.query.search_string,
                ontology_id=run.query.ontology_id,
                result_limit=run.query.result_limit,
                term_count=run.modes.term_count,
            )
            for run in runs
        ]
        return cls(rng_seed, rows, queries, bit_op_seconds=measure_bit_op_seconds())

    def to_json_obj(self) -> dict:
        return asdict(self)

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            hr = "" if row.hr_mean is None else f"{row.hr_mean:.6f}"
            lines.append(
                f"{row.size},{row.mode},{row.avg_count:.3f},"
                f"{row.avg_elapsed_us:.3f},{row.avg_visited:.3f},{hr}"
            )
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / "report.json"
        csv_path = out_dir / "report.csv"
        json_path.write_text(
            json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        csv_path.write_text(self.csv_text(), encoding="utf-8")
        return json_path, csv_path


def aggregate_runs(size: int, runs: Sequence[QueryRun]) -> list[BenchRow]:
    """Fold per-query runs into one row per mode."""
    per_mode = (
        (BEFORE_MASKING, attrgetter("modes.before_count", "before_elapsed", "modes.before")),
        (AFTER_MASKING, attrgetter("modes.after_count", "after_elapsed", "modes.after")),
    )
    rows = []
    for mode, pick in per_mode:
        counts, elapsed, reports = zip(*map(pick, runs))
        defined = [report.hr for report in reports if report.hr is not None]
        rows.append(
            BenchRow(
                size=size,
                mode=mode,
                avg_count=statistics.fmean(counts),
                avg_elapsed_us=statistics.fmean(elapsed) * 1e6,
                avg_visited=statistics.fmean(run.modes.visited_count for run in runs),
                hr_mean=statistics.fmean(defined) if defined else None,
            )
        )
    return rows


def measure_bit_op_seconds() -> float:
    """Rough per-operation cost of one 64-bit XOR (loop overhead included)."""
    a = (1 << 64) - 1
    b = a >> 1
    start = time.perf_counter()
    x = 0
    for _ in range(_BIT_OP_ITERATIONS):
        x = a ^ b
    elapsed = time.perf_counter() - start
    del x
    return elapsed / _BIT_OP_ITERATIONS


def run_benchmark(
    corpus_sizes: Sequence[int],
    query_set: Sequence[Query],
    rng_seed: int,
    *,
    ontologies: Sequence[Ontology] | None = None,
    repeats: int = 5,
) -> BenchReport:
    """Build a synthetic index at each size and measure every query, both modes."""
    sizes = list(corpus_sizes)
    if not sizes:
        raise ValueError("corpus_sizes must not be empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("corpus sizes must be strictly ascending")
    queries = list(query_set)
    if not queries:
        raise ValueError("query set must not be empty")
    if ontologies is None:
        from .bundled import default_ontologies

        ontologies = default_ontologies()
    ontologies = tuple(ontologies)

    rows: list[BenchRow] = []
    for size in sizes:
        corpus = synth_corpus(rng_seed * 1_000_003 + size, size, ontologies)
        bundle = IndexBundle.build(corpus, ontologies)
        runs = evaluate_index(bundle.ibag, bundle.patterns, queries, repeats=repeats)
        rows.extend(aggregate_runs(size, runs))
        log.info("benchmarked size %d: %d index pages", size, len(bundle.ibag))
    # a run's term count depends only on its query, so every size gives the same diagnostics
    return BenchReport.from_runs(rng_seed, rows, runs)


def traversal_cost_check(m_levels: int, pages_per_level: int) -> float:
    """Mean visits to reach a page via its level head plus a chain walk.

    Builds an index with exactly ``m_levels`` levels of ``pages_per_level``
    supporting pages each, then for every page restarts at its level head
    and counts nodes touched until the page is reached. With L pages per
    level the mean is (L + 1) / 2 regardless of the level count.
    """
    if m_levels < 1:
        raise ValueError(f"m_levels must be >= 1, got {m_levels}")
    if pages_per_level < 1:
        raise ValueError(f"pages_per_level must be >= 1, got {pages_per_level}")
    probe = Ontology(
        ontology_id=1,
        name="probe",
        terms=(OntologyTerm(term="probe", weight=1.0),),
        relevance_limit=0.0,
    )
    # page i of a level counts the term L - i times, so the level sorts in
    # page order, and its parent is the first page of the level above
    pages = range(pages_per_level)
    graph = {
        "urls": [f"page-{p_id}" for p_id in range(m_levels * pages_per_level)],
        "pp_ids": [
            [(level - 1) * pages_per_level] if level else []
            for level in range(m_levels)
            for _ in pages
        ],
        "counts": {
            "1": {"rows": [[pages_per_level - i] for i in pages], "of_node": [*pages] * m_levels}
        },
    }
    ibag = build_ibag(RPaG.from_json_obj(graph, (probe,)))

    total_visits = 0
    total_pages = 0
    for level in range(m_levels):
        targets = [node.p_id for node in ibag.iter_chain(level, 1)]
        for target in targets:
            visits = 0
            for node in ibag.iter_chain(level, 1):
                visits += 1
                if node.p_id == target:
                    break
            total_visits += visits
            total_pages += 1
    return total_visits / total_pages


@dataclass(frozen=True)
class HRDirectionResult:
    """Outcome of the seeded harvest-rate direction experiment."""

    pairs_total: int
    pairs_valid: int
    pairs_after_ge_before: int


def hr_direction_counts(comparisons: Iterable[ModeComparison]) -> tuple[int, int]:
    """The harvest-rate direction rule: of the queries whose two rates are
    both defined (an empty result has none), how many there are, and in how
    many the after rate is at least the before rate. A tie counts for after."""
    comparable = [m for m in comparisons if m.before.hr is not None and m.after.hr is not None]
    return len(comparable), sum(m.after.hr >= m.before.hr for m in comparable)


_FILLER_WORDS = ("best", "today", "guide", "report", "review", "latest")


def hr_direction_experiment(
    n_pairs: int = 100,
    ks: Sequence[int] = (20, 50, 100),
    rng_seed: int = 20260809,
    *,
    ontologies: Sequence[Ontology] | None = None,
) -> HRDirectionResult:
    """Seeded (corpus, query) pairs comparing harvest rates of both modes.

    Each pair uses the full [min, max] mean-relevance range, so the
    selection covers every supporting page. The pairs count as
    :func:`hr_direction_counts` counts them.
    """
    if n_pairs < 0:
        raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
    if not ks:
        raise ValueError("ks must name at least one result limit")
    if ontologies is None:
        from .bundled import default_ontologies

        ontologies = default_ontologies()
    ontologies = tuple(ontologies)
    master = random.Random(rng_seed)
    comparisons = []
    for i in range(n_pairs):
        corpus_seed = master.randrange(2**31)
        n_docs = master.randint(80, 160)
        ontology = ontologies[master.randrange(len(ontologies))]
        chosen_terms = master.sample(list(ontology.terms), k=master.randint(1, 2))
        words = [term.phrases()[master.randrange(len(term.phrases()))] for term in chosen_terms]
        words.extend(master.sample(_FILLER_WORDS, k=master.randint(0, 2)))
        search_string = " ".join(words)
        k = ks[i % len(ks)]

        corpus = synth_corpus(corpus_seed, n_docs, ontologies)
        bundle = IndexBundle.build(corpus, ontologies)
        bounds = bundle.ibag.mean_value_bounds()
        if bounds is None:
            continue
        query = Query(
            search_string=search_string,
            ontology_id=ontology.ontology_id,
            relevance_range=bounds,
            result_limit=k,
        )
        comparisons.append(compare_modes(query, bundle.ibag, bundle.patterns))
    valid, after_ge_before = hr_direction_counts(comparisons)
    return HRDirectionResult(
        pairs_total=n_pairs,
        pairs_valid=valid,
        pairs_after_ge_before=after_ge_before,
    )
