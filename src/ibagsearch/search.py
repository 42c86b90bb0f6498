"""End-to-end query pipelines: plain range selection and mask-filtered search."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .bitmask import PatternStore, find_predicted_webpage_list, gen_mask_bit_pattern
from .ibag import IBAG, select_by_range

BEFORE_MASKING = "before_masking"
AFTER_MASKING = "after_masking"


def parse_relevance_range(text: str) -> tuple[float, float]:
    """Parse a ``lo:hi`` range; ``inf`` is accepted as the upper bound."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range {text!r} must look like lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"range {text!r} has non-numeric bounds") from None
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"range {text!r} has NaN bounds")
    if lo > hi:
        raise ValueError(f"range {text!r} has lo > hi")
    return lo, hi


@dataclass(frozen=True)
class Query:
    """One search request against one ontology.

    The default relevance range is unbounded and selects every supporting
    page, identical to passing the index's full [min, max] range.
    """

    search_string: str
    ontology_id: int
    relevance_range: tuple[float, float] = (0.0, math.inf)
    result_limit: int = 20

    def __post_init__(self) -> None:
        lo, hi = self.relevance_range
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"relevance range [{lo}, {hi}] has NaN bounds")
        if lo > hi:
            raise ValueError(f"invalid relevance range [{lo}, {hi}]")
        if self.result_limit < 1:
            raise ValueError(f"result_limit must be >= 1, got {self.result_limit}")


@dataclass(frozen=True)
class SearchOutcome:
    mode: str
    results: tuple[tuple[str, float], ...]
    selected_count: int
    visited_count: int
    elapsed: float


def search_before_masking(query: Query, ibag: IBAG) -> SearchOutcome:
    """Baseline: the first ``result_limit`` range-selected pages, unfiltered."""
    start = time.perf_counter()
    selected, visited = select_by_range(ibag, query.relevance_range, query.ontology_id)
    chosen = selected[: query.result_limit]
    elapsed = time.perf_counter() - start
    return SearchOutcome(
        mode=BEFORE_MASKING,
        results=tuple((node.url, node.mean_rel_val) for node in chosen),
        selected_count=len(selected),
        visited_count=visited,
        elapsed=elapsed,
    )


def search_after_masking(
    query: Query,
    ibag: IBAG,
    patterns: PatternStore,
    use_synonyms: bool = True,
) -> SearchOutcome:
    """Range selection followed by the XOR bit-mask filter."""
    ontology = ibag.ontology_by_id(query.ontology_id)
    start = time.perf_counter()
    mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms=use_synonyms)
    selected, visited = select_by_range(ibag, query.relevance_range, query.ontology_id)
    chosen = find_predicted_webpage_list(selected, patterns, mask, ontology, query.result_limit)
    elapsed = time.perf_counter() - start
    return SearchOutcome(
        mode=AFTER_MASKING,
        results=tuple((node.url, node.mean_rel_val) for node in chosen),
        selected_count=len(selected),
        visited_count=visited,
        elapsed=elapsed,
    )
