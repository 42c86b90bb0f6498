"""End-to-end query pipelines: plain range selection and mask-filtered search.

Both modes read the index's supporter columns (:func:`select_columns`),
stop as soon as ``result_limit`` pages are in hand, and read each page's
url and mean from the index's columns; a query's ``elapsed`` covers all of
that. The after-masking filter keeps a page when its pattern shares a set
bit with a nonzero mask, which is what the paper's XOR test
(:func:`mask_match`) decides. The chain walk :func:`select_by_range` and
the XOR filter :func:`find_predicted_webpage_list` are the reference the
tests compare these paths with. A query's answer is a
:class:`SearchOutcome` named tuple. :class:`Query` is the one check of a
query's range and limit, and :func:`select_columns` takes it checked.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from numbers import Real
from typing import NamedTuple

from .bitmask import PatternStore, gen_mask_bit_pattern
from .errors import check_count, check_int
from .ibag import IBAG, RangeSlices, select_columns

# the reference paths, not called here: the benchmark's traced run wraps them
# by the names this module binds
from .bitmask import find_predicted_webpage_list  # noqa: F401
from .ibag import select_by_range  # noqa: F401

BEFORE_MASKING = "before_masking"
AFTER_MASKING = "after_masking"


def parse_relevance_range(text: str) -> tuple[float, float]:
    """Parse the ``lo:hi`` syntax, two floats (``inf`` too); :class:`Query` checks them."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range {text!r} must look like lo:hi")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"range {text!r} has non-numeric bounds") from None


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
        if not isinstance(self.search_string, str):
            raise ValueError(f"search_string must be a str, got {self.search_string!r}")
        check_int(self.ontology_id, "ontology_id")
        check_count(self.result_limit, "result_limit")
        if not isinstance(self.relevance_range, tuple) or len(self.relevance_range) != 2:
            raise ValueError(f"relevance_range must be a 2-tuple, got {self.relevance_range!r}")
        lo, hi = self.relevance_range
        for bound in (lo, hi):
            if not isinstance(bound, Real) or isinstance(bound, bool):
                raise ValueError(f"relevance range bound {bound!r} is not a real number")
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"relevance range [{lo}, {hi}] has NaN bounds")
        if lo > hi:
            raise ValueError(f"invalid relevance range [{lo}, {hi}]")


class SearchOutcome(NamedTuple):
    """One query's answer. ``elapsed`` runs from the query's first step,
    the mask in after-masking mode, until its ``results`` are built. A
    named tuple: every search call builds one, for under a third of a
    frozen dataclass's cost.
    """

    mode: str
    results: tuple[tuple[str, float], ...]
    selected_count: int
    visited_count: int
    elapsed: float


def first_pages(slices: RangeSlices, limit: int) -> list[int]:
    """The p_ids of the first ``limit`` selected pages, in traversal order."""
    chosen: list[int] = []
    for p_ids, start, stop in slices:
        chosen += p_ids[start : min(stop, start + limit - len(chosen))]
        if len(chosen) == limit:
            break
    return chosen


def first_matching_pages(
    slices: RangeSlices,
    page_bits: list[int],
    mask_bits: int,
    limit: int,
) -> list[int]:
    """The p_ids of the first ``limit`` selected pages whose pattern shares
    a set bit with the mask, in traversal order; an all-zero mask matches
    nothing."""
    chosen: list[int] = []
    if not mask_bits:
        return chosen
    add = chosen.append
    for p_ids, start, stop in slices:
        # an inline test, no call per page: this loop is most of a masked
        # query. A whole level, which a range like 0:inf selects, is walked
        # as the list itself, faster than through an islice.
        for p in p_ids if stop - start == len(p_ids) else islice(p_ids, start, stop):
            if page_bits[p] & mask_bits:
                add(p)
                limit -= 1
                if not limit:
                    return chosen
    return chosen


def _results(ibag: IBAG, chosen: list[int]) -> tuple[tuple[str, float], ...]:
    """(url, mean) of each chosen page, read from the index's columns."""
    columns = ibag.node_columns
    urls, means = columns.url, columns.mean_rel_val
    return tuple([(urls[p], means[p]) for p in chosen])


def search_before_masking(query: Query, ibag: IBAG) -> SearchOutcome:
    """Baseline: the first ``result_limit`` range-selected pages, unfiltered."""
    start = time.perf_counter()
    slices, selected, visited = select_columns(ibag, query)
    results = _results(ibag, first_pages(slices, query.result_limit))
    elapsed = time.perf_counter() - start
    return SearchOutcome(BEFORE_MASKING, results, selected, visited, elapsed)


def search_after_masking(
    query: Query,
    ibag: IBAG,
    patterns: PatternStore,
    use_synonyms: bool = True,
) -> SearchOutcome:
    """Range selection followed by the bit-mask filter."""
    ontology = ibag.ontology_by_id(query.ontology_id)
    start = time.perf_counter()
    mask = gen_mask_bit_pattern(query.search_string, ontology, use_synonyms)
    slices, selected, visited = select_columns(ibag, query)
    page_bits = patterns.bits_for_ontology(query.ontology_id)
    results = _results(
        ibag, first_matching_pages(slices, page_bits, mask.bits, query.result_limit)
    )
    elapsed = time.perf_counter() - start
    return SearchOutcome(AFTER_MASKING, results, selected, visited, elapsed)
