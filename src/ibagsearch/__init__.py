"""Ontology-driven domain search: relevance graphs, a leveled index, and
Boolean bit-mask query filtering, with a harvest-rate evaluation harness."""
from __future__ import annotations

from .bitmask import (
    BitPattern,
    PatternStore,
    find_predicted_webpage_list,
    gen_ibag_bit_patterns,
    gen_mask_bit_pattern,
    gen_webpage_bit_pattern,
    mask_match,
    xor_patterns,
)
from .bundle import IndexBundle
from .corpus import Corpus, CorpusDoc, GenerationConfig, load_corpus, save_corpus, synth_corpus
from .errors import IbagSearchError, ParseError, ValidationError
from .evaluation import (
    BenchReport,
    BenchRow,
    HarvestReport,
    HRDirectionResult,
    QueryRun,
    evaluate_index,
    harvest_rate,
    hr_direction_experiment,
    run_benchmark,
    traversal_cost_check,
)
from .ibag import IBAG, IBAGNode, build_ibag, select_by_range, select_columns
from .ontology import (
    LimitsConfig,
    Ontology,
    OntologyTerm,
    count_occurrences,
    load_limits,
    load_ontology,
    normalize_phrase,
    normalize_text,
)
from .relevance import PageRelevance, page_relevance, term_relevance_value
from .rpag import RPaG, RPaGNode, build_rpag
from .search import (
    Query,
    SearchOutcome,
    parse_relevance_range,
    search_after_masking,
    search_before_masking,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRow",
    "BitPattern",
    "Corpus",
    "CorpusDoc",
    "GenerationConfig",
    "HRDirectionResult",
    "HarvestReport",
    "IBAG",
    "IBAGNode",
    "IbagSearchError",
    "IndexBundle",
    "LimitsConfig",
    "Ontology",
    "OntologyTerm",
    "PageRelevance",
    "ParseError",
    "PatternStore",
    "Query",
    "QueryRun",
    "RPaG",
    "RPaGNode",
    "SearchOutcome",
    "ValidationError",
    "build_ibag",
    "build_rpag",
    "count_occurrences",
    "evaluate_index",
    "find_predicted_webpage_list",
    "gen_ibag_bit_patterns",
    "gen_mask_bit_pattern",
    "gen_webpage_bit_pattern",
    "harvest_rate",
    "hr_direction_experiment",
    "load_corpus",
    "load_limits",
    "load_ontology",
    "mask_match",
    "normalize_phrase",
    "normalize_text",
    "page_relevance",
    "parse_relevance_range",
    "run_benchmark",
    "save_corpus",
    "search_after_masking",
    "search_before_masking",
    "select_by_range",
    "select_columns",
    "synth_corpus",
    "term_relevance_value",
    "traversal_cost_check",
    "xor_patterns",
]
