"""Ontology-driven domain search: relevance graphs, a leveled index, and
Boolean bit-mask query filtering, with a harvest-rate evaluation harness."""
from __future__ import annotations

from importlib import import_module

# each public name and the module that defines it; a name's module is
# imported on first access (PEP 562), so importing one module of the
# package, such as ``ibagsearch.cli``, does not import the others
_HOMES = {
    "bitmask": (
        "BitPattern",
        "PatternStore",
        "find_predicted_webpage_list",
        "gen_ibag_bit_patterns",
        "gen_mask_bit_pattern",
        "gen_webpage_bit_pattern",
        "mask_match",
        "xor_patterns",
    ),
    "bundle": ("IndexBundle",),
    "corpus": (
        "Corpus",
        "CorpusDoc",
        "load_corpus",
        "synth_corpus",
    ),
    "errors": ("IbagSearchError", "ParseError", "ValidationError"),
    "evaluation": (
        "BenchReport",
        "BenchRow",
        "HarvestReport",
        "HRDirectionResult",
        "QueryRun",
        "evaluate_index",
        "hr_direction_experiment",
        "run_benchmark",
        "traversal_cost_check",
    ),
    "ibag": ("IBAG", "IBAGNode", "build_ibag", "select_by_range", "select_columns"),
    "ontology": (
        "LimitsConfig",
        "Ontology",
        "OntologyTerm",
        "load_limits",
        "load_ontology",
        "normalize_phrase",
        "normalize_text",
    ),
    "relevance": ("PageRelevance", "page_relevance"),
    "rpag": ("RPaG", "RPaGNode", "build_rpag"),
    "search": (
        "Query",
        "SearchOutcome",
        "parse_relevance_range",
        "search_after_masking",
        "search_before_masking",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])


__version__ = "0.1.0"
