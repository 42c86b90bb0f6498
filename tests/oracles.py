"""Independent reimplementations used as test oracles.

These deliberately avoid the package's own counting and traversal code:
tokenization walks characters, occurrence counting enumerates all match
alignments before picking non-overlapping ones, and traversal order is
reconstructed by sorting.
"""
from __future__ import annotations

import math
import re

from ibagsearch import IBAG, HarvestReport, Ontology, OntologyTerm

_TAG = re.compile(r"<[^>]*>")


def oracle_tokens(text: str) -> list[str]:
    out: list[str] = []
    current: list[str] = []
    for ch in _TAG.sub(" ", text).lower():
        if ch.isascii() and ch.isalnum():
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def oracle_count(tokens: list[str], phrase: str) -> int:
    """All match alignments, then greedy non-overlapping selection."""
    words = phrase.split(" ")
    w = len(words)
    starts = [i for i in range(len(tokens) - w + 1) if tokens[i : i + w] == words]
    count = 0
    next_free = 0
    for start in starts:
        if start >= next_free:
            count += 1
            next_free = start + w
    return count


def oracle_term_value(term: OntologyTerm, tokens: list[str]) -> float:
    occurrences = oracle_count(tokens, term.term)
    for synonym in term.synonyms:
        occurrences += oracle_count(tokens, synonym)
    return term.weight * occurrences


def oracle_page_vector(ontology: Ontology, tokens: list[str]) -> list[float]:
    return [oracle_term_value(term, tokens) for term in ontology.terms]


def oracle_mask_positions(
    ontology: Ontology, search_string: str, use_synonyms: bool = True
) -> list[int]:
    tokens = oracle_tokens(search_string)
    positions = []
    for position, term in enumerate(ontology.terms):
        phrases = (term.term, *term.synonyms) if use_synonyms else (term.term,)
        if any(oracle_count(tokens, phrase) for phrase in phrases):
            positions.append(position)
    return positions


def oracle_harvest(
    ontology: Ontology,
    search_string: str,
    result_nodes: list,
    selected_nodes: list,
    use_synonyms: bool = True,
) -> HarvestReport:
    """Mean search-term relevance of the result pages and of the selected
    pages, read from each node's term vector at the query's term positions,
    and their ratio where both are defined and the selection mean is
    positive."""
    positions = oracle_mask_positions(ontology, search_string, use_synonyms)

    def mean(nodes: list) -> float | None:
        if not nodes:
            return None
        vectors = [node.term_vectors[ontology.ontology_id] for node in nodes]
        return math.fsum(sum(vector[p] for p in positions) for vector in vectors) / len(nodes)

    t_rel_sr, t_rel_sw = mean(result_nodes), mean(selected_nodes)
    hr = t_rel_sr / t_rel_sw if t_rel_sr is not None and t_rel_sw else None
    return HarvestReport(t_rel_sr=t_rel_sr, t_rel_sw=t_rel_sw, hr=hr)


def oracle_traversal_order(ibag: IBAG) -> list:
    return sorted(ibag.nodes, key=lambda n: (n.level, -n.mean_rel_val, n.p_id))


def oracle_range_selection(
    ibag: IBAG, ontology_id: int, lo: float, hi: float
) -> list:
    return [
        node
        for node in oracle_traversal_order(ibag)
        if node.supported[ontology_id] and lo <= node.mean_rel_val <= hi
    ]


def oracle_predicted_urls(
    ibag: IBAG,
    ontology: Ontology,
    search_string: str,
    lo: float,
    hi: float,
    result_limit: int,
    use_synonyms: bool = True,
) -> list[str]:
    """Range filter plus 'some search term beats its limit', truncated."""
    positions = oracle_mask_positions(ontology, search_string, use_synonyms)
    urls: list[str] = []
    for node in oracle_range_selection(ibag, ontology.ontology_id, lo, hi):
        vector = node.term_vectors[ontology.ontology_id]
        if any(
            vector[p] > ontology.terms[p].term_relevance_limit for p in positions
        ):
            urls.append(node.url)
            if len(urls) == result_limit:
                break
    return urls
