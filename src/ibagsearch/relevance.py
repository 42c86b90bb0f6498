"""Per-term and per-page relevance scoring against an ontology.

A term's relevance on a page is its weight times the number of occurrences
of the term plus all of its synonyms. A page's relevance is the sum over
every term; the page supports the ontology only when that sum strictly
exceeds the ontology's relevance limit.

:func:`page_relevance` counts every term through the ontology's phrase
table in one scan of the page, or takes the counts from a scan the caller
has made already: a crawl counts the terms of all its ontologies in one
scan of the page, through their tables merged into one. Either way the page
is scored from its counts through :func:`relevance_from_counts`, the one
scoring rule: each term's value is its weight, as a float, times its
count, the same float product whether a build or a load computes it.
``tests/oracles.py`` counts and scores each term phrase by phrase
(``oracle_term_value``), the reference the tests compare it against.

A :class:`PageRelevance` is immutable and keeps the counts it was scored
from, so one value can serve many pages: a crawl (``rpag.build_rpag``)
calls :func:`page_relevance` once per distinct count vector of an ontology,
and a load (``RPaG.from_json_obj``) calls :func:`relevance_from_counts` once
per stored row of counts; the pages with those counts share the result.
These are the only two ways to a graph's scores, so each of them follows
from its counts: a graph made by hand is an index file's ``rpag`` object,
and a load scores it.

A graph and its index hold those shared scores in columns, as the index
file stores their counts: per ontology a :class:`ScoreTable` of each
distinct score once (``rows``) and each page's row index (``of_node``), in
order of first use by p_id. A crawl fills each table as it keeps pages,
and a load decodes it from the file's rows. These tables are the only
home of the scores.
:class:`GraphScores` holds one graph's tables and makes each page's
``relevance``, the read-only per-ontology mapping a node carries, only when
something reads the nodes.
"""
from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import attrgetter, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .ontology import Ontology


class PageRelevance(NamedTuple):
    """One page scored against the ontology whose id keys its score table.

    ``relevance_value`` is forced to zero when the page does not clear the
    cutoff; the per-term vector is kept either way, indexed by bit position,
    and so are the term counts it was derived from, which an index file
    stores.
    A named tuple, not a frozen dataclass: a build or a load makes one per
    distinct row of counts, and a named tuple is cheaper to build and to hold.
    """

    relevance_value: float
    supported: bool
    term_vector: tuple[float, ...]
    counts: tuple[int, ...]


def relevance_from_counts(ontology: Ontology, counts: Sequence[int]) -> PageRelevance:
    """The page-level scoring rule: each term's value is its weight times its
    count; the page's value is their sum, compared to the cutoff.

    Building a graph and loading one from an index file both score through
    here, so a page's values and support always follow from its counts.
    """
    counts = tuple(counts)
    vector = tuple(map(mul, ontology.weights, counts))
    value = sum(vector)
    supported = value > ontology.relevance_limit
    return PageRelevance(value if supported else 0.0, supported, vector, counts)


def page_relevance(
    ontology: Ontology, tokens: Sequence[str], counts: Sequence[int] | None = None
) -> PageRelevance:
    """Score a tokenized page against every term of the ontology.

    ``counts``, when given, are the occurrences of each term in ``tokens``,
    indexed by bit position, as the ontology's phrase table counts them.
    """
    if counts is None:
        counts = ontology.phrase_table.count(tokens if isinstance(tokens, list) else list(tokens))
    return relevance_from_counts(ontology, counts)


class ScoreTable(NamedTuple):
    """One ontology's scores of a graph's pages: each distinct score once,
    and each page's row index, by p_id, rows in order of first use."""

    rows: list[PageRelevance]
    of_node: list[int]

    def per_node(self) -> list[PageRelevance]:
        """Each page's score, by p_id."""
        return list(map(self.rows.__getitem__, self.of_node))

    def field(self, name: str) -> list:
        """One field of each page's score, by p_id, read once per row."""
        return list(map(list(map(attrgetter(name), self.rows)).__getitem__, self.of_node))


class GraphScores:
    """The score tables of one graph's pages, by ontology id, and views of
    them made on first read and then kept: each page's ``relevance``, a
    read-only mapping of ontology id to score, which the graph's nodes and
    its index's nodes hold alike, and the support flags."""

    def __init__(self, tables: dict[int, ScoreTable]) -> None:
        self.tables = tables  # one per ontology, at least one

    @cached_property
    def relevances(self) -> list[Mapping[int, PageRelevance]]:
        """Each page's ``relevance`` mapping, by p_id."""
        ids = list(self.tables)
        rels = zip(*(table.per_node() for table in self.tables.values()))
        return list(map(MappingProxyType, map(dict, map(zip, repeat(ids), rels))))

    @cached_property
    def supports(self) -> dict[int, list[bool]]:
        """Per ontology id, each page's support flag, by p_id."""
        return {ont_id: table.field("supported") for ont_id, table in self.tables.items()}
