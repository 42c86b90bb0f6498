"""Relevance page graph: the crawl-order repository of relevant pages.

The builder walks the corpus link graph breadth-first from the seeds,
tokenizes every reachable document once, counts the terms of every
ontology in one scan of it through their phrase tables merged into one
(``PhraseTable.merge``), scores each ontology's slice of the counts
(``PhraseTable.split``) through ``page_relevance``, and keeps a node only
for documents that support at least one ontology. Links out of
non-supporting documents are still followed, so relevant pages reachable
only through irrelevant ones are not lost.

Term vectors barely vary between pages, so one crawl scores each distinct
count vector of an ontology once, keyed by the counts: every page with
those counts shares the one immutable ``PageRelevance``, and its term
vector tuple with it. The memo is local to the call.

A graph's only state is its pages in columns (:class:`GraphColumns`), as
the index file stores them: the urls, the parent lists, and per ontology a
``ScoreTable`` of each distinct score once (``rows``, in order of first
use by p_id) with each page's row index (``of_node``). A crawl and a load
make only these columns. ``RPaG(nodes=...)`` checks its nodes
(:data:`GRAPH_FACTS`) and turns them into columns once, a score that
several nodes share one row. :attr:`RPaG.nodes` makes the
:class:`RPaGNode` values on first read and keeps them; they are read-only,
so an edit makes new nodes and a new graph from them. One layout path,
``build_ibag``, reads the columns.

Loading a saved graph (:meth:`RPaG.from_json_obj`) checks each
ontology's rows of counts (:data:`ROW_FACTS`), scores each row once
through ``relevance_from_counts``, checks that the row indexes use every
row, first in row order, so an accepted graph saves back to the same
bytes, then checks the pages' urls and parents (:data:`GRAPH_FACTS`).
Each fact is written once, as lazy flags and a message (``errors.Fact``);
the index's own facts are checked by the layout ``build_ibag`` ends in.
"""
from __future__ import annotations

import logging
from collections import deque
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import eq, ge, is_, le, lt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import Corpus
from .errors import Fact, ValidationError, check_facts, json_field
from .ibag import IBAG, P_ID, RELEVANCE_KIND, URL_IS_STR, VECTOR_LENGTHS, FactColumns
from .ibag import build_ibag, relevance_keys_match
from .ontology import Ontology, PhraseTable, normalize_text
from .relevance import (
    GraphScores,
    PageRelevance,
    ScoreTable,
    page_relevance,
    relevance_from_counts,
)

log = logging.getLogger(__name__)

MAX_PARENTS = 4


class RPaGNode(NamedTuple):
    """One relevant page, a read-only value: identity, up to four parents,
    per-ontology scores (read-only in the nodes of :attr:`RPaG.nodes`)."""

    p_id: int
    url: str
    pp_ids: tuple[int, ...]
    relevance: Mapping[int, PageRelevance]


class GraphColumns(NamedTuple):
    """A graph's node facts, one column each, by p_id: the urls, the parent
    lists (as given, for a graph of nodes) and the score tables."""

    urls: list[str]
    pp_ids: list[Sequence[int]]
    scores: GraphScores


class RPaG:
    """The graph's pages, dense in p_id in discovery order, plus the
    ontologies. Its columns are its only state: a crawl or a load makes
    them, and a graph of nodes is turned into them once, after its nodes
    are checked. The nodes are read-only values made from the columns on
    first read and kept."""

    def __init__(
        self,
        nodes: Sequence[RPaGNode] | None = None,
        ontologies: Sequence[Ontology] = (),
        columns: GraphColumns | None = None,
    ) -> None:
        self.ontologies = tuple(ontologies)
        if columns is None:
            nodes = list(nodes or ())
            graph = FactColumns(
                *([getattr(node, name) for node in nodes] for name in ("url", "pp_ids", "p_id")),
                relevances=[node.relevance for node in nodes],
                ontologies=self.ontologies,
            )
            check_facts(GRAPH_FACTS, graph)
            ids = [ont.ontology_id for ont in self.ontologies]
            scores = GraphScores.shared(graph.relevances, ids)
            columns = GraphColumns(graph.urls, graph.pp_ids, scores)
        self.columns = columns

    @cached_property
    def nodes(self) -> tuple[RPaGNode, ...]:
        """One node per page, by p_id, made from the columns on first read."""
        urls, pp_ids, scores = self.columns
        return tuple(map(RPaGNode, count(), urls, map(tuple, pp_ids), scores.relevances))

    def __len__(self) -> int:
        return len(self.columns.urls)

    def validate(self) -> IBAG:
        """Check the urls and parents (:data:`GRAPH_FACTS`) and return the
        index :func:`build_ibag` lays out, which checks the index's facts.
        Build and load do not call this."""
        check_facts(GRAPH_FACTS, FactColumns(*self.columns[:2]))
        return build_ibag(self)

    def to_json_obj(self) -> dict:
        """Only the inputs, in columns: scores, support and every index
        structure derive from them. Each distinct count vector of an
        ontology is one row, numbered in order of first use by p_id."""
        urls, pp_ids, scores = self.columns
        counts = {}
        for ont in self.ontologies:
            table = scores.tables[ont.ontology_id]
            rows: dict[tuple[int, ...], int] = {}
            renumbered = [rows.setdefault(rel.counts, len(rows)) for rel in table.rows]
            # with every row's counts distinct, each row keeps its number
            of_node = (
                list(table.of_node)
                if len(rows) == len(renumbered)
                else list(map(renumbered.__getitem__, table.of_node))
            )
            counts[str(ont.ontology_id)] = {"of_node": of_node, "rows": list(map(list, rows))}
        return {"counts": counts, "pp_ids": list(map(list, pp_ids)), "urls": list(urls)}

    @staticmethod
    def from_json_obj(obj: object, ontologies: Sequence[Ontology]) -> "RPaG":
        """Decode the columns (p_id is the list index), checking shapes,
        :data:`ROW_FACTS`, row indexes and :data:`GRAPH_FACTS`, and score
        each row of counts once. The index's facts are checked by
        :func:`build_ibag`, which a bundle load runs on the result."""
        ontologies = tuple(ontologies)
        if not isinstance(obj, dict):
            raise ValidationError("graph section must be an object")
        urls = json_field(obj, "urls", list, "graph")
        pp_ids = json_field(obj, "pp_ids", list, "graph")
        tables = json_field(obj, "counts", dict, "graph")
        if tables.keys() != {str(ont.ontology_id) for ont in ontologies}:
            raise ValidationError("graph counts keys mismatch the ontologies")
        if len(pp_ids) != len(urls):
            raise ValidationError(f"graph has {len(urls)} urls but {len(pp_ids)} parent lists")
        scores = {
            ont.ontology_id: _score_table(ont, tables[str(ont.ontology_id)], len(urls))
            for ont in ontologies
        }
        check_facts(GRAPH_FACTS, FactColumns(urls, pp_ids))
        return RPaG(
            ontologies=ontologies,
            columns=GraphColumns(urls, pp_ids, GraphScores(scores, len(urls))),
        )


def _score_table(ont: Ontology, table: object, node_count: int) -> ScoreTable:
    """One ontology's ``rows`` and ``of_node``, checked, with every row
    scored once: the score the nodes that use the row share."""
    where = f"graph counts {ont.ontology_id}"
    rows = json_field(table, "rows", list, where)
    of_node = json_field(table, "of_node", list, where)
    if len(of_node) != node_count:
        raise ValidationError(f"{where} has {len(of_node)} row indexes for {node_count} nodes")
    check_facts(ROW_FACTS, _Rows(rows, ont.t, where))
    shared = list(map(relevance_from_counts, repeat(ont), rows))
    if set(map(type, of_node)) - {int}:
        raise ValidationError(f"{where} row indexes must be integers")
    # each row is first used after the rows before it, and every row is used
    first_use = list(dict.fromkeys(of_node))
    if first_use != list(range(len(rows))):
        bad = next((i for i in of_node if not 0 <= i < len(rows)), None)
        if bad is not None:
            raise ValidationError(f"{where} row index {bad} is out of range")
        if len(first_use) < len(rows):
            unused = min(set(range(len(rows))).difference(first_use))
            raise ValidationError(f"{where} row {unused} is used by no node")
        raise ValidationError(f"{where} rows are not in order of first use")
    return ScoreTable(shared, of_node)


def _ints(values: Iterable) -> Iterator[bool]:
    return map(is_, map(type, values), repeat(int))


def _not_negative(values: Iterable) -> Iterator[bool]:
    return map(le, repeat(0), values)


def _parents(graph: FactColumns) -> Iterator:
    return chain.from_iterable(graph.pp_ids)


def _parent_counts(graph: FactColumns) -> Iterator[int]:
    return map(len, graph.pp_ids)


def _largest_parents_earlier(graph: FactColumns) -> Iterator[bool]:
    """Whether each node's largest parent is below its p_id: one flag for
    each node that has parents."""
    return map(lt, map(max, filter(None, graph.pp_ids)), compress(count(), graph.pp_ids))


def _parent_message(graph: FactColumns, p_id: int) -> str:
    """The message naming the node's first parent that is no earlier node."""
    bad = next(pp for pp in graph.pp_ids[p_id] if type(pp) is not int or pp not in range(p_id))
    return f"node {p_id} parent {bad!r:.40} must reference an earlier node"


# The facts of each node of a graph, in the order a failure is named; a
# decoded graph has no p_ids or relevance mappings.
GRAPH_FACTS = (
    P_ID,
    URL_IS_STR,
    Fact(
        lambda graph: map(isinstance, graph.pp_ids, repeat((list, tuple))),
        lambda graph, i: f"graph pp_ids {i} must be a list, got {graph.pp_ids[i]!r:.40}",
    ),
    Fact(
        lambda graph: map(ge, repeat(MAX_PARENTS), _parent_counts(graph)),
        lambda graph, i: f"node {i} has more than {MAX_PARENTS} parents",
    ),
    Fact(lambda graph: _ints(_parents(graph)), _parent_message, _parent_counts),
    Fact(lambda graph: _not_negative(_parents(graph)), _parent_message, _parent_counts),
    Fact(_largest_parents_earlier, _parent_message, lambda graph: map(bool, graph.pp_ids)),
    RELEVANCE_KIND,
    Fact(relevance_keys_match, lambda graph, i: f"node {i} relevance keys mismatch the ontologies"),
    VECTOR_LENGTHS,
)


class _Rows(NamedTuple):
    """One ontology's rows of counts, as decoded, their length, and where."""

    rows: list
    t: int
    where: str


def _new_rows(rows: _Rows) -> Iterator[bool]:
    """Whether each row is unlike every earlier row: its own first index."""
    return map(eq, map({}.setdefault, map(tuple, rows.rows), count()), count())


def _row_lengths(rows: _Rows) -> Iterator[int]:
    return map(len, rows.rows)


def _counts_message(rows: _Rows, i: int) -> str:
    return f"{rows.where} row {i} must be {rows.t} non-negative integer counts"


# the least int that a conversion to float rounds past the largest float
_TOO_LARGE_FOR_FLOAT = 2**1024 - 2**970

# The facts of each row of one ontology's counts, in the order a failure
# is named: ``t`` (at least 1) non-negative int counts, not bools, unlike
# every earlier row, the largest small enough to convert to a float.
ROW_FACTS = (
    Fact(lambda rows: map(list.__instancecheck__, rows.rows), _counts_message),
    Fact(lambda rows: map(eq, _row_lengths(rows), repeat(rows.t)), _counts_message),
    Fact(lambda rows: _ints(chain.from_iterable(rows.rows)), _counts_message, _row_lengths),
    Fact(lambda rows: _not_negative(chain.from_iterable(rows.rows)), _counts_message, _row_lengths),
    Fact(_new_rows, lambda rows, i: f"{rows.where} row {i} repeats an earlier row"),
    Fact(
        lambda rows: map(lt, map(max, rows.rows), repeat(_TOO_LARGE_FOR_FLOAT)),
        lambda rows, i: f"{rows.where} row {i} holds a count too large for a float",
    ),
)


def build_rpag(corpus: Corpus, ontologies: Sequence[Ontology]) -> RPaG:
    """Crawl the corpus from its seeds and keep every supporting page.

    Parent lists are frozen when a page is dequeued: a node's pp_ids are
    the first (up to four) supporting pages that linked to it before it
    was processed, in link-discovery order. That rule keeps every parent's
    p_id below its child's, so the parent structure is acyclic.
    """
    ontologies = tuple(ontologies)
    if not ontologies:
        raise ValidationError("at least one ontology is required")
    if not corpus.seeds:
        raise ValidationError("corpus has no seeds")
    ids = [ont.ontology_id for ont in ontologies]
    if len(set(ids)) != len(ids):
        raise ValidationError("ontology ids must be unique")

    queue: deque[str] = deque()
    discovered: set[str] = set()
    for seed in corpus.seeds:
        if seed not in discovered:
            discovered.add(seed)
            queue.append(seed)
    processed: set[str] = set()
    # one scan of a page counts the terms of every ontology; each ontology
    # scores its own slice of the counts
    table = PhraseTable.merge([ont.phrase_table for ont in ontologies])
    count_terms, split = table.count, table.split
    # per ontology, the score of each distinct count vector, made once and
    # shared by every page that has those counts
    scorings = [(ont, {}) for ont in ontologies]
    pending_parents: dict[str, list[int]] = {}
    urls: list[str] = []
    pp_ids: list[list[int]] = []
    # per ontology, each kept page's score, by p_id
    kept: list[list[PageRelevance]] = [[] for _ in ontologies]

    while queue:
        url = queue.popleft()
        processed.add(url)
        doc = corpus.docs[url]
        tokens = normalize_text(doc.text)
        relevance = []
        for (ont, scored), counts in zip(scorings, split(count_terms(tokens))):
            counts = tuple(counts)
            rel = scored.get(counts)
            if rel is None:
                rel = scored[counts] = page_relevance(ont, tokens, counts)
            relevance.append(rel)
        p_id: int | None = None
        if any(rel.supported for rel in relevance):
            p_id = len(urls)
            urls.append(url)
            pp_ids.append(pending_parents.pop(url, []))
            for column, rel in zip(kept, relevance):
                column.append(rel)
        else:
            pending_parents.pop(url, None)

        for link in doc.out_links:
            if link not in corpus.docs:
                continue  # dangling link: a live crawler would fail the fetch
            if p_id is not None and link not in processed:
                parents = pending_parents.setdefault(link, [])
                if len(parents) < MAX_PARENTS and p_id not in parents:
                    parents.append(p_id)
            if link not in discovered:
                discovered.add(link)
                queue.append(link)

    log.debug("built relevance graph: %d nodes from %d documents", len(urls), len(corpus))
    tables = {ont_id: ScoreTable.shared(column) for ont_id, column in zip(ids, kept)}
    columns = GraphColumns(urls, pp_ids, GraphScores(tables, len(urls)))
    return RPaG(ontologies=ontologies, columns=columns)
