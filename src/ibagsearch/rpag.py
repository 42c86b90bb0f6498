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

A graph holds its pages in columns (:class:`GraphColumns`), as the index
file stores them: the urls, the parent lists, and per ontology a
``ScoreTable`` of each distinct score once (``rows``, in order of first
use by p_id) with each page's row index (``of_node``). A crawl and a load
make only these columns; :attr:`RPaG.nodes` makes the :class:`RPaGNode`
objects on first read. From then on the graph holds the nodes and derives
its columns from them, each node's score its own row, so an edit to a
node is what is validated, laid out and saved; ``RPaG(nodes=...)`` starts
there. Either way one layout path, ``build_ibag``, reads the columns.

A graph is saved in columns (:meth:`RPaG.to_json_obj`): the urls, the
parent lists, and per ontology a ``rows`` table holding each distinct
count vector once, in order of first use by p_id, with an ``of_node`` list
of each node's row index. Loading it (:meth:`RPaG.from_json_obj`) checks
every row: a list of one non-negative int count per term, each convertible
to a float, and unlike every other row. It scores each row once through
``relevance_from_counts``, and every node with that row shares the one
score, as in a crawl. Then it checks that the row indexes use every row,
first in row order, and that the columns are equal in length, so a graph
it accepts is the one graph that saves back to those bytes, and it checks
the facts only the graph holds (:func:`check_parents`). Each of these
checks is a pass over a whole column (the rows' entries, the urls, the
parent lists); only when one fails does the decoder walk the rows or the
nodes one by one, to name the first one at fault as :func:`check_parents`
would. The decoded lists then become the graph's columns as they are.
Every other node fact is checked once, later, by the layout ``build_ibag``
ends in, among them a relevance sum that overflows to infinity.
"""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import lt
from typing import NamedTuple, NoReturn, Sequence

from .corpus import Corpus
from .errors import ValidationError, json_field
from .ibag import build_ibag
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


@dataclass(slots=True)
class RPaGNode:
    """One relevant page: identity, up to four parents, per-ontology scores."""

    p_id: int
    url: str
    pp_ids: tuple[int, ...]
    relevance: dict[int, PageRelevance]


class GraphColumns(NamedTuple):
    """A graph's node facts, one column each, by p_id: the urls, the parent
    lists and the score tables."""

    urls: list[str]
    pp_ids: list[list[int]]
    scores: GraphScores


class RPaG:
    """The graph's pages, dense in p_id in discovery order, plus the
    ontologies. A crawl or a load makes the columns; the nodes are made
    from them on first read. A graph whose nodes have been read, or that
    was made from nodes, holds the nodes from then on, and its columns are
    derived from them on each read, so an edit to a node is what is
    validated, laid out and saved."""

    def __init__(
        self,
        nodes: list[RPaGNode] | None = None,
        ontologies: Sequence[Ontology] = (),
        columns: GraphColumns | None = None,
    ) -> None:
        self.ontologies = tuple(ontologies)
        self._columns = columns
        self._nodes = ([] if nodes is None else nodes) if columns is None else None

    @property
    def nodes(self) -> list[RPaGNode]:
        """One node per page, by p_id, made from the columns on first read."""
        if self._nodes is None:
            urls, pp_ids, scores = self._columns
            self._nodes = list(
                map(RPaGNode, range(len(urls)), urls, map(tuple, pp_ids), scores.dicts())
            )
            self._columns = None
        return self._nodes

    @property
    def columns(self) -> GraphColumns:
        """The graph in columns; derived from the nodes once they exist.
        Each node's score is then its own row."""
        if self._nodes is None:
            return self._columns
        ids = [ont.ontology_id for ont in self.ontologies]
        id_set = set(ids)
        for index, node in enumerate(self._nodes):
            if node.p_id != index:
                raise ValidationError(f"node at index {index} has p_id {node.p_id}")
            if node.relevance.keys() != id_set:
                raise ValidationError(f"node {index} relevance keys mismatch the ontologies")
        return GraphColumns(
            [node.url for node in self._nodes],
            [list(node.pp_ids) for node in self._nodes],
            GraphScores.of_dicts([node.relevance for node in self._nodes], ids),
        )

    def __len__(self) -> int:
        return len(self._columns.urls) if self._nodes is None else len(self._nodes)

    def validate(self) -> None:
        """Run :func:`check_node` on every node, then lay the graph out
        through :func:`build_ibag`, which checks every other node fact.
        Build and load do not call this."""
        ontology_ids = {ont.ontology_id for ont in self.ontologies}
        for index, node in enumerate(self.nodes):
            check_node(index, node.pp_ids, node.relevance, ontology_ids)
        build_ibag(self)

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
        """Decode the columns (p_id is the list index) and score each row of
        counts once.

        Checks shapes, rows, row indexes and :func:`check_parents` only; the
        other node facts are checked by :func:`build_ibag`, which a bundle
        load always runs on the result. The decoded lists become the
        graph's columns as they are."""
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
        if not _graph_columns_ok(urls, pp_ids):
            _raise_for_first_bad_node(urls, pp_ids)
        return RPaG(
            ontologies=ontologies,
            columns=GraphColumns(urls, pp_ids, GraphScores(scores, len(urls))),
        )


def _graph_columns_ok(urls: list, pp_ids: list) -> bool:
    """Whether every url is a string and every parent list holds at most
    ``MAX_PARENTS`` ints, each below its node's p_id: one pass per column."""
    if set(map(type, urls)) - {str} or set(map(type, pp_ids)) - {list}:
        return False
    if max(map(len, pp_ids), default=0) > MAX_PARENTS:
        return False
    flat = chain.from_iterable  # every parent of every node
    return (
        not set(map(type, flat(pp_ids))) - {int}
        and min(flat(pp_ids), default=0) >= 0
        # each non-empty list's largest parent against its node's p_id
        and all(map(lt, map(max, filter(None, pp_ids)), compress(count(), pp_ids)))
    )


def _raise_for_first_bad_node(urls: list, pp_ids: list) -> NoReturn:
    """Node by node, raise for the first node whose url or parents are bad."""
    for p_id, (url, parents) in enumerate(zip(urls, pp_ids)):
        if type(url) is not str:
            raise ValidationError(f"graph url {p_id} must be a string, got {url!r:.40}")
        if type(parents) is not list:
            raise ValidationError(f"graph pp_ids {p_id} must be a list, got {parents!r:.40}")
        check_parents(p_id, parents)
    raise ValidationError("graph urls or parent lists fail a check that names no node")


def _score_table(ont: Ontology, table: object, node_count: int) -> ScoreTable:
    """One ontology's ``rows`` and ``of_node``, checked, with every row
    scored once: the score the nodes that use the row share."""
    where = f"graph counts {ont.ontology_id}"
    rows = json_field(table, "rows", list, where)
    of_node = json_field(table, "of_node", list, where)
    if len(of_node) != node_count:
        raise ValidationError(f"{where} has {len(of_node)} row indexes for {node_count} nodes")
    shared = _scored_rows(ont, rows) if _rows_ok(ont, rows) else None
    if shared is None:
        _raise_for_first_bad_row(ont, rows, where)
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


def _rows_ok(ont: Ontology, rows: list) -> bool:
    """Whether every row is a list of ``ont.t`` non-negative int counts, each
    check one pass over all rows or all their entries. bool is not int
    here, so a row holds only ints."""
    return (
        not set(map(type, rows)) - {list}
        and not set(map(len, rows)) - {ont.t}
        and not set(map(type, chain.from_iterable(rows))) - {int}
        and min(chain.from_iterable(rows), default=0) >= 0
    )


def _scored_rows(ont: Ontology, rows: list) -> list[PageRelevance] | None:
    """Each row's score, or None when a row repeats an earlier one or holds
    a count too large for a float."""
    keys = list(map(tuple, rows))
    if len(set(keys)) < len(keys):
        return None
    try:
        return list(map(relevance_from_counts, repeat(ont), keys))
    except OverflowError:
        return None


def _raise_for_first_bad_row(ont: Ontology, rows: list, where: str) -> NoReturn:
    """Row by row, raise for the first row that is malformed, repeats an
    earlier row or holds a count too large for a float."""
    seen: set[tuple[int, ...]] = set()
    for i, row in enumerate(rows):
        if not (
            type(row) is list
            and len(row) == ont.t
            and not set(map(type, row)) - {int}
            and min(row) >= 0
        ):
            raise ValidationError(f"{where} row {i} must be {ont.t} non-negative integer counts")
        key = tuple(row)
        if key in seen:
            raise ValidationError(f"{where} row {i} repeats an earlier row")
        seen.add(key)
        try:
            relevance_from_counts(ont, key)
        except OverflowError:
            raise ValidationError(f"{where} row {i} holds a count too large for a float") from None
    raise ValidationError(f"{where} rows fail a check that names no row")


def check_parents(p_id: int, pp_ids: Sequence[object]) -> None:
    """At most ``MAX_PARENTS`` parents, each an int below ``p_id``: a fact
    only the graph holds (the index keeps one parent)."""
    if len(pp_ids) > MAX_PARENTS:
        raise ValidationError(f"node {p_id} has more than {MAX_PARENTS} parents")
    for pp in pp_ids:
        if type(pp) is not int or not 0 <= pp < p_id:
            raise ValidationError(f"node {p_id} parent {pp!r:.40} must reference an earlier node")


def check_node(p_id: int, pp_ids: Sequence[object], relevance: dict, ontology_ids: set) -> None:
    """The node facts only the graph holds: :func:`check_parents`, and one
    relevance entry per ontology id."""
    check_parents(p_id, pp_ids)
    if relevance.keys() != ontology_ids:
        raise ValidationError(f"node {p_id} relevance keys mismatch the ontologies")


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
