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
make these columns, and nothing else does: a page's scores come only from
its counts. :attr:`RPaG.nodes` makes the :class:`RPaGNode` values on
first read and keeps them; they are read-only. One layout path,
``build_ibag``, reads the columns.

Loading a saved graph (:meth:`RPaG.from_json_obj`) checks the ontologies
as a crawl does, then each ontology's rows of counts (:data:`ROW_FACTS`),
scores each row once through ``relevance_from_counts``, checks that the
row indexes use every row, first in row order, so an accepted graph saves
back to the same bytes, then checks the pages' urls and parents
(:data:`GRAPH_FACTS`). A graph made by hand is the same object, the
``rpag`` section of an index file, and enters the same way. Each fact is
written once, as lazy flags, one per node or row, and a message
(``errors.Fact``): a node's parents are one check of its parent list, a
row's counts one check of the row. The index's own facts are checked by
the layout ``build_ibag`` ends in.
"""
from __future__ import annotations

import logging
from collections import deque
from functools import cached_property
from itertools import count, repeat
from operator import eq, ge, lt
from typing import Iterator, Mapping, NamedTuple, Sequence

from .corpus import Corpus
from .errors import Fact, ValidationError, check_facts, json_fields
from .ibag import IBAG, FactColumns, build_ibag
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
    lists and the score tables."""

    urls: list[str]
    pp_ids: list[Sequence[int]]
    scores: GraphScores


class RPaG:
    """The graph's pages, dense in p_id in discovery order, plus the
    ontologies. Its columns are its only state: a crawl or a load makes
    them. The nodes are read-only values made from the columns on first
    read and kept."""

    def __init__(self, ontologies: Sequence[Ontology], columns: GraphColumns) -> None:
        self.ontologies = tuple(ontologies)
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

    def json_columns(self) -> dict:
        """The index file's ``rpag`` object: only the inputs, in columns,
        from which scores, support and every index structure derive. Each
        distinct count vector of an ontology is one row, numbered in order
        of first use by p_id. It holds the graph's own url, parent and row
        index lists, not copies: a save dumps it, and nothing may edit it
        (edit a JSON round trip of it instead)."""
        urls, pp_ids, scores = self.columns
        # a crawl scores each distinct count vector once and a load rejects
        # a repeated row, so each row's counts are distinct
        counts = {}
        for ont in self.ontologies:
            table = scores.tables[ont.ontology_id]
            rows = [rel.counts for rel in table.rows]
            counts[str(ont.ontology_id)] = {"of_node": table.of_node, "rows": rows}
        return {"counts": counts, "pp_ids": pp_ids, "urls": urls}

    @staticmethod
    def from_json_obj(obj: object, ontologies: Sequence[Ontology]) -> "RPaG":
        """Decode the columns (p_id is the list index), checking the
        ontologies, shapes, :data:`ROW_FACTS`, row indexes and
        :data:`GRAPH_FACTS`, and score each row of counts once. The index's
        facts are checked by :func:`build_ibag`, which a bundle load runs on
        the result."""
        ontologies = _checked_ontologies(ontologies)
        urls, pp_ids, tables = json_fields(obj, "graph", urls=list, pp_ids=list, counts=dict)
        if tables.keys() != {str(ont.ontology_id) for ont in ontologies}:
            raise ValidationError("graph counts keys mismatch the ontologies")
        if len(pp_ids) != len(urls):
            raise ValidationError(f"graph has {len(urls)} urls but {len(pp_ids)} parent lists")
        scores = {
            ont.ontology_id: _score_table(ont, tables[str(ont.ontology_id)], len(urls))
            for ont in ontologies
        }
        check_facts(GRAPH_FACTS, FactColumns(urls, pp_ids))
        return RPaG(ontologies, GraphColumns(urls, pp_ids, GraphScores(scores)))


def _score_table(ont: Ontology, table: object, node_count: int) -> ScoreTable:
    """One ontology's ``rows`` and ``of_node``, checked, with every row
    scored once: the score the nodes that use the row share."""
    where = f"graph counts {ont.ontology_id}"
    rows, of_node = json_fields(table, where, rows=list, of_node=list)
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


def _parents_hold(pp_ids: Sequence, p_id: int) -> bool:
    """Whether a node's parents are distinct ints, each naming an earlier node."""
    for pp in pp_ids:
        if type(pp) is not int or not 0 <= pp < p_id:
            return False
    return len(pp_ids) < 2 or len(set(pp_ids)) == len(pp_ids)


def _parent_message(graph: FactColumns, p_id: int) -> str:
    """The message naming the node's first parent that is no earlier node,
    or else its first parent listed twice."""
    parents = graph.pp_ids[p_id]
    for pp in parents:
        if not _parents_hold((pp,), p_id):
            return f"node {p_id} parent {pp!r:.40} must reference an earlier node"
    twice = next(pp for i, pp in enumerate(parents) if pp in parents[:i])
    return f"node {p_id} parent {twice} is listed twice"


# The facts of each node of a graph, in the order a failure is named.
GRAPH_FACTS = (
    Fact(
        lambda graph: map(str.__instancecheck__, graph.urls),
        lambda graph, i: f"graph url {i} must be a string, got {graph.urls[i]!r:.40}",
    ),
    Fact(
        lambda graph: map(list.__instancecheck__, graph.pp_ids),
        lambda graph, i: f"graph pp_ids {i} must be a list, got {graph.pp_ids[i]!r:.40}",
    ),
    Fact(
        lambda graph: map(ge, repeat(MAX_PARENTS), map(len, graph.pp_ids)),
        lambda graph, i: f"node {i} has more than {MAX_PARENTS} parents",
    ),
    Fact(lambda graph: map(_parents_hold, graph.pp_ids, count()), _parent_message),
)


class _Rows(NamedTuple):
    """One ontology's rows of counts, as decoded, their length, and where."""

    rows: list
    t: int
    where: str


def _new_rows(rows: _Rows) -> Iterator[bool]:
    """Whether each row is unlike every earlier row: its own first index."""
    return map(eq, map({}.setdefault, map(tuple, rows.rows), count()), count())


def _counts_hold(row: object, t: int) -> bool:
    """Whether a row is a list of ``t`` non-negative int counts."""
    if not isinstance(row, list) or len(row) != t:
        return False
    for c in row:
        if type(c) is not int or c < 0:
            return False
    return True


def _counts_message(rows: _Rows, i: int) -> str:
    return f"{rows.where} row {i} must be {rows.t} non-negative integer counts"


# the least int that a conversion to float rounds past the largest float
_TOO_LARGE_FOR_FLOAT = 2**1024 - 2**970

# The facts of each row of one ontology's counts, in the order a failure
# is named: ``t`` (at least 1) non-negative int counts, not bools, unlike
# every earlier row, the largest small enough to convert to a float.
ROW_FACTS = (
    Fact(lambda rows: map(_counts_hold, rows.rows, repeat(rows.t)), _counts_message),
    Fact(_new_rows, lambda rows, i: f"{rows.where} row {i} repeats an earlier row"),
    Fact(
        lambda rows: map(lt, map(max, rows.rows), repeat(_TOO_LARGE_FOR_FLOAT)),
        lambda rows, i: f"{rows.where} row {i} holds a count too large for a float",
    ),
)


def _checked_ontologies(ontologies: Sequence[Ontology]) -> tuple[Ontology, ...]:
    """The ontologies as a tuple: at least one, their ids unique. A crawl
    and a load both check them here."""
    ontologies = tuple(ontologies)
    if not ontologies:
        raise ValidationError("at least one ontology is required")
    ids = [ont.ontology_id for ont in ontologies]
    if len(set(ids)) != len(ids):
        raise ValidationError("ontology ids must be unique")
    return ontologies


def build_rpag(corpus: Corpus, ontologies: Sequence[Ontology]) -> RPaG:
    """Crawl the corpus from its seeds and keep every supporting page.

    Parent lists are frozen when a page is dequeued: a node's pp_ids are
    the first (up to four) supporting pages that linked to it before it
    was processed, in link-discovery order. That rule keeps every parent's
    p_id below its child's, so the parent structure is acyclic.
    """
    ontologies = _checked_ontologies(ontologies)
    if not corpus.seeds:
        raise ValidationError("corpus has no seeds")

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
    tables = {
        ont.ontology_id: ScoreTable.shared(column) for ont, column in zip(ontologies, kept)
    }
    return RPaG(ontologies, GraphColumns(urls, pp_ids, GraphScores(tables)))
