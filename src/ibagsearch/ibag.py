"""Leveled single-parent index generated from the relevance page graph.

Every page keeps the p_id it had in the source graph, exactly one parent
(the first of its listed parents) and its graph's per-ontology scores. A
page's level is its depth in that parent tree. Within a level, pages are
sorted by mean relevance value, highest first, ties broken by ascending
p_id. Per ontology, a link chain threads all supporting pages in traversal
order (level by level, sorted within level), and every level stores the
position of its first supporting page, so a traversal can enter a level
directly and walk only the pages that belong to the queried domain. No
query reads the chains, so they are threaded on first read, once, from the
level table and the supporter columns: through ``IBAG.level_heads``,
:meth:`IBAG.iter_chain` or :attr:`IBAG.nodes`. A build or a load makes no
per-node link mapping.

The index's columns (:class:`IndexColumns`) are its only state: urls,
first parents, levels, means, and the graph's score tables, shared with
it, not copied. Queries read only these and the supporter columns below,
and a build or a load makes no :class:`IBAGNode`. :attr:`IBAG.nodes` makes
the nodes on first read and keeps them. A node is a read-only value: it
holds its graph node's ``relevance`` mapping, the same one, and its
``ont_link``, its next supporter per ontology, filled from the chains.

Queries do not walk the chains. Per ontology and level, the index also
keeps two parallel columns over that level's supporters in level order:
their p_ids and their negated means (ascending). :func:`select_columns`
finds a checked ``search.Query``'s range in each column by bisection and
counts the pages selected and the nodes the chain walk would visit by
index arithmetic, so a query pays for the pages it returns, not for every
supporter.
:func:`select_by_range` and :meth:`IBAG.iter_chain`, the chain walk, are
the reference that the tests compare it with.

The one way to an index is :func:`build_ibag`, from a graph that a crawl
or a load made. It derives the parents, levels and means from the graph's
checked columns, reading each score row once, and re-checks nothing the
graph holds (``rpag.GRAPH_FACTS``); the :class:`IBAG` constructor, the
one layout step, checks the mean it derives (:data:`LAYOUT_FACTS`) and
lays the index out. :meth:`IBAG.validate` lays the index's columns out
again and compares, chains included.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import compress, count, repeat
from operator import add, lt, neg, truediv
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .errors import Fact, ValidationError, check_facts
from .ontology import Ontology
from .relevance import GraphScores, PageRelevance

if TYPE_CHECKING:
    from .rpag import RPaG
    from .search import Query


class IBAGNode(NamedTuple):
    """One page of an index, a read-only value. ``relevance`` maps each
    ontology id to the page's score, and ``ont_link`` to the next
    supporter's p_id in the chain, None at its end; both are read-only in
    the nodes of :attr:`IBAG.nodes`."""

    p_id: int
    url: str
    pp_id: int | None
    mean_rel_val: float
    level: int
    relevance: Mapping[int, PageRelevance]
    ont_link: Mapping[int, int | None]

    @property
    def supported(self) -> dict[int, bool]:
        """Support per ontology id, built from ``relevance`` on each read."""
        return {ont_id: rel.supported for ont_id, rel in self.relevance.items()}

    @property
    def term_vectors(self) -> dict[int, tuple[float, ...]]:
        """Term vector per ontology id, built from ``relevance`` on each read."""
        return {ont_id: rel.term_vector for ont_id, rel in self.relevance.items()}


# one level's supporters of one ontology, in level order: their p_ids and
# their negated means, so the keys ascend
Column = tuple[list[int], array]

# (p_ids, start, stop) per level: the selection is p_ids[start:stop]
RangeSlices = list[tuple[list[int], int, int]]

# per level, the position of its first supporter of each ontology id
Heads = list[dict[int, int | None]]
# per ontology id, each node's next supporter, indexed by p_id
Links = dict[int, list[int | None]]


class IndexColumns(NamedTuple):
    """The index's node facts, one column each, by p_id: what a query reads
    (urls and means) and what the nodes are made from."""

    url: list[str]
    pp_id: list[int | None]
    level: list[int]
    mean_rel_val: list[float]
    scores: GraphScores


class IBAG:
    """The index in columns (:class:`IndexColumns`), plus the level table,
    the per-(ontology, level) supporter columns and the chains: per-level
    domain head positions and per-node links, threaded on first read from
    the supporter columns. The columns are the index's only state; the
    nodes are read-only values made from them on first read and kept."""

    def __init__(self, node_columns: IndexColumns, ontologies: tuple[Ontology, ...]) -> None:
        """The one layout step: check :data:`LAYOUT_FACTS`, sort the levels
        and fill the supporter columns from the scores' support flags."""
        means = node_columns.mean_rel_val
        check_facts(LAYOUT_FACTS, node_columns)

        # a level lists its nodes by ascending p_id, and a sort, reversed or
        # not, is stable, so ties keep that order
        levels: list[list[int]] = [[] for _ in range(max(node_columns.level, default=-1) + 1)]
        for p_id, level in enumerate(node_columns.level):
            levels[level].append(p_id)
        for level in levels:
            level.sort(key=means.__getitem__, reverse=True)

        self.ontologies = ontologies
        self.node_columns = node_columns
        self.levels = levels
        self.columns: dict[int, list[Column]] = {
            ont_id: [
                (p_ids, array("d", map(neg, map(means.__getitem__, p_ids))))
                for p_ids in (
                    list(compress(level, map(supported.__getitem__, level))) for level in levels
                )
            ]
            for ont_id, supported in node_columns.scores.supports.items()
        }
        self._by_id = {ont.ontology_id: ont for ont in ontologies}

    @cached_property
    def _chains(self) -> tuple[Heads, Links]:
        """The paper's traversal structures, threaded on first read from the
        level table and the supporter columns: per level, the position of
        its first supporter of each ontology, its column's first p_id, and
        per ontology, each node's next supporter in traversal order. An
        ontology's chain is its columns' p_ids, level after level."""
        heads: Heads = [dict.fromkeys(self.columns) for _ in self.levels]
        links: Links = {}
        for ont_id, columns in self.columns.items():
            chain = [p_id for p_ids, _ in columns for p_id in p_ids]
            next_ids: list[int | None] = [None] * len(self)
            for p_id, next_id in zip(chain, chain[1:]):
                next_ids[p_id] = next_id
            for level_heads, level, (p_ids, _) in zip(heads, self.levels, columns):
                if p_ids:
                    level_heads[ont_id] = level.index(p_ids[0])
            links[ont_id] = next_ids
        return heads, links

    @cached_property
    def nodes(self) -> tuple[IBAGNode, ...]:
        """One node per page, by p_id, each holding its graph node's
        ``relevance`` mapping and its links in this index's chains, which
        this threads."""
        urls, pp_ids, levels, means, scores = self.node_columns
        links = self._chains[1]
        ont_links = map(zip, repeat(list(links)), zip(*links.values()))
        return tuple(
            map(
                IBAGNode, count(), urls, pp_ids, means, levels, scores.relevances,
                map(MappingProxyType, map(dict, ont_links)),
            )
        )

    @property
    def level_heads(self) -> Heads:
        """Per level, the position of its first supporter of each ontology
        id, None when it has none; threaded with the chains on first read."""
        return self._chains[0]

    def __len__(self) -> int:
        return len(self.node_columns.url)

    def ontology_by_id(self, ontology_id: int) -> Ontology:
        try:
            return self._by_id[ontology_id]
        except KeyError:
            raise ValueError(f"unknown ontology id {ontology_id}") from None

    def mean_value_bounds(self) -> tuple[float, float] | None:
        """(min, max) of mean relevance over all nodes, or None when empty."""
        means = self.node_columns.mean_rel_val
        return (min(means), max(means)) if means else None

    def iter_chain(self, level_index: int, ontology_id: int) -> Iterator[IBAGNode]:
        """Walk one level's supporting nodes, entering at the stored head."""
        heads, links = self._chains
        head = heads[level_index].get(ontology_id)
        if head is None:
            return
        next_ids = links[ontology_id]
        nodes, levels = self.nodes, self.node_columns.level
        p_id: int | None = self.levels[level_index][head]
        while p_id is not None and levels[p_id] == level_index:
            yield nodes[p_id]
            p_id = next_ids[p_id]

    def validate(self) -> None:
        """Lay the index's columns out again and compare: raise
        ValidationError when the level table, the level heads, the chain
        links or the supporter columns differ from what the columns give.
        The index itself is left unchanged, though its chains are threaded
        if nothing has read them yet. It lays out from a fresh view of the
        score tables, so an edit in place shows. The url facts and the
        support fact are the graph's: ``RPaG.validate``, which
        ``IndexBundle.validate`` runs, checks them, and this does not."""
        columns = self.node_columns
        fresh = IBAG(columns._replace(scores=GraphScores(columns.scores.tables)), self.ontologies)
        if self.levels != fresh.levels:
            raise ValidationError("level table differs from the sorted levels the columns give")
        heads, links = self._chains
        if heads != fresh.level_heads:
            raise ValidationError("level heads differ from the first supporters the columns give")
        if links != fresh._chains[1]:
            raise ValidationError("chain links differ from those the columns give")
        if self.columns != fresh.columns:
            raise ValidationError("supporter columns differ from the sorted levels")


def _mean_message(nodes: IndexColumns, p_id: int) -> str:
    return f"node {p_id} mean relevance {nodes.mean_rel_val[p_id]} not in (0, inf)"


# The fact of every index's nodes, which the layout checks: a finite mean.
# A supported node's mean averages values above limits >= 0, so it is
# above 0; the graph's facts reject a node that supports nothing.
LAYOUT_FACTS = (Fact(lambda nodes: map(lt, nodes.mean_rel_val, repeat(math.inf)), _mean_message),)


def build_ibag(rpag: RPaG) -> IBAG:
    """Derive the leveled index from a relevance page graph.

    The single parent is the node's first listed parent. The mean relevance
    value averages the page's relevance over the ontologies it supports, a
    float sum over a count; a sum past the largest float is ``inf``, which
    the layout rejects. Each step is a pass over one of the graph's
    columns; a score's value and support are read once per row of its
    table, then mapped to the nodes through ``of_node``. The index shares
    the graph's urls and score tables.
    """
    urls, parent_lists, scores = rpag.columns
    pp_ids = list(map(next, map(iter, parent_lists), repeat(None)))
    levels: list[int] = []
    append = levels.append
    for pp_id in pp_ids:  # a parent comes before its child
        append(0 if pp_id is None else levels[pp_id] + 1)
    # in ontology order, which is ascending id order, so the float sum is fixed
    ids = [ont.ontology_id for ont in rpag.ontologies]
    values = [scores.tables[ont_id].field("relevance_value") for ont_id in ids]
    means = _means(values, [scores.supports[ont_id] for ont_id in ids])
    return IBAG(IndexColumns(urls, pp_ids, levels, means, scores), rpag.ontologies)


def _means(values: list[list[float]], supported: list[list[bool]]) -> list[float]:
    """Each node's mean: its supported values' float sum, added column by
    column in ontology order, over their count (0.0 for none); ``inf`` when
    the sum passes the largest float. A score holds 0.0 where unsupported,
    and adding 0.0 leaves a float as it is, so every value adds up to the
    supported sum."""
    sums, counts = values[0], supported[0]
    for column, flags in zip(values[1:], supported[1:]):
        sums = list(map(add, sums, column))
        counts = list(map(add, counts, flags))
    return list(map(truediv, sums, map(max, counts, repeat(1))))


def select_by_range(
    ibag: IBAG,
    relevance_range: tuple[float, float],
    ontology_id: int,
) -> tuple[list[IBAGNode], int]:
    """Collect supporting nodes whose mean relevance lies in the closed range.

    Returns the matches in traversal order plus the number of nodes touched.
    Each level is entered at its stored head and walked along the ontology
    chain; because a level is sorted, the walk stops early once values drop
    below the lower bound. This walk is the reference for
    :func:`select_columns`, which queries use.
    """
    lo, hi = relevance_range
    if not lo <= hi:  # NaN bounds too
        raise ValueError(f"invalid relevance range [{lo}, {hi}]")
    ibag.ontology_by_id(ontology_id)  # reject unknown ids
    selected: list[IBAGNode] = []
    visited = 0
    for level_index in range(len(ibag.levels)):
        for node in ibag.iter_chain(level_index, ontology_id):
            visited += 1
            if node.mean_rel_val > hi:
                continue
            if node.mean_rel_val < lo:
                break
            selected.append(node)
    return selected, visited


def select_columns(ibag: IBAG, query: Query) -> tuple[RangeSlices, int, int]:
    """The selection of :func:`select_by_range` for a ``search.Query``,
    whose range is ordered and not NaN, found in the supporter columns by
    bisection instead of a walk.

    Returns one ``(p_ids, start, stop)`` per level that selects anything,
    whose ``p_ids[start:stop]`` in level order make up the selection in
    traversal order, plus the selected count and the number of nodes the
    chain walk visits: every supporter with mean >= ``lo``, plus one per
    level that also has a supporter below ``lo``, where the walk stops.
    """
    lo, hi = query.relevance_range
    try:
        columns = ibag.columns[query.ontology_id]
    except KeyError:
        raise ValueError(f"unknown ontology id {query.ontology_id}") from None
    neg_lo, neg_hi = -lo, -hi
    slices: RangeSlices = []
    selected = visited = 0
    for p_ids, keys in columns:
        stop = bisect_right(keys, neg_lo)
        start = bisect_left(keys, neg_hi, 0, stop)
        if start < stop:
            slices.append((p_ids, start, stop))
            selected += stop - start
        visited += stop + (stop < len(keys))
    return slices, selected, visited
