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
level table and the support flags: through ``IBAG.level_heads``,
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
finds a relevance range in each column by bisection and counts the pages
selected and the nodes the chain walk would visit by index arithmetic, so
a query pays for the pages it returns, not for every supporter.
:func:`select_by_range` and :meth:`IBAG.iter_chain`, the chain walk, are
the reference that the tests compare it with.

One private layout step, which :meth:`IBAG.from_nodes` and
:func:`build_ibag` both end in, checks :data:`LAYOUT_FACTS` and lays the
index out. :func:`build_ibag` derives the parents, levels and means from
the graph's checked columns, reading each score row once, and re-checks
nothing it derived; :meth:`IBAG.from_nodes` first checks what only its
caller gives (:data:`NODE_FACTS`), then turns the nodes into columns once.
:meth:`IBAG.validate` lays the nodes out again and compares, chains and
columns included.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import compress, count, repeat
from operator import add, attrgetter, eq, itemgetter, lt, methodcaller, neg, truediv
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import Fact, ValidationError, check_facts, first_failure
from .ontology import Ontology
from .relevance import GraphScores, PageRelevance, ScoreTable

if TYPE_CHECKING:
    from .rpag import RPaG


class IBAGNode(NamedTuple):
    """One page of an index, a read-only value. ``relevance`` maps each
    ontology id to the page's score, and ``ont_link`` to the next
    supporter's p_id in the chain, None at its end; both are read-only in
    the nodes of :attr:`IBAG.nodes`. :meth:`IBAG.from_nodes` ignores
    ``ont_link``: the layout threads the chains."""

    p_id: int
    url: str
    pp_id: int | None
    mean_rel_val: float
    level: int
    relevance: Mapping[int, PageRelevance]
    ont_link: Mapping[int, int | None] = MappingProxyType({})

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


class _Chains:
    """The paper's traversal structures, threaded on first read from the
    level table and the support flags, not from the supporter columns: per
    level, the position of its first supporter of each ontology, and per
    ontology, each node's next supporter in traversal order (level by
    level, sorted within level, crossing into the next level)."""

    def __init__(self, levels: list[list[int]], supports: dict[int, list[bool]]) -> None:
        self.levels = levels
        self.supports = supports  # per ontology id, indexed by p_id

    @cached_property
    def threaded(self) -> tuple[Heads, Links]:
        heads: Heads = [dict.fromkeys(self.supports) for _ in self.levels]
        links: Links = {}
        for ont_id, supports in self.supports.items():
            next_ids: list[int | None] = [None] * len(supports)
            previous: int | None = None
            for level_index, level in enumerate(self.levels):
                p_ids = [p_id for p_id in level if supports[p_id]]
                if p_ids:
                    heads[level_index][ont_id] = level.index(p_ids[0])
                    for p_id in p_ids:
                        if previous is not None:
                            next_ids[previous] = p_id
                        previous = p_id
            links[ont_id] = next_ids
        return heads, links


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
    per-(ontology, level) supporter columns and the chains: per-level domain
    head positions and per-node links, threaded on first read. The columns
    are the index's only state; the nodes are read-only values made from
    them on first read and kept."""

    def __init__(
        self,
        ontologies: tuple[Ontology, ...],
        node_columns: IndexColumns,
        levels: list[list[int]],
        columns: dict[int, list[Column]],
        chains: _Chains,
    ) -> None:
        self.ontologies = ontologies
        self.node_columns = node_columns
        self.levels = levels
        self.columns = columns
        self._chains = chains
        self._by_id = {ont.ontology_id: ont for ont in ontologies}

    @cached_property
    def nodes(self) -> tuple[IBAGNode, ...]:
        """One node per page, by p_id, each holding its graph node's
        ``relevance`` mapping and its links in this index's chains, which
        this threads."""
        urls, pp_ids, levels, means, scores = self.node_columns
        links = self._chains.threaded[1]
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
        return self._chains.threaded[0]

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
        heads, links = self._chains.threaded
        head = heads[level_index].get(ontology_id)
        if head is None:
            return
        next_ids = links[ontology_id]
        nodes, levels = self.nodes, self.node_columns.level
        p_id: int | None = self.levels[level_index][head]
        while p_id is not None and levels[p_id] == level_index:
            yield nodes[p_id]
            p_id = next_ids[p_id]

    @classmethod
    def from_nodes(cls, nodes: Sequence[IBAGNode], ontologies: Sequence[Ontology]) -> "IBAG":
        """Check :data:`NODE_FACTS`, then lay out, through the step
        :func:`build_ibag` ends in, the nodes before any that fails one, so
        the error names the first bad node. Nodes that share a score share
        its row; the index makes its own nodes from its columns."""
        nodes = list(nodes)
        ontologies = tuple(ontologies)
        names = ("url", "pp_id", "p_id", "level", "mean_rel_val", "relevance")
        view = FactColumns(*(list(map(attrgetter(f), nodes)) for f in names), ontologies=ontologies)
        failure = first_failure(NODE_FACTS, view)
        end = len(nodes) if failure is None else failure[0]  # each node fact holds before
        urls, pp_ids, _, levels, means, relevances = (column[:end] for column in view[:6])
        scores = GraphScores.shared(relevances, [ont.ontology_id for ont in ontologies])
        columns = IndexColumns(urls, pp_ids, levels, means, scores)
        ibag = cls._lay_out(columns, ontologies, _support_flags(ontologies, scores))
        if failure is not None:
            raise ValidationError(failure[1])
        return ibag

    @classmethod
    def _lay_out(
        cls,
        node_columns: IndexColumns,
        ontologies: tuple[Ontology, ...],
        supports: dict[int, list[bool]],
    ) -> "IBAG":
        """The one layout step: check :data:`LAYOUT_FACTS`, sort the levels
        and fill the supporter columns. ``supports`` maps each ontology id
        to its support flags."""
        means = node_columns.mean_rel_val
        check_facts(LAYOUT_FACTS, FactColumns(node_columns.url, means=means, supports=supports))

        # a level lists its nodes by ascending p_id, and a sort, reversed or
        # not, is stable, so ties keep that order
        levels: list[list[int]] = [[] for _ in range(max(node_columns.level, default=-1) + 1)]
        for p_id, level in enumerate(node_columns.level):
            levels[level].append(p_id)
        for level in levels:
            level.sort(key=means.__getitem__, reverse=True)

        columns_by_ontology: dict[int, list[Column]] = {}
        for ont_id, supported in supports.items():
            columns_by_ontology[ont_id] = [
                (p_ids, array("d", map(neg, map(means.__getitem__, p_ids))))
                for p_ids in (
                    list(compress(level, map(supported.__getitem__, level))) for level in levels
                )
            ]
        chains = _Chains(levels, supports)
        return cls(ontologies, node_columns, levels, columns_by_ontology, chains)

    def validate(self) -> None:
        """Lay the nodes out again and compare: raise ValidationError when
        the level table, the level heads, the chain links, the supporter
        columns or the index's columns differ from what :meth:`from_nodes`
        derives. The index itself is left unchanged, though its nodes are
        made and its chains threaded if nothing has read them yet."""
        fresh = type(self).from_nodes(self.nodes, self.ontologies)
        if self.levels != fresh.levels:
            raise ValidationError("level table differs from the sorted levels the nodes give")
        heads, links = self._chains.threaded
        if heads != fresh.level_heads:
            raise ValidationError("level heads differ from the first supporters the nodes give")
        if links != fresh._chains.threaded[1]:
            raise ValidationError("chain links differ from those the nodes give")
        if self.columns != fresh.columns:
            raise ValidationError("supporter columns differ from the sorted levels the nodes give")
        mine, theirs = self.node_columns, fresh.node_columns
        if mine[:-1] != theirs[:-1] or any(
            table.per_node() != theirs.scores.tables[ont_id].per_node()
            for ont_id, table in mine.scores.tables.items()
        ):
            raise ValidationError("index columns differ from the nodes")


class FactColumns(NamedTuple):
    """The columns a table of node facts reads some of, by p_id. ``pp_ids``
    holds a parent list per node in a graph, one parent (or None) in an
    index; ``supports`` each ontology id's support flags."""

    urls: Sequence
    pp_ids: Sequence = ()
    p_ids: Sequence = ()
    levels: Sequence = ()
    means: Sequence = ()
    relevances: Sequence = ()
    supports: Mapping[int, list[bool]] = MappingProxyType({})
    ontologies: tuple[Ontology, ...] = ()


def _relevance_kinds(nodes: FactColumns) -> Iterator[bool]:
    """Whether each node's ``relevance`` is a dict, or the read-only
    mapping a node carries, of scores."""
    return (
        isinstance(rel, (dict, MappingProxyType))
        and all(map(isinstance, rel.values(), repeat(PageRelevance)))
        for rel in nodes.relevances
    )


def relevance_keys_match(nodes: FactColumns) -> Iterator[bool]:
    """Whether each node's ``relevance`` has one key per ontology id."""
    ids = {ont.ontology_id for ont in nodes.ontologies}
    return map(eq, map(methodcaller("keys"), nodes.relevances), repeat(ids))


def _vector_lengths(nodes: FactColumns) -> Iterator[bool]:
    """Whether each node's term vectors are as long as their ontologies."""

    def lengths_match(ont: Ontology) -> Iterator[bool]:
        scores = map(itemgetter(ont.ontology_id), nodes.relevances)
        return map(eq, map(len, map(attrgetter("term_vector"), scores)), repeat(ont.t))

    return map(all, zip(*map(lengths_match, nodes.ontologies)))


def _new_urls(nodes: FactColumns) -> Iterable[bool]:
    """Whether each url, a str by now, is unlike every earlier one: its own
    first index. When a set of the urls is as long as they are, each is."""
    if len(set(nodes.urls)) == len(nodes.urls):
        return ()
    return map(eq, map({}.setdefault, nodes.urls, count()), count())


def _url_message(nodes: FactColumns, p_id: int) -> str:
    return f"node {p_id} url {nodes.urls[p_id]!r} missing or duplicated"


def _mean_message(nodes: FactColumns, p_id: int) -> str:
    return f"node {p_id} mean relevance {nodes.means[p_id]} not in (0, inf)"


# facts a graph of nodes shares with the index's nodes
P_ID = Fact(
    lambda nodes: map(eq, nodes.p_ids, count()),
    lambda nodes, i: f"node at index {i} has p_id {nodes.p_ids[i]}",
)
URL_IS_STR = Fact(
    lambda nodes: map(str.__instancecheck__, nodes.urls),
    lambda nodes, i: f"graph url {i} must be a string, got {nodes.urls[i]!r:.40}",
)
RELEVANCE_KIND = Fact(
    _relevance_kinds,
    lambda nodes, i: f"node {i} relevance must map ontology ids to scores, "
    f"got {nodes.relevances[i]!r:.40}",
)
VECTOR_LENGTHS = Fact(
    _vector_lengths, lambda nodes, i: f"node {i} term vector length mismatches its ontology"
)

# The facts of hand-made nodes, which a build derives, in the order a
# failure is named: only IBAG.from_nodes checks them.
NODE_FACTS = (
    P_ID,
    URL_IS_STR,
    Fact(
        lambda nodes: (
            pp is None or type(pp) is int and 0 <= pp < p_id
            for p_id, pp in enumerate(nodes.pp_ids)
        ),
        lambda nodes, i: f"node {i} parent {nodes.pp_ids[i]} is not earlier in the index",
    ),
    Fact(
        lambda nodes: (
            type(level) is int and level == (0 if pp is None else nodes.levels[pp] + 1)
            for pp, level in zip(nodes.pp_ids, nodes.levels)
        ),
        lambda nodes, i: f"node {i} level {nodes.levels[i]} does not follow its parent",
    ),
    RELEVANCE_KIND,
    Fact(
        relevance_keys_match,
        lambda nodes, i: f"node {i} per-ontology fields mismatch the ontologies",
    ),
    VECTOR_LENGTHS,
    Fact(lambda nodes: map(isinstance, nodes.means, repeat((int, float))), _mean_message),
)

# The facts of every index's nodes, which the layout checks: a non-empty
# url unlike every earlier one, support for some ontology, a mean in (0, inf).
LAYOUT_FACTS = (
    Fact(attrgetter("urls"), _url_message),
    Fact(_new_urls, _url_message),
    Fact(
        lambda nodes: map(any, zip(repeat(False, len(nodes.urls)), *nodes.supports.values())),
        lambda nodes, i: f"node {i} supports no ontology",
    ),
    Fact(lambda nodes: map(lt, repeat(0), nodes.means), _mean_message),
    Fact(lambda nodes: map(lt, nodes.means, repeat(math.inf)), _mean_message),
)


def build_ibag(rpag: RPaG) -> IBAG:
    """Derive the leveled index from a relevance page graph.

    The single parent is the node's first listed parent. The mean relevance
    value averages the page's relevance over the ontologies it supports
    (0.0 for none); one that cannot be a float, from an int sum too large
    for one, becomes ``inf``. The layout rejects both. Each step is a pass
    over one of the graph's columns; a score's value and support are read
    once per row of its table, then mapped to the nodes through
    ``of_node``. The index shares the graph's urls and score tables.
    """
    urls, parent_lists, scores = rpag.columns
    pp_ids = list(map(next, map(iter, parent_lists), repeat(None)))
    levels: list[int] = []
    append = levels.append
    for pp_id in pp_ids:  # a parent comes before its child
        append(0 if pp_id is None else levels[pp_id] + 1)
    supports = _support_flags(rpag.ontologies, scores)
    # in ontology order, not dict order, so the float sum is fixed
    tables = [scores.tables[ont.ontology_id] for ont in rpag.ontologies]
    means = _means(tables, list(supports.values()), len(urls))
    columns = IndexColumns(urls, pp_ids, levels, means, scores)
    return IBAG._lay_out(columns, rpag.ontologies, supports)


def _per_node(table: ScoreTable, field: str) -> list:
    """One field of each node's score, read once per row."""
    return list(map(list(map(attrgetter(field), table.rows)).__getitem__, table.of_node))


def _support_flags(ontologies: Sequence[Ontology], scores: GraphScores) -> dict[int, list[bool]]:
    """Per ontology id, each node's support flag, read from its scores."""
    return {
        ont.ontology_id: _per_node(scores.tables[ont.ontology_id], "supported")
        for ont in ontologies
    }


def _means(tables: list[ScoreTable], supported: list[list[bool]], node_count: int) -> list[float]:
    """Each node's mean: its supported values' sum, added in ontology order,
    over their count (0.0 for none); ``inf`` when the sum cannot be a float."""
    if not tables:
        return [0.0] * node_count
    values = [_per_node(table, "relevance_value") for table in tables]
    if all(
        type(rel.relevance_value) is float
        and (rel.supported is True or (rel.supported is False and rel.relevance_value == 0.0))
        for table in tables
        for rel in table.rows
    ):
        # scored pages hold 0.0 where unsupported, and adding 0.0 leaves a
        # float as it is, so with such floats alone every value adds up to
        # the supported sum; a hand-made score may hold another value
        sums, counts = values[0], supported[0]
        for column, flags in zip(values[1:], supported[1:]):
            sums = list(map(add, sums, column))
            counts = list(map(add, counts, flags))
        return list(map(truediv, sums, map(max, counts, repeat(1))))
    try:
        sums = map(sum, map(compress, zip(*values), zip(*supported)))
        return list(map(truediv, sums, map(max, map(sum, zip(*supported)), repeat(1))))
    except OverflowError:
        return list(map(_mean, zip(*values), zip(*supported)))


def _mean(values: tuple, supported: tuple) -> float:
    """One node's mean, as :func:`_means` gives it."""
    kept = list(compress(values, supported))
    try:
        return sum(kept) / max(len(kept), 1)
    except OverflowError:
        return math.inf


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


def select_columns(
    ibag: IBAG,
    relevance_range: tuple[float, float],
    ontology_id: int,
) -> tuple[RangeSlices, int, int]:
    """The selection of :func:`select_by_range`, found in the supporter
    columns by bisection instead of a walk.

    Returns one ``(p_ids, start, stop)`` per level that selects anything,
    whose ``p_ids[start:stop]`` in level order make up the selection in
    traversal order, plus the selected count and the number of nodes the
    chain walk visits: every supporter with mean >= ``lo``, plus one per
    level that also has a supporter below ``lo``, where the walk stops.
    """
    lo, hi = relevance_range
    if not lo <= hi:  # NaN bounds too
        raise ValueError(f"invalid relevance range [{lo}, {hi}]")
    try:
        columns = ibag.columns[ontology_id]
    except KeyError:
        raise ValueError(f"unknown ontology id {ontology_id}") from None
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
