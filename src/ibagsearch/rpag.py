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

Loading a graph (:meth:`RPaG.from_json_obj`) is one pass over the stored
nodes. Per node it checks the shape on a fast path of plain type tests,
and words an error through ``json_field`` only when one fails. It checks
the facts only the graph holds (:func:`check_node`), then each term vector
in one loop over its entries, and scores the vector through
``relevance_from_vector``, as a build scores a page: once per distinct
vector of an ontology, keyed by the vector, and shared like a crawl's.
Only a vector whose entries are all floats other than -0.0 is shared, since
an int 0 or a -0.0 equals 0.0 and hashes alike but saves differently; any
other vector is scored on its own. Every other node fact is checked once,
later, by ``IBAG.from_nodes``.
"""
from __future__ import annotations

import hashlib
import json
import logging
import sys
from collections import deque
from math import copysign
from dataclasses import dataclass, field
from typing import NoReturn, Sequence

from .corpus import Corpus
from .errors import ValidationError, json_field
from .ibag import build_ibag
from .ontology import Ontology, PhraseTable, normalize_text
from .relevance import PageRelevance, page_relevance, relevance_from_vector

log = logging.getLogger(__name__)

MAX_PARENTS = 4
FORMAT_VERSION = "2"
_MAX_FLOAT = sys.float_info.max


@dataclass(frozen=True, slots=True)
class RPaGNode:
    """One relevant page: identity, up to four parents, per-ontology scores."""

    p_id: int
    url: str
    pp_ids: tuple[int, ...]
    relevance: dict[int, PageRelevance]


@dataclass
class RPaG:
    """Nodes indexed by p_id (dense, in discovery order) plus the ontologies."""

    nodes: list[RPaGNode] = field(default_factory=list)
    ontologies: tuple[Ontology, ...] = ()

    def __len__(self) -> int:
        return len(self.nodes)

    def validate(self) -> None:
        """Run :func:`check_node` on every node, then lay the graph out
        through :func:`build_ibag`, which checks every other node fact.
        Build and load do not call this."""
        ontology_ids = {ont.ontology_id for ont in self.ontologies}
        for index, node in enumerate(self.nodes):
            check_node(index, node.pp_ids, node.relevance, ontology_ids)
        build_ibag(self)

    def to_json_obj(self) -> dict:
        """Only the inputs: scores, support and every index structure derive from them."""
        return {
            "version": FORMAT_VERSION,
            "ontology_digest": ontology_digest(self.ontologies),
            "nodes": [
                {
                    "url": node.url,
                    "pp_ids": list(node.pp_ids),
                    "term_vectors": {
                        str(ont_id): list(rel.term_vector)
                        for ont_id, rel in node.relevance.items()
                    },
                }
                for node in self.nodes
            ],
        }

    @staticmethod
    def from_json_obj(obj: object, ontologies: Sequence[Ontology]) -> "RPaG":
        """Decode nodes (p_id is the list index) and score their term vectors.

        Checks shapes and :func:`check_node` only; the other node facts are
        checked by :func:`build_ibag`, which ``IndexBundle.from_json_obj``
        always runs on the result."""
        ontologies = tuple(ontologies)
        if not isinstance(obj, dict):
            raise ValidationError("graph section must be an object")
        if obj.get("version") != FORMAT_VERSION:
            raise ValidationError(f"unsupported graph format version {obj.get('version')!r}")
        if obj.get("ontology_digest") != ontology_digest(ontologies):
            raise ValidationError("graph was built against different ontologies")
        # per ontology, each distinct vector's score, made once and shared
        scorings = [(str(ont.ontology_id), ont, {}) for ont in ontologies]
        keys = {key for key, _, _ in scorings}
        nodes = []
        for p_id, raw in enumerate(json_field(obj, "nodes", list, "graph")):
            # the shapes a saved file has; json_field words the error otherwise
            if not (
                type(raw) is dict
                and type(vectors := raw.get("term_vectors")) is dict
                and type(pp_ids := raw.get("pp_ids")) is list
            ):
                vectors = json_field(raw, "term_vectors", dict, f"graph node {p_id}")
                pp_ids = json_field(raw, "pp_ids", list, f"graph node {p_id}")
            check_node(p_id, pp_ids, vectors, keys)
            relevance = {}
            for key, ont, scored in scorings:
                vector = vectors[key]
                if not isinstance(vector, list):
                    _bad_vector(p_id, key)
                # NaN and infinity fail the comparisons, an int too large for
                # a float compares above the largest float without being
                # converted, and bool is neither type. A vector is shared only
                # when each entry is a float other than -0.0: an int 0 or a
                # -0.0 equals 0.0 and hashes alike, but saves differently.
                shared = True
                for v in vector:
                    if type(v) is float:
                        if 0.0 < v <= _MAX_FLOAT or (v == 0.0 and copysign(1.0, v) > 0.0):
                            continue
                        if v != 0.0:
                            _bad_vector(p_id, key)
                        shared = False
                    elif type(v) is int and 0 <= v <= _MAX_FLOAT:
                        shared = False
                    else:
                        _bad_vector(p_id, key)
                if shared:
                    vector = tuple(vector)
                    rel = scored.get(vector)
                    if rel is None:
                        rel = scored[vector] = relevance_from_vector(ont, vector)
                else:
                    rel = relevance_from_vector(ont, vector)
                relevance[ont.ontology_id] = rel
            url = raw.get("url")
            if type(url) is not str:
                url = json_field(raw, "url", str, f"graph node {p_id}")
            nodes.append(RPaGNode(p_id, url, tuple(pp_ids), relevance))
        return RPaG(nodes=nodes, ontologies=ontologies)


def _bad_vector(p_id: int, key: str) -> NoReturn:
    raise ValidationError(
        f"graph node {p_id} term vector {key} must be a list of finite non-negative numbers"
    )


def check_node(p_id: int, pp_ids: Sequence[object], relevance: dict, ontology_keys: set) -> None:
    """The node facts only the graph holds (the index keeps one parent): at
    most ``MAX_PARENTS`` parents, each an int below ``p_id``, and one
    relevance entry per ontology, keyed as ``ontology_keys`` are."""
    if len(pp_ids) > MAX_PARENTS:
        raise ValidationError(f"node {p_id} has more than {MAX_PARENTS} parents")
    for pp in pp_ids:
        if type(pp) is not int or not 0 <= pp < p_id:
            raise ValidationError(f"node {p_id} parent {pp!r:.40} must reference an earlier node")
    if relevance.keys() != ontology_keys:
        raise ValidationError(f"node {p_id} relevance keys mismatch the ontologies")


def ontology_digest(ontologies: Sequence[Ontology]) -> str:
    """Stable fingerprint of an ontology list, for cross-checking indexes."""
    payload = json.dumps(
        [ont.to_json_obj() for ont in ontologies],
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    nodes: list[RPaGNode] = []

    while queue:
        url = queue.popleft()
        processed.add(url)
        doc = corpus.docs[url]
        tokens = normalize_text(doc.text)
        relevance = {}
        for (ont, scored), counts in zip(scorings, split(count_terms(tokens))):
            counts = tuple(counts)
            rel = scored.get(counts)
            if rel is None:
                rel = scored[counts] = page_relevance(ont, tokens, counts)
            relevance[ont.ontology_id] = rel
        p_id: int | None = None
        if any(rel.supported for rel in relevance.values()):
            p_id = len(nodes)
            nodes.append(
                RPaGNode(
                    p_id=p_id,
                    url=url,
                    pp_ids=tuple(pending_parents.pop(url, ())),
                    relevance=relevance,
                )
            )
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

    log.debug("built relevance graph: %d nodes from %d documents", len(nodes), len(corpus))
    return RPaG(nodes=nodes, ontologies=ontologies)
