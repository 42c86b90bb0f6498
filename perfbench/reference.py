"""Independent reference for the benchmark's correctness check.

Nothing here imports the package under test. The tokenizer cuts markup
with ``str.find`` and maps bytes through a table, phrase counting works
from a per-document position index, the crawl is a separate breadth-first
walk, and query answers are found by brute force over every supporter in
``(level, -mean, p_id)`` order.
Floating-point values are formed in the same natural order the method
describes (``weight * occurrences`` per term, page value as the left-to-right
sum over terms, mean over supported ontologies), so they are compared for
exact equality.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path


_KEEP = bytes(c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase, drop ``<...>`` markup, keep runs of ASCII letters and digits."""
    lowered = text.lower()
    pieces: list[str] = []
    i = 0
    while True:
        start = lowered.find("<", i)
        close = lowered.find(">", start + 1) if start != -1 else -1
        if close == -1:
            pieces.append(lowered[i:])
            break
        pieces.append(lowered[i:start])
        i = close + 1
    ascii_only = " ".join(pieces).encode("ascii", "replace")
    return ascii_only.translate(_KEEP).decode("ascii").split()


def positions_index(tokens: list[str]) -> dict[str, list[int]]:
    index: dict[str, list[int]] = {}
    for i, tok in enumerate(tokens):
        index.setdefault(tok, []).append(i)
    return index


def count_phrase(tokens: list[str], index: dict[str, list[int]], words: tuple[str, ...]) -> int:
    """Greedy left-to-right non-overlapping matches of ``words``."""
    count = 0
    free_from = 0
    w = len(words)
    for start in index.get(words[0], ()):
        if start < free_from:
            continue
        if tuple(tokens[start : start + w]) == words:
            count += 1
            free_from = start + w
    return count


def xor_keeps(page_bits: int, mask_bits: int) -> bool:
    """The paper's filter rule: XOR page and mask, keep the page when some
    position the mask sets reads zero in the result."""
    return bool(mask_bits & ~(page_bits ^ mask_bits))


@dataclass(frozen=True)
class RefTerm:
    term: str
    weight: float
    phrases: tuple[tuple[str, ...], ...]  # the term first, then its synonyms
    limit: float


@dataclass(frozen=True)
class RefOntology:
    ontology_id: int
    relevance_limit: float
    terms: tuple[RefTerm, ...]

    @property
    def t(self) -> int:
        return len(self.terms)

    @cached_property
    def by_first(self) -> dict[str, list[tuple[int, tuple[str, ...]]]]:
        """First word -> (bit position, phrase words) for every phrase."""
        table: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
        for position, term in enumerate(self.terms):
            for words in term.phrases:
                table.setdefault(words[0], []).append((position, words))
        return table


def _rows(path: Path) -> list[str]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            rows.append(line)
    return rows


def read_limits(path: Path) -> tuple[float, float, dict[str, float]]:
    """(page limit, default term limit, per-term overrides) from a limits file."""
    page, default, overrides = 0.0, 0.0, {}
    for row in _rows(path):
        key, _, value = row.partition("=")
        key = key.strip()
        if key == "relevance_limit":
            page = float(value)
        elif key == "term_relevance_limit.default":
            default = float(value)
        else:
            prefix = "term_relevance_limit."
            overrides[" ".join(tokenize(key[len(prefix) :]))] = float(value)
    return page, default, overrides


def read_ontology(ontology_id: int, weights: Path, syntable: Path, limits: Path) -> RefOntology:
    page, default, overrides = read_limits(limits)
    synonyms: dict[str, list[str]] = {}
    for row in _rows(syntable):
        term, syns = row.split("\t")
        synonyms[" ".join(tokenize(term))] = [" ".join(tokenize(s)) for s in syns.split(",")]
    terms = []
    for row in _rows(weights):
        raw_term, raw_weight = row.split("\t")
        term = " ".join(tokenize(raw_term))
        phrases = (term, *synonyms.get(term, ()))
        terms.append(
            RefTerm(
                term=term,
                weight=float(raw_weight),
                phrases=tuple(tuple(p.split(" ")) for p in phrases),
                limit=overrides.get(term, default),
            )
        )
    return RefOntology(ontology_id, page, tuple(terms))


@dataclass
class RefNode:
    p_id: int
    url: str
    pp_id: int | None
    level: int
    mean: float
    supported: list[bool]
    vectors: list[list[float]]
    bits: list[int]


@dataclass
class RefIndex:
    """What a correct build of the corpus must contain."""

    ontologies: tuple[RefOntology, ...]
    nodes: list[RefNode]
    docs_total: int
    docs_crawled: int
    dangling_links: int
    tokens_crawled: int
    supported_pairs: int
    chains: dict[int, list[RefNode]] = field(default_factory=dict)

    level_means: dict[int, dict[int, list[float]]] = field(default_factory=dict)
    sorted_means: dict[int, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # traversal order: level by level, highest mean first, then p_id
        order = sorted(self.nodes, key=lambda n: (n.level, -n.mean, n.p_id))
        for slot, ont in enumerate(self.ontologies):
            chain = [n for n in order if n.supported[slot]]
            self.chains[ont.ontology_id] = chain
            by_level: dict[int, list[float]] = {}
            for n in chain:
                by_level.setdefault(n.level, []).append(n.mean)
            self.level_means[ont.ontology_id] = by_level
            self.sorted_means[ont.ontology_id] = sorted(n.mean for n in chain)

    @property
    def levels(self) -> int:
        return 1 + max((n.level for n in self.nodes), default=-1)

    def slot(self, ontology_id: int) -> int:
        return [o.ontology_id for o in self.ontologies].index(ontology_id)


def score_page(ont: RefOntology, tokens: list[str], index: dict[str, list[int]]) -> list[float]:
    counts = [0] * ont.t
    for word in index.keys() & ont.by_first.keys():
        for position, words in ont.by_first[word]:
            counts[position] += count_phrase(tokens, index, words)
    return [term.weight * count for term, count in zip(ont.terms, counts)]


def pattern_bits(ont: RefOntology, vector: list[float]) -> int:
    bits = 0
    for position, term in enumerate(ont.terms):
        if vector[position] > term.limit:
            bits |= 1 << (ont.t - 1 - position)
    return bits


def read_corpus(path: Path) -> tuple[dict[str, tuple[list[str], str]], str]:
    docs: dict[str, tuple[list[str], str]] = {}
    first = None
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            docs[rec["url"]] = (rec["links"], rec["text"])
            if first is None:
                first = rec["url"]
    return docs, first


def build_reference(corpus_path: Path, ontologies: tuple[RefOntology, ...]) -> RefIndex:
    """Breadth-first crawl from the first record; keep pages supporting any ontology.

    A kept page's parent is the first kept page, in crawl order, that linked
    to it before it was itself crawled; its level is one below that parent.
    """
    docs, seed = read_corpus(corpus_path)
    queue = deque([seed])
    seen = {seed}
    crawled: set[str] = set()
    first_parent: dict[str, int] = {}
    nodes: list[RefNode] = []
    dangling = tokens_total = supported_pairs = 0
    while queue:
        url = queue.popleft()
        crawled.add(url)
        links, text = docs[url]
        tokens = tokenize(text)
        tokens_total += len(tokens)
        index = positions_index(tokens)
        vectors = [score_page(ont, tokens, index) for ont in ontologies]
        values = [sum(v) for v in vectors]
        supported = [value > ont.relevance_limit for value, ont in zip(values, ontologies)]
        supported_pairs += sum(supported)
        p_id = None
        if any(supported):
            p_id = len(nodes)
            pp_id = first_parent.get(url)
            kept = [v for v, s in zip(values, supported) if s]
            nodes.append(
                RefNode(
                    p_id=p_id,
                    url=url,
                    pp_id=pp_id,
                    level=0 if pp_id is None else nodes[pp_id].level + 1,
                    mean=sum(kept) / len(kept),
                    supported=supported,
                    vectors=vectors,
                    bits=[pattern_bits(o, v) for o, v in zip(ontologies, vectors)],
                )
            )
        for link in links:
            if link not in docs:
                dangling += 1
                continue
            if p_id is not None and link not in crawled:
                first_parent.setdefault(link, p_id)
            if link not in seen:
                seen.add(link)
                queue.append(link)
    return RefIndex(
        ontologies=ontologies,
        nodes=nodes,
        docs_total=len(docs),
        docs_crawled=len(crawled),
        dangling_links=dangling,
        tokens_crawled=tokens_total,
        supported_pairs=supported_pairs,
    )


def mask_bits(ont: RefOntology, search: str) -> int:
    """Bit set for every term that the search string names, itself or by a synonym."""
    tokens = tokenize(search)
    longest = max(len(words) for term in ont.terms for words in term.phrases)
    grams = {
        tuple(tokens[i : i + w]) for w in range(1, longest + 1) for i in range(len(tokens) - w + 1)
    }
    bits = 0
    for position, term in enumerate(ont.terms):
        if any(words in grams for words in term.phrases):
            bits |= 1 << (ont.t - 1 - position)
    return bits


def chain_walk_visits(means_by_level: dict[int, list[float]], lo: float) -> int:
    """Nodes a sorted per-level chain walk touches: every supporter with mean
    >= lo, plus the first one below lo in each level that has one."""
    visited = 0
    for means in means_by_level.values():
        at_or_above = sum(1 for m in means if m >= lo)
        visited += at_or_above + (1 if at_or_above < len(means) else 0)
    return visited


@dataclass(frozen=True)
class RefAnswer:
    before: list[str]
    after: list[str]
    selected: int
    visited: int
    tested: int
    slot: int
    positions: list[int]  # bit positions the query's mask sets
    selection: list[RefNode] = field(repr=False)
    after_nodes: list[RefNode] = field(repr=False)


def answer(ref: RefIndex, query: dict) -> RefAnswer:
    """Brute-force answer for one query in both modes."""
    ont_id, k = query["ontology_id"], query["k"]
    lo = query["lo"]
    hi = math.inf if query["hi"] is None else query["hi"]
    slot = ref.slot(ont_id)
    ont = ref.ontologies[slot]
    selection = [n for n in ref.chains[ont_id] if lo <= n.mean <= hi]
    mask = mask_bits(ont, query["search"])
    after: list[RefNode] = []
    tested = 0
    if mask:
        for n in selection:
            tested += 1
            if xor_keeps(n.bits[slot], mask):
                after.append(n)
                if len(after) == k:
                    break
    return RefAnswer(
        before=[n.url for n in selection[:k]],
        after=[n.url for n in after],
        selected=len(selection),
        visited=chain_walk_visits(ref.level_means[ont_id], lo),
        tested=tested,
        slot=slot,
        positions=[p for p in range(ont.t) if mask >> (ont.t - 1 - p) & 1],
        selection=selection,
        after_nodes=after,
    )


def harvest_rates(ans: RefAnswer, k: int) -> tuple[float | None, float | None]:
    """Harvest Rate of the before- and after-masking results: their mean
    search-term relevance over that of the whole range selection."""

    def mean_score(nodes: list[RefNode]) -> float | None:
        if not nodes:
            return None
        return math.fsum(n.vectors[ans.slot][p] for n in nodes for p in ans.positions) / len(nodes)

    whole = mean_score(ans.selection)
    if whole is None or not whole > 0:
        return None, None
    rates = [mean_score(ans.selection[:k]), mean_score(ans.after_nodes)]
    return tuple(None if r is None else r / whole for r in rates)


def quantile(sorted_values: list[float], q: float) -> float:
    """Value at share ``q`` of a sorted list (lower nearest rank)."""
    return sorted_values[min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))]
