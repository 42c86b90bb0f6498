"""Local document corpus with an explicit link graph, plus a synthetic generator.

:func:`load_corpus` reads the file with the cyclic garbage collector paused
(``collector.collector_paused``): it keeps every record it decodes and
makes no reference cycles. It keeps one string per distinct url: the
``docs`` key, every link that names the url and every seed that does are
the same object, so a url mentioned by many links costs one string, and a
crawl's bookkeeping and a graph's urls share them. A document is a named
tuple, with no per-instance ``__dict__``; its url is its ``docs`` key.

The :class:`Corpus` constructor, where a crawl's urls enter, checks each
kind a crawl reads and each url an index file must hold, so neither a
crawl nor its graph checks them again; it then holds a read-only copy
of ``docs``, so no url enters later.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter, not_
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .collector import collector_paused
from .errors import ParseError, ValidationError, check_count, valid_utf8_flags
from .ontology import Ontology


class CorpusDoc(NamedTuple):
    out_links: tuple[str, ...]
    text: str


_out_links, _text = attrgetter("out_links"), attrgetter("text")


@dataclass(frozen=True)
class Corpus:
    """Documents keyed by url, in file order, plus the crawl seed urls."""

    docs: Mapping[str, CorpusDoc]  # given as a dict, held as a read-only copy
    seeds: tuple[str, ...]

    def __post_init__(self) -> None:
        """Reject what no crawl or index file can take, kinds first, each in
        one C-level pass; a list or a str is never taken for a tuple. Then
        hold a read-only copy of ``docs``, so no url added later skips these."""
        docs, seeds = self.docs, self.seeds
        for where, kind, values in (
            ("corpus.docs", dict, lambda: (docs,)),
            ("corpus.seeds", tuple, lambda: (seeds,)),
            ("corpus url", str, lambda: docs),
            ("corpus doc", CorpusDoc, lambda: docs.values()),
            ("corpus doc.out_links", tuple, lambda: map(_out_links, docs.values())),
            ("corpus link", str, lambda: chain.from_iterable(map(_out_links, docs.values()))),
            ("corpus doc.text", str, lambda: map(_text, docs.values())),
            ("corpus seed", str, lambda: seeds),
        ):
            if not set(map(type, values())) <= {kind}:
                bad = next(value for value in values() if type(value) is not kind)
                raise ValidationError(f"{where} must be a {kind.__name__}, got {bad!r:.40}")
        if "" in docs:
            raise ValidationError("corpus url must be non-empty")
        bad = next(compress(docs, map(not_, valid_utf8_flags(docs))), None)
        if bad is not None:
            raise ValidationError(f"corpus url must be valid UTF-8, got {bad!r:.40}")
        if not seeds:
            raise ValidationError("corpus has no seeds")
        for seed in seeds:
            if seed not in docs:
                raise ValidationError(f"seed {seed!r} is not in the corpus")
        object.__setattr__(self, "docs", MappingProxyType(dict(docs)))

    def __len__(self) -> int:
        return len(self.docs)


def load_corpus(path: str | Path, seeds: Sequence[str] | None = None) -> Corpus:
    """Read a line-delimited JSON corpus (fields: url, links, text).

    ``seeds`` defaults to the first record's url when omitted. A url that
    is not valid Unicode (a lone surrogate) is rejected, since no index
    could hold it.
    """
    path = Path(path)
    docs: dict[str, CorpusDoc] = {}
    # each distinct url once, shared by its document, its links and seeds
    known: dict[str, str] = {}
    same_url = known.setdefault
    with path.open("r", encoding="utf-8") as fh, collector_paused():
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ParseError(path, line_no, "record is not a JSON object")
            url = obj.get("url")
            links = obj.get("links")
            text = obj.get("text")
            if not isinstance(url, str) or not url:
                raise ParseError(path, line_no, "missing or empty 'url'")
            if not isinstance(links, list) or not all(isinstance(x, str) for x in links):
                raise ParseError(path, line_no, "'links' must be an array of strings")
            if not isinstance(text, str):
                raise ParseError(path, line_no, "'text' must be a string")
            if url in docs:
                raise ValidationError(f"{path}:{line_no}: duplicate url {url!r}")
            try:
                url.encode()
            except UnicodeEncodeError:
                raise ParseError(path, line_no, "'url' is not valid Unicode") from None
            url = same_url(url, url)
            docs[url] = CorpusDoc(out_links=tuple(map(same_url, links, links)), text=text)
    if seeds is None:
        if not docs:
            raise ValidationError(f"{path}: corpus is empty, cannot infer seeds")
        seeds = [next(iter(docs))]
    return Corpus(docs=docs, seeds=tuple(dict.fromkeys(known.get(s, s) for s in seeds)))


# the synthetic generator's noise words, document lengths, chance that a
# word slot holds an ontology phrase, and extra out-links per document
_NOISE_VOCAB_SIZE = 400
_DOC_LEN_RANGE = (45, 135)
_TERM_HIT_PROB = 0.12
_EXTRA_LINKS_MAX = 3


def synth_corpus(rng_seed: int, n_docs: int, ontologies: Sequence[Ontology]) -> Corpus:
    """Generate a deterministic corpus whose texts embed ontology phrases.

    Every document is reachable from the single seed (the first document):
    each later document receives an in-link from an earlier one. Extra
    links are sprinkled on top, so the graph may also contain cycles.
    """
    check_count(n_docs, "n_docs")
    rng = random.Random(rng_seed)
    pools = [[phrase for term in ont.terms for phrase in term.phrases()] for ont in ontologies]

    urls = [f"doc-{i:05d}" for i in range(n_docs)]
    links: list[list[str]] = [[] for _ in range(n_docs)]
    for i in range(1, n_docs):
        links[rng.randrange(i)].append(urls[i])
    for i in range(n_docs):
        for _ in range(rng.randint(0, _EXTRA_LINKS_MAX)):
            links[i].append(urls[rng.randrange(n_docs)])

    docs: dict[str, CorpusDoc] = {}
    for i in range(n_docs):
        length = rng.randint(*_DOC_LEN_RANGE)
        words: list[str] = []
        while len(words) < length:
            if pools and rng.random() < _TERM_HIT_PROB:
                pool = pools[rng.randrange(len(pools))]
                words.extend(rng.choice(pool).split(" "))
            else:
                words.append(f"nz{rng.randrange(_NOISE_VOCAB_SIZE)}")
        docs[urls[i]] = CorpusDoc(out_links=tuple(links[i]), text=" ".join(words))
    return Corpus(docs=docs, seeds=(urls[0],))
