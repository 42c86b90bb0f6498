"""Seeded inputs for the benchmark workloads.

Everything here is built from ``random.Random(seed)`` alone: the corpus
JSONL, the limits file and the query stream; the bundled ontology files are
passed in by path. The package under test is never imported, so a change to
the program cannot shift a workload. The query stream is drawn after the
reference index exists, so its ranges come from the reference's own
distribution of mean relevance.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from reference import RefIndex, quantile

BUNDLED_ONTOLOGIES = ("cricket", "football", "tennis")
FILLER = ("best", "latest", "guide", "report", "today", "review", "live", "news")
STREAM = 1000  # distinct queries, so ten lie above the stream's 99th percentile


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    len_median: int  # tokens per page, lognormal around this
    len_sigma: float
    hit: float  # share of word slots that carry an ontology phrase
    dangling: float  # share of the extra out-links that point at no document
    builds_per_round: int  # a run has three rounds of builds, loads and queries
    loads_per_round: int
    pass_s: float  # nominal seconds of one pass over the stream, both modes; sets the pass count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crawl-heavy", docs=16000, len_median=110, len_sigma=0.7, hit=0.06,
                 dangling=0.05, builds_per_round=1, loads_per_round=2, pass_s=0.06),
        Workload("query-broad", docs=4000, len_median=90, len_sigma=0.5, hit=0.08,
                 dangling=0.02, builds_per_round=2, loads_per_round=2, pass_s=2.0),
    )
}

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _pseudo_words(rng: random.Random, count: int, prefix: str) -> list[str]:
    words: list[str] = []
    taken: set[str] = set()
    while len(words) < count:
        syllables = [rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))]
        word = prefix + "".join(syllables)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class OntologyFiles:
    name: str
    weights: Path
    syntable: Path


def _phrase_pool(files: OntologyFiles) -> list[list[str]]:
    """Per term, the term and its synonyms as written in the ontology files."""
    syns: dict[str, list[str]] = {}
    for line in files.syntable.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            term, rest = line.split("\t")
            syns[term] = rest.split(",")
    pool = []
    for line in files.weights.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            term = line.split("\t")[0]
            pool.append([term, *syns.get(term, [])])
    return pool


def write_inputs(workload: Workload, seed: int, out_dir: Path, src_data: Path) -> dict:
    """Write the corpus and limits files; return every input path."""
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    ontologies = [
        OntologyFiles(name, src_data / f"{name}-weights.tsv", src_data / f"{name}-syntable.tsv")
        for name in BUNDLED_ONTOLOGIES
    ]
    limits = out_dir / "limits.cfg"
    limits.write_text(
        "relevance_limit=1.0\nterm_relevance_limit.default=0.0\n"
        "term_relevance_limit.cricket=0.5\nterm_relevance_limit.grand slam=0.9\n",
        encoding="utf-8",
    )

    pools = [_phrase_pool(files) for files in ontologies]
    # Zipf-like term popularity by bit position, so the tail terms are rare
    popularity = [list(_cumulative([1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]))
                  for pool in pools]
    noise = _pseudo_words(rng, 3000, "c")
    noise_cum = list(_cumulative([1.0 / (r + 1) for r in range(len(noise))]))

    corpus = out_dir / "corpus.jsonl"
    write_corpus(rng, workload, corpus, pools, popularity, noise, noise_cum)
    return {
        "corpus": str(corpus),
        "limits": str(limits),
        "ontologies": [
            {"name": o.name, "weights": str(o.weights), "syntable": str(o.syntable)}
            for o in ontologies
        ],
    }


def _cumulative(weights: list[float]):
    total = 0.0
    for w in weights:
        total += w
        yield total


def write_corpus(rng, workload, path, pools, popularity, noise, noise_cum) -> None:
    """Link graph plus page text.

    Each page after the first gets an in-link from an earlier reachable
    page, so the first record (the crawl seed) reaches every page except a
    one-percent tail that nothing links to. Extra links add cycles; a share
    of links dangle.
    """
    n = workload.docs
    urls = [f"http://site{i % 97}.example/page/{i}" for i in range(n)]
    reachable = n - n // 100
    links: list[list[str]] = [[] for _ in range(n)]
    for i in range(1, reachable):
        links[rng.randrange(i)].append(urls[i])
    for i in range(n):
        for _ in range(rng.randint(0, 4)):
            if rng.random() < workload.dangling:
                links[i].append(f"http://gone.example/{i}/{rng.randrange(10**6)}")
            else:
                links[i].append(urls[rng.randrange(reachable)])
        rng.shuffle(links[i])
    mu = math.log(workload.len_median)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            length = max(5, min(1500, int(rng.lognormvariate(mu, workload.len_sigma))))
            words = rng.choices(noise, cum_weights=noise_cum, k=length)
            for slot in rng.sample(range(length), int(length * workload.hit + rng.random())):
                o = rng.randrange(len(pools))
                term = rng.choices(pools[o], cum_weights=popularity[o])[0]
                text = rng.choice(term)
                words[slot] = text.title() if rng.random() < 0.1 else text
            text = _markup(rng, words)
            fh.write(json.dumps({"url": urls[i], "links": links[i], "text": text}) + "\n")


def _markup(rng: random.Random, words: list[str]) -> str:
    """Sentences, punctuation and a few tags, so tokenizing does real work."""
    parts = ["<p>"]
    for i, word in enumerate(words):
        parts.append(word)
        if i % 11 == 10:
            parts.append(rng.choice((". ", ", ", "; ", " -- ")))
            if rng.random() < 0.15:
                parts.append(f'<a href="/ref/{rng.randrange(999)}">')
        else:
            parts.append(" ")
    parts.append("</p>")
    return "".join(parts)


def strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one per stratum of width 1/n, in random order.

    Every seed then draws query parameters with nearly the same spread,
    so the stream's make-up does not swing from seed to seed.
    """
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def make_queries(workload: Workload, seed: int, ref: RefIndex, ontologies: list[dict]) -> list[dict]:
    """The query stream, as JSON-ready dicts: search, ontology_id, lo, hi (None: inf), k."""
    rng = random.Random(f"{workload.name}:{seed}:queries")
    pools = [_phrase_pool(OntologyFiles(o["name"], Path(o["weights"]), Path(o["syntable"])))
             for o in ontologies]
    n = STREAM
    u_band, u_lo, u_k, u_terms, u_fill = (strata(rng, n) for _ in range(5))
    queries = []
    for i in range(n):
        ont_id = 1 + i % len(pools)
        pool = pools[ont_id - 1]
        means = ref.sorted_means[ont_id]
        fillers = rng.sample(FILLER, int(3 * u_fill[i]))
        if workload.name == "crawl-heavy":
            # narrow top band: each level's walk stops after a few nodes
            lo, hi = quantile(means, 0.99 + 0.008 * u_band[i]), None
            k = 10 + int(11 * u_k[i])
            terms = rng.sample(pool, 1 + int(2 * u_terms[i]))
        else:
            k = 10 + int(41 * u_k[i])
            if u_band[i] < 0.4:
                lo, hi = 0.0, None
            else:
                # low band below the median: the walk passes every supporter above hi
                q_hi = 0.1 + 0.35 * (u_band[i] - 0.4) / 0.6
                hi = quantile(means, q_hi)
                lo = 0.0 if u_lo[i] < 0.3 else quantile(means, q_hi * u_lo[i])
            terms = rng.sample(pool, 1 + int(3 * u_terms[i]))
        words = [rng.choice(term) for term in terms] + fillers
        rng.shuffle(words)
        queries.append({"search": " ".join(words), "ontology_id": ont_id, "lo": lo, "hi": hi, "k": k})
    return queries
